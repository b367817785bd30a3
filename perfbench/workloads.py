"""Seeded request lists for the three workloads.

A request is a dict: ``argv`` is everything after ``kohncount`` and is all the
program receives; the other keys tell the oracles what was asked. Every
lambda is an integer below 2**53 written in decimal, so a float parser and an
exact parser ask for the same count.

The cost of a request grows steeply with lambda (about sqrt(X) for ``count``,
X**1.5 for ``spectrum``), so independent log-uniform draws would make a
pass's total work, and its median request, swing by tens of percent from seed
to seed. Each request type therefore takes one draw from each of equal
log-width strata of its range (for tables, a Latin design over n and format),
and mirrored strata take mirrored draws, so that a high draw in one is
offset by a low draw in the other. Every lambda is still log-uniform within
its stratum, and the strata cover the whole range.
"""

from __future__ import annotations

import random

# About the seconds one pass takes at the seed on a 2-core machine. A run
# repeats the pass round(seconds / PASS_S) times (at least once), so the
# request list and the number of latency samples depend only on the seed and
# --seconds.
PASS_S = {"count_deep": 40.0, "tables_sweeps": 18.0, "cli_burst": 13.0}

FORMATS = ("text", "csv", "json")
CONVENTIONS = ("paper", "full")


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of one pass, in the order it is sent."""
    rng = random.Random(f"{workload}/{seed}")
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


def _log_uniform(lo: float, hi: float, u: float) -> int:
    return int(lo * (hi / lo) ** u)


def strata(rng: random.Random, k: int) -> list[float]:
    """One point in each of k equal strata of [0, 1); strata i and k-1-i mirror."""
    offsets = [0.0] * k
    for i in range((k + 1) // 2):
        u = rng.random()
        offsets[i], offsets[k - 1 - i] = u, 1 - u
    return [(i + u) / k for i, u in enumerate(offsets)]


# ---------------------------------------------------------------------------
# request constructors


def count(n, lam, conv, fmt, workers=1, group=None, oracle=True):
    argv = ["count", "--n", str(n), "--lambda", str(lam), "--convention", conv, "--format", fmt]
    if workers != 1:
        argv += ["--workers", str(workers)]
    return {
        "cmd": "count", "argv": argv, "n": n, "lam": lam, "conv": conv, "fmt": fmt,
        "workers": workers, "group": group, "oracle": oracle,
    }


def spectrum(n, lam_max, conv, fmt):
    argv = ["spectrum", "--n", str(n), "--lambda-max", str(lam_max), "--convention", conv,
            "--format", fmt]
    return {"cmd": "spectrum", "argv": argv, "n": n, "lam": lam_max, "conv": conv, "fmt": fmt}


def converge(n, lams, conv):
    argv = ["converge", "--n", str(n), "--convention", conv,
            "--lambdas", ",".join(str(lam) for lam in lams)]
    return {"cmd": "converge", "argv": argv, "n": n, "lams": lams, "conv": conv}


def coeff(n, method, fmt, conv="both", eps=None):
    """``method=None`` leaves --method at its default, ``all``."""
    argv = ["coeff", "--n", str(n), "--format", fmt]
    if method is not None:
        argv += ["--method", method]
    if conv != "both":
        argv += ["--convention", conv]
    if eps is not None:
        argv += ["--eps", eps]
    return {"cmd": "coeff", "argv": argv, "n": n, "method": method or "all", "fmt": fmt, "conv": conv,
            "precision": 50}


def weyl(n, norm, fmt):
    argv = ["weyl", "--n", str(n), "--normalization", norm, "--format", fmt]
    return {"cmd": "weyl", "argv": argv, "n": n, "norm": norm, "fmt": fmt}


def geometric(lo: int, hi: int, k: int) -> list[int]:
    """k ascending integers from lo to hi with a constant ratio."""
    return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]


# ---------------------------------------------------------------------------
# workloads


def _count_deep(rng: random.Random) -> list[dict]:
    reqs = []
    # Four lambdas per n, one per quarter of log lambda, alternately carrying
    # a --workers 1/2 pair and a paper/full pair, so the workers and
    # convention-gap identities check every count (the O(sqrt X) oracle would
    # cost as much as the program here).
    for n in (2, 3, 10):
        first = rng.randrange(2)
        for stratum, x in enumerate(strata(rng, 4)):
            lam = _log_uniform(2e10, 2e11, x)
            fmt = rng.choice(FORMATS)
            if (first + stratum) % 2:
                pair = [(conv, 1) for conv in CONVENTIONS]
            else:
                conv = rng.choice(CONVENTIONS)
                pair = [(conv, 1), (conv, 2)]
            for conv, workers in pair:
                reqs.append(count(n, lam, conv, fmt, workers, group=(n, lam), oracle=False))
    # Two small requests for each remaining layer, so that every per-layer
    # metric is measured here too (tables in csv, for write_spectrum_csv).
    # With eight of them the median request falls between the second and third
    # quarters of the n = 2, 3 counts, whose mirrored draws keep it steady from
    # seed to seed.
    for _ in range(2):
        reqs += [
            spectrum(rng.randint(2, 5), rng.randint(100, 300), rng.choice(CONVENTIONS), "csv"),
            coeff(rng.randint(2, 7), "all", rng.choice(FORMATS)),
            converge(rng.randint(2, 3), geometric(256, rng.randint(50_000, 100_000), 5),
                     rng.choice(CONVENTIONS)),
            weyl(rng.randint(1, 8), rng.choice(["paper-text", "conventional"]),
                 rng.choice(FORMATS)),
        ]
    return reqs


def _tables_sweeps(rng: random.Random) -> list[dict]:
    reqs = []
    # Nine tables over n x format, one per ninth of log lambda_max. Thirds form
    # a Latin square (every n and every format gets one low, one middle and one
    # high table); inside a third the format picks the ninth, so the largest
    # table, which sets peak RSS, is always json in the top ninth. That one
    # sits at the top of the range, so that peak RSS does not depend on the seed.
    shift = rng.randrange(3)
    ns = (2, 3, 5)
    ninths = strata(rng, 9)
    ninths[8] = 1.0
    for i in range(3):
        for j in range(3):
            lam_max = _log_uniform(2e4, 1e5, ninths[3 * ((i + j + shift) % 3) + j])
            reqs.append(spectrum(ns[i], lam_max, rng.choice(CONVENTIONS), FORMATS[j]))
    # Four sweeps of 25 geometric lambdas; their tops take one quarter each of
    # log [1.5e10, 2.5e10].
    sweeps = [(n, conv) for n in (2, 3) for conv in CONVENTIONS]
    rng.shuffle(sweeps)
    for (n, conv), x in zip(sweeps, strata(rng, 4)):
        reqs.append(converge(n, geometric(256, _log_uniform(1.5e10, 2.5e10, x), 25), conv))
    reqs.append(coeff(2, "all", rng.choice(FORMATS), eps="1e-20"))
    # --method all at n >= 59 overflows in the empirical ratio (float
    # lambda**n), so the large-n requests ask for series and closed separately.
    u = rng.random()
    for n in (60 + round(90 * u), 60 + round(90 * (1 - u))):
        for method in ("closed", "series"):
            reqs.append(coeff(n, method, rng.choice(FORMATS)))
    # A --workers pair, so that the parallel speed-up is measured here too.
    lam = _log_uniform(1e9, 1e10, rng.random())
    conv, fmt = rng.choice(CONVENTIONS), rng.choice(FORMATS)
    for workers in (1, 2):
        reqs.append(count(3, lam, conv, fmt, workers, group=(3, lam)))
    return reqs


def _cli_burst(rng: random.Random) -> list[dict]:
    reqs = []
    for k in range(6):
        n = rng.randint(2, 10)
        fmt = rng.choice(FORMATS)
        if k < 3:  # a --workers pair on the same (n, lambda)
            lam = _log_uniform(1e4, 1e6, rng.random())
            conv = rng.choice(CONVENTIONS)
            reqs += [count(n, lam, conv, fmt, w, group=(n, lam)) for w in (1, 2)]
        else:  # a convention pair on the same (n, lambda)
            lam = _log_uniform(64, 1e6, rng.random())
            reqs += [count(n, lam, c, fmt, group=(n, lam)) for c in CONVENTIONS]
    for k in range(9):
        reqs.append(spectrum(rng.randint(2, 6), _log_uniform(16, 300, rng.random()),
                             rng.choice(CONVENTIONS), FORMATS[k % 3]))
    for k in range(6):
        reqs.append(coeff(rng.randint(2, 7), "closed", FORMATS[k % 3]))
    for k in range(6):
        reqs.append(coeff(rng.randint(2, 7), ("series", None)[k % 2], FORMATS[k % 3],
                          conv=rng.choice(CONVENTIONS + ("both",))))
    for k in range(9):
        reqs.append(weyl(rng.randint(1, 8), ("paper-text", "conventional")[k % 2],
                         FORMATS[k % 3]))
    for _ in range(8):
        top = _log_uniform(4096, 1e6, rng.random())
        reqs.append(converge(rng.randint(2, 5), geometric(256, top, rng.randint(3, 6)),
                             rng.choice(CONVENTIONS)))
    return reqs


# The reason for each workload is its "why" in BENCHMARK.json.
WORKLOADS = {
    "count_deep": _count_deep,
    "tables_sweeps": _tables_sweeps,
    "cli_burst": _cli_burst,
}
