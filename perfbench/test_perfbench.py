"""Tests of the benchmark itself: oracles, generator, tracing and metrics.

Run with ``python3 -m pytest perfbench``.
"""

import json
import math

import mpmath
import pytest

import oracles
import run
import spans
import workloads

PAPER, FULL = oracles.PAPER, oracles.FULL


def brute_count(n: int, X: int, conv: str) -> int:
    pmin = n if conv == PAPER else n - 1
    total = 0
    for p in range(pmin, X + 1):
        for q in range(1, X // p + 1):
            total += math.comb(p - 1, n - 2) * math.comb(q + n - 2, n - 1)
            total += math.comb(p, n - 1) * math.comb(q + n - 2, n - 2)
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("conv", [PAPER, FULL])
def test_hyperbola_oracle_matches_brute_force(n, conv):
    for X in [0, 1, 2, 5, 17, 64, 99, 250]:
        assert oracles.hyperbola_count(n, X, conv) == brute_count(n, X, conv)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_convention_gap_identity(n):
    X = 5000
    assert (
        oracles.hyperbola_count(n, X, FULL) - oracles.hyperbola_count(n, X, PAPER)
        == oracles.convention_gap_count(n, X)
    )


def test_count_oracle_rejects_off_by_one():
    req = workloads.count(3, 123456, "full", "text")
    right = oracles.hyperbola_count(3, 123456 // 2, FULL)
    assert oracles.check(req, f"{right}\n") is None
    assert oracles.check(req, f"{right + 1}\n") is not None
    assert oracles.check(req, f"{right - 1}\n") is not None


def test_count_group_rejects_off_by_one():
    n, lam = 3, 40_000
    paper = oracles.hyperbola_count(n, lam // 2, PAPER)
    full = oracles.hyperbola_count(n, lam // 2, FULL)
    reqs = {(c, w): workloads.count(n, lam, c, "text", w) for c in ("paper", "full") for w in (1, 2)}
    good = [(reqs["paper", w], paper) for w in (1, 2)] + [(reqs["full", w], full) for w in (1, 2)]
    assert oracles.check_count_group(good) is None
    workers_differ = good[:3] + [(reqs["full", 2], full + 1)]
    assert "workers" in oracles.check_count_group(workers_differ)
    gap_off = [(reqs["paper", w], paper) for w in (1, 2)] + [(reqs["full", w], full + 1) for w in (1, 2)]
    assert "C(X/(n-1)+n, n)" in oracles.check_count_group(gap_off)


def test_spectrum_oracle_rejects_off_by_one_cumulative():
    req = workloads.spectrum(2, 8, "full", "csv")
    rows = [(2, 2), (4, 6), (6, 8), (8, 14)]
    cumulative, lines = 0, ["eigenvalue,multiplicity,cumulative"]
    for ev, mult in rows:
        cumulative += mult
        lines.append(f"{ev},{mult},{cumulative}")
    assert cumulative == oracles.hyperbola_count(2, 4, FULL)
    assert oracles.check(req, "\n".join(lines) + "\n") is None
    lines[-1] = f"8,15,{cumulative + 1}"
    assert oracles.check(req, "\n".join(lines) + "\n") is not None


def test_weyl_oracle_rejects_wrong_coefficient():
    req = workloads.weyl(1, "paper-text", "text")
    assert oracles.check(req, "4*pi^4\n") is None
    assert oracles.check(req, "3*pi^4\n") is not None
    assert oracles.check(req, "4*pi^2\n") is not None
    assert oracles.weyl_exact(3, "paper-text") == "16/9*pi^12"
    assert oracles.weyl_exact(1, "conventional") == "1/4"


def test_coefficient_oracle_n2():
    with mpmath.workdps(60):
        assert abs(oracles.coefficient(2, FULL, 50) - mpmath.pi**2 / 24) < mpmath.mpf(10) ** -55
        want = (mpmath.pi**2 / 3 - 1) / 8
        assert abs(oracles.coefficient(2, PAPER, 50) - want) < mpmath.mpf(10) ** -55


def test_closed_form_checks():
    # n = 2: c_paper = -1/8 + 1/24 pi^2, c_full = 1/24 pi^2, gap 1/8.
    assert oracles.parse_pi_polynomial("-1/8 + 1/24*pi^2") == {0: -oracles.Fraction(1, 8), 2: oracles.Fraction(1, 24)}
    assert oracles.coefficient_gap(2) == oracles.Fraction(1, 8)
    req = workloads.coeff(2, "closed", "json")

    def output(paper_exact, full_exact):
        reports = []
        for conv, exact in ((PAPER, paper_exact), (FULL, full_exact)):
            value = oracles.eval_pi_polynomial(oracles.parse_pi_polynomial(exact), 50)
            reports.append({
                "n": 2, "convention": conv, "method": "closed_form", "exact": exact,
                "value": mpmath.nstr(value, 50), "error_bound": "0.0", "digits": 50,
            })
        return json.dumps({"reports": reports, "gaps": {}})

    assert oracles.check(req, output("-1/8 + 1/24*pi^2", "1/24*pi^2")) is None
    assert oracles.check(req, output("-1/9 + 1/24*pi^2", "1/24*pi^2")) is not None


def test_same_seed_same_argv():
    for name in workloads.WORKLOADS:
        first = [r["argv"] for r in workloads.generate(name, 7)]
        again = [r["argv"] for r in workloads.generate(name, 7)]
        other = [r["argv"] for r in workloads.generate(name, 8)]
        assert first == again
        assert first != other


def test_lambdas_are_exact_integers():
    for name in workloads.WORKLOADS:
        for req in workloads.generate(name, 3):
            argv = req["argv"]
            for flag in ("--lambda", "--lambda-max", "--lambdas"):
                if flag in argv:
                    for part in argv[argv.index(flag) + 1].split(","):
                        assert part.isdigit() and int(part) < 2**53, (flag, part)


def test_traced_and_untraced_issue_the_same_requests(tmp_path):
    for req in workloads.generate("cli_burst", 5):
        plain = run.command(req)
        traced = run.command(req, tmp_path / "spans.json")
        assert plain[:3] == [run.PY, "-m", "kohncount"]
        assert plain[3:] == traced[3:] == req["argv"]


def test_tail_percentile_keeps_ten_beyond():
    values = [float(i) for i in range(1, 101)]
    value, pct = run.tail(values)
    assert pct == 90.0
    assert sum(v > pct for v in values) == 10
    assert 90.0 <= value <= 91.0


def test_quantile_weighs_every_order_statistic():
    assert run.quantile([0.7] * 32, 0.5) == pytest.approx(0.7)
    assert run.quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5) == pytest.approx(3.0)
    # Across a gap at the middle, the estimate lies between the two sides.
    assert 1.0 < run.quantile([1.0] * 16 + [2.0] * 16, 0.5) < 2.0


def test_self_and_busy_times():
    totals = spans.Totals()
    totals.add_process([
        ["cli.main", 0.0, 10.0, -1, None],
        ["exact.bernoulli", 1.0, 5.0, 0, None],
        ["exact.bernoulli", 2.0, 3.0, 1, None],
        ["spectrum.count_N", 6.0, 9.0, 0, {"n": 2, "X": 100, "conv": FULL, "workers": 1}],
    ])
    assert totals.self_s["cli.main"] == 3.0
    assert totals.self_s["exact.bernoulli"] == 4.0
    assert totals.busy_s["exact.bernoulli"] == 4.0
    assert totals.calls["exact.bernoulli"] == 1
    assert totals.total_self_s == 10.0
    metrics = spans.layer_metrics(totals, 0)
    assert metrics["spectrum.count.sqrtX_per_s"] == 10 / 3
    assert set(metrics) | {"interp.start_s", "cli.import_s", "cli.import.mpmath_s",
                           "cli.import.futures_s", "trace.overhead_ratio",
                           "trace.unaccounted_ratio"} == {m for m, _, _ in spans.PER_LAYER}


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_strata_cover_and_mirror():
    import random

    for k in (1, 3, 4, 9):
        xs = workloads.strata(random.Random(k), k)
        assert [int(x * k) for x in xs] == list(range(k))
        for i in range(k // 2):
            assert math.isclose(xs[i] + xs[k - 1 - i], 1.0)


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_traced_launcher_keeps_output_and_records_spans(work_dir):
    env = run.child_env()
    req = workloads.coeff(3, "closed", "text")
    plain = run.launch(run.command(req), env)
    traced = run.launch(run.command(req, work_dir / "spans.json"), env)
    assert plain.code == traced.code == 0
    assert plain.stdout == traced.stdout
    assert oracles.check(req, plain.stdout) is None
    names = {span[0] for span in json.loads((work_dir / "spans.json").read_text())}
    assert {"cli.import", "cli.main", "asymptotics.leading_coefficient_closed",
            "exact.stirling_first_signed", "exact.to_string"} <= names


def test_wait4_counts_the_cpu_of_waited_children(work_dir):
    busy = "x = 0\nfor i in range(4_000_000):\n    x += i"
    spawn = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {busy!r}])"
    alone = run.launch([run.PY, "-c", busy], {})
    nested = run.launch([run.PY, "-c", spawn], {})
    assert nested.code == 0
    assert nested.cpu_s > 0.8 * alone.cpu_s


def test_timeout_counts_as_failure(work_dir):
    o = run.launch([run.PY, "-c", "import time; time.sleep(30)"], {}, timeout=0.5)
    assert o.timed_out and o.code != 0 and o.wall_s < 10


def test_every_workload_drives_every_layer():
    # So that no per-layer metric of a traced run is zero by construction.
    for name in workloads.WORKLOADS:
        reqs = workloads.generate(name, 4)
        assert any(r["cmd"] == "count" and r["workers"] == 2 for r in reqs), name
        assert any(r["cmd"] == "spectrum" and r["fmt"] == "csv" for r in reqs), name
        assert any(r["cmd"] == "coeff" and r["method"] == "all" for r in reqs), name
        assert any(r["cmd"] == "converge" for r in reqs), name
