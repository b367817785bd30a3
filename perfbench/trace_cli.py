"""Run one ``kohncount`` command with spans around the library's public functions.

Usage: python trace_cli.py SPANS_PATH ARGS...

Behaves like ``python -m kohncount ARGS...`` (same stdout, stderr and exit
code) and writes the spans of this one process to SPANS_PATH as JSON: a list
of [name, start, end, parent index, attributes], with times from
``time.perf_counter``. The wrappers are installed from outside, in every
namespace that bound each function, after the package is imported; nothing in
the package changes.

Functions that run once per table entry, divisor or binomial (``binomial``,
``f_value``, ``delta_M``, ...) are left unwrapped: a span per call would cost
more than the work it measures, and their time stays in the caller's span.
"""

import sys
import time

clock = time.perf_counter
spans = []
stack = []

t_import = clock()
import kohncount  # noqa: E402
from kohncount import asymptotics, cli, exact, spectrum  # noqa: E402

spans.append(["cli.import", t_import, clock(), -1, None])

PER_ELEMENT = {
    "binomial", "hockey_stick_sum", "validate_sphere_n", "hpq_dim", "eigenvalue",
    "f_value", "delta_M", "h_poly",
}


def _count_attrs(args, kwargs, result):
    n, lam, conv = args[:3]
    workers = args[3] if len(args) > 3 else kwargs.get("workers", 1)
    return {"n": n, "X": int(lam // 2), "conv": conv.value, "workers": workers}


ATTRS = {
    "spectrum.count_N": _count_attrs,
    "spectrum.spectrum_table": lambda a, k, r: {"entries": len(r)},
    "asymptotics.leading_coefficient_series": lambda a, k, r: {"K": r.truncation_K},
    "asymptotics.remainder_profile": lambda a, k, r: {"samples": len(r.samples)},
}


def traced(name, fn):
    attrs = ATTRS.get(name)

    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [name, clock(), None, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if attrs is not None:
            span[4] = attrs(args, kwargs, result)
        return result

    return wrapper


def install() -> None:
    modules = {"exact": exact, "spectrum": spectrum, "asymptotics": asymptotics, "cli": cli}
    replacements = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (
                callable(value)
                and not isinstance(value, type)
                and not attr.startswith("_")
                and attr not in PER_ELEMENT
                and getattr(value, "__module__", None) == module.__name__
            ):
                replacements[id(value)] = traced(f"{layer}.{attr}", value)
    for namespace in [vars(m) for m in (kohncount, *modules.values())] + [cli.HANDLERS]:
        for attr, value in list(namespace.items()):
            if id(value) in replacements:
                namespace[attr] = replacements[id(value)]
    exact.PiPolynomial.to_string = traced("exact.to_string", exact.PiPolynomial.to_string)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        import json

        with open(spans_path, "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
