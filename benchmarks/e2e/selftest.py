"""Checks of the harness's own arithmetic: ``python3 benchmarks/e2e/selftest.py``.

Plain asserts on synthetic data, no pytest: the percentile picker, span
self time with nested and overlapping children, the ledger sum and its
unattributed remainder, ``compare.py``'s pairing and bound / unresolved logic, and
that ``--seed`` really reaches the generator.  Exits 0 when all hold.
"""

from __future__ import annotations

import sys

import compare
from spans import Span, Tracer, build_ledger, self_times
from stats import percentile, supported_percentile


def raises(call, *args) -> bool:
    try:
        call(*args)
    except ValueError:
        return True
    return False


def check_percentiles() -> None:
    thousand = [float(i) for i in range(1, 1001)]
    assert percentile(thousand, 0.5) == 500.0
    assert percentile(thousand, 0.99) == 990.0  # exactly ten samples beyond
    assert raises(percentile, thousand[:999], 0.99)  # nine beyond: refused
    assert raises(percentile, thousand, 0.999)
    assert raises(percentile, [], 0.5)
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0  # a median needs no tail
    value, used = supported_percentile(thousand[:100], 0.99)
    assert (value, used) == (90.0, 0.9)  # falls back to the p90 it can support
    assert supported_percentile(thousand, 0.99) == (990.0, 0.99)


def check_self_times() -> None:
    spans = [
        Span(0, "pass", 0.0, 10.0, None, "r"),
        Span(1, "engine.drive", 1.0, 5.0, 0, "r"),
        Span(2, "core.absorb", 2.0, 3.0, 1, "r"),  # nested in drive
        Span(3, "queryplan.batch", 6.0, 8.0, 0, "r"),
        Span(4, "queryplan.batch", 7.0, 9.0, 0, "r"),  # overlaps span 3
    ]
    own = self_times(spans)
    assert own[1] == 3.0 and own[2] == 1.0
    assert own[3] == 2.0 and own[4] == 2.0
    # children cover [1,5] and [6,9] of the root's ten seconds
    assert own[0] == 3.0
    ledger = build_ledger(spans)
    assert ledger.wall_s == 10.0 and ledger.unattributed_s == 3.0
    assert ledger.by_name == {
        "engine.drive": 3.0, "core.absorb": 1.0, "queryplan.batch": 4.0
    }
    # Overlapping siblings are counted by both, so this synthetic ledger
    # over-books by the overlap; real passes are single-threaded and
    # never overlap, and there the rows add up to the wall exactly:
    flat = [s for s in spans if s.id != 4]
    flat_ledger = build_ledger(flat)
    assert sum(flat_ledger.by_name.values()) + flat_ledger.unattributed_s == 10.0
    flat_ledger.split("engine.drive", {"core.filter": 0.5}, remainder="engine.other")
    assert flat_ledger.by_name["engine.other"] == 2.5
    assert sum(flat_ledger.by_name.values()) + flat_ledger.unattributed_s == 10.0
    assert flat_ledger.by_layer() == {"core": 1.5, "engine": 2.5, "queryplan": 2.0}
    assert abs(flat_ledger.unattributed_frac - 0.4) < 1e-12
    assert raises(build_ledger, spans[1:])  # two roots


def check_tracer() -> None:
    ticks = iter(range(100))
    tracer = Tracer("run-1", clock=lambda: float(next(ticks)))
    with tracer.span("pass"):
        with tracer.span("a.x"):
            pass
        with tracer.span("b.y"):
            with tracer.span("b.z"):
                pass
    names = [(s.name, s.parent, s.end - s.start, s.run_id) for s in tracer.spans]
    assert names == [
        ("pass", None, 7.0, "run-1"),
        ("a.x", 0, 1.0, "run-1"),
        ("b.y", 0, 3.0, "run-1"),
        ("b.z", 2, 1.0, "run-1"),
    ]
    assert build_ledger(tracer.spans).unattributed_s == 3.0


def check_compare() -> None:
    def word(better: str, pairs: list) -> str:
        return compare.verdict(better, 0.1, pairs)["verdict"]

    assert word("lower", [(1.0, 1.05), (2.0, 2.04), (0.5, 0.51)]) == "ok"
    assert word("lower", [(1.0, 1.2), (2.0, 2.42), (0.5, 0.61)]) == "REGRESSION"
    assert word("higher", [(1.0, 0.8), (2.0, 1.58), (0.5, 0.41)]) == "REGRESSION"
    assert word("higher", [(1.0, 1.5), (2.0, 3.0), (0.5, 0.76)]) == "ok"  # steadily better
    # pairs that disagree by more than the bound resolve nothing ...
    assert word("lower", [(1.0, 0.8), (1.0, 1.0), (1.0, 1.3)]) == "unresolved"
    assert word("lower", [(1.0, 0.9), (1.0, 1.2), (1.0, 1.6)]) == "unresolved"
    # ... unless every single pair points the same way
    assert word("lower", [(1.0, 1.15), (1.0, 1.4), (1.0, 1.8)]) == "REGRESSION"
    assert word("lower", [(1.0, 0.9), (1.0, 0.6), (1.0, 0.3)]) == "improved"
    assert word("lower", [(1.0, 1.3)]) == "REGRESSION"  # a lone value: by the bound
    assert compare.worse_by("lower", 2.0, 3.0) == 0.5
    assert compare.worse_by("higher", 2.0, 3.0) == -0.5
    # passes are paired by the trace they ran, not by position
    a = {"value": 2.0, "passes": [1.0, 2.0, 3.0]}
    b = {"value": 2.5, "passes": [2.0, 3.0]}
    assert compare.pair_up(a, b, [1, 2, 0], [1, 0]) == [(1.0, 2.0), (3.0, 3.0)]
    assert compare.pair_up(a, b, [], []) == [(1.0, 2.0), (2.0, 3.0)]  # by position
    assert compare.pair_up({"value": 0.9}, {"value": 0.8}, [1], [1]) == [(0.9, 0.8)]

    def document(value: float, failed: int) -> dict:
        return {
            "seed": 1,
            "end_to_end": [
                {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}
            ],
            "workloads": {
                "w": {
                    "end_to_end": {
                        "latency_ms": {"value": value, "passes": [value, value * 2]}
                    },
                    "traces": [1, 0],
                    "attempted": 100,
                    "failed": failed,
                    "counts": {"traffic.packets": 7},
                }
            },
        }

    verdicts = [r["verdict"] for r in compare.compare(document(1.0, 0), document(1.05, 0))]
    assert verdicts == ["ok", "ok"]
    verdicts = [r["verdict"] for r in compare.compare(document(1.0, 0), document(1.3, 0))]
    assert verdicts == ["REGRESSION", "ok"]
    verdicts = [r["verdict"] for r in compare.compare(document(1.0, 0), document(1.0, 1))]
    assert verdicts == ["ok", "REGRESSION"]  # any rise in failed / attempted


def check_seed_reaches_generator() -> None:
    from dataclasses import replace

    import workloads

    spec = replace(workloads.SPECS["uw_replay"], duration_ns=3_000_000)
    packets = [
        len(workloads.make_generator(spec, seed).generate_records()[1])
        for seed in (1, 1, 2)
    ]
    assert packets[0] == packets[1] != packets[2], packets


def main() -> int:
    for check in (
        check_percentiles,
        check_self_times,
        check_tracer,
        check_compare,
        check_seed_reaches_generator,
    ):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
