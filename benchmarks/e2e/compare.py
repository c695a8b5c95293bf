"""Compare two ledger records: ``python3 benchmarks/e2e/compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both are files written by ``run.py --out`` **with the same
seed**, so pass for pass both sides ran the same traces.  One row per
(workload, end-to-end metric): both medians, the change in the *worse*
direction, the metric's bound, and a verdict.

The change is judged on **pairs**: pass *i* of A against the pass of B
that ran the same trace.  Query cost differs between traces by more than
any bound, so the spread of a side's own passes says little; the spread
of the per-pair changes is the noise that matters.

* ``ok``          the median pair is within the bound, and so is the
  quartile spread of the pairs.
* ``unresolved``  the pairs spread wider than the bound, so "unchanged"
  cannot be claimed - unless every pair reads better (``improved``).
* ``REGRESSION``  the median pair is worse than the bound allows, and the
  pairs agree to within the bound (or every single pair is worse).

Exits non-zero on any ``REGRESSION`` or any rise in failed / attempted.
The deterministic counts are compared too and a difference is printed;
it is a behaviour change to explain, not by itself a failure.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence


def worse_by(better: str, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def pair_up(
    a: Dict[str, Any], b: Dict[str, Any], traces_a: Sequence[int], traces_b: Sequence[int]
) -> List[tuple]:
    """``(a_i, b_i)`` for the passes both sides ran on the same trace.

    A metric whose passes are not per-trace (``setup_s``: repeated
    set-ups) is paired by position; one without passes by its value.
    """
    passes_a, passes_b = a.get("passes") or [], b.get("passes") or []
    if not passes_a or not passes_b:
        return [(a["value"], b["value"])]
    if len(passes_a) == len(traces_a) and len(passes_b) == len(traces_b):
        by_trace = dict(zip(traces_b, passes_b))
        return [(v, by_trace[t]) for t, v in zip(traces_a, passes_a) if t in by_trace]
    return list(zip(passes_a, passes_b))


def verdict(better: str, bound: float, pairs: Sequence[tuple]) -> Dict[str, Any]:
    changes = sorted(worse_by(better, a, b) for a, b in pairs)
    change = statistics.median(changes)
    if len(changes) > 1:
        q1, _, q3 = statistics.quantiles(changes, n=4)
        noisy = q3 - q1 > bound
    else:
        noisy = False
    if change > bound:
        word = "REGRESSION" if not noisy or changes[0] > 0 else "unresolved"
    elif noisy:
        word = "improved" if changes[-1] < 0 else "unresolved"
    else:
        word = "ok"
    return {"worse_by": change, "pairs": len(changes), "verdict": word}


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    if doc_a.get("seed") != doc_b.get("seed"):
        rows.append({"workload": "-", "metric": "seed", "verdict": "DIFFERS: unpaired"})
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            rows.append({"workload": name, "metric": "-", "verdict": "MISSING in B"})
            continue
        for spec in doc_a["end_to_end"]:
            ma, mb = a["end_to_end"][spec["name"]], b["end_to_end"][spec["name"]]
            pairs = pair_up(ma, mb, a.get("traces", []), b.get("traces", []))
            row = {
                "workload": name,
                "metric": spec["name"],
                "a": ma["value"],
                "b": mb["value"],
                "bound": spec["bound"],
            }
            row.update(verdict(spec["better"], spec["bound"], pairs))
            rows.append(row)
        frac_a = a["failed"] / a["attempted"]
        frac_b = b["failed"] / b["attempted"]
        rows.append(
            {
                "workload": name,
                "metric": "failed/attempted",
                "a": frac_a,
                "b": frac_b,
                "worse_by": frac_b - frac_a,
                "pairs": 1,
                "bound": 0.0,
                "verdict": "REGRESSION" if frac_b > frac_a else "ok",
            }
        )
        if a.get("counts") != b.get("counts"):
            rows.append(
                {"workload": name, "metric": "deterministic counts", "verdict": "DIFFER"}
            )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(
        f"{'workload':18s} {'metric':20s} {'A':>12s} {'B':>12s} "
        f"{'worse by':>9s} {'pairs':>5s} {'bound':>6s}  verdict"
    )
    for row in rows:
        if "a" not in row:
            print(f"{row['workload']:18s} {row['metric']:20s} {'':>48s}  {row['verdict']}")
            continue
        print(
            f"{row['workload']:18s} {row['metric']:20s} {row['a']:12.5g} "
            f"{row['b']:12.5g} {row['worse_by']:+9.1%} {row['pairs']:5d} "
            f"{row['bound']:6.2f}  {row['verdict']}"
        )
    bad = [r for r in rows if r["verdict"] in ("REGRESSION", "MISSING in B")]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(bad)} regression(s), {unresolved} unresolved of {len(rows)} rows")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
