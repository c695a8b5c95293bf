"""Figure 14: (a) linear versus exponential storage ratio, and (b) SRAM
utilisation across (k, T).

(a) compares the per-packet export cost of linear-storage telemetry
(NetSight / BurstRadar style) with PrintQueue's set-period register
polling, using the *measured* packet rate of the UW run, for T in 1..5
and alpha in {1, 2, 3}.

(b) reports the data-plane SRAM utilisation of the time windows for
k in {9..12} x T=5 and k=12 x T in {2..5}.

Paper shapes to match: (a) ratios grow with T and alpha, reaching orders
of magnitude; (b) utilisation stays moderate (a few percent) across the
whole parameter family.
"""

import pytest

from common import ground_truth, print_table, workload_config
from repro.metrics.overhead import (
    linear_storage_mbps,
    linear_to_exponential_ratio,
    sram_utilization,
)


def run_fig14():
    records = ground_truth("uw").records
    span_s = (records[-1].deq_timestamp - records[0].deq_timestamp) / 1e9
    pps = len(records) / span_s

    ratio_rows = []
    ratios = {}
    for alpha in (1, 2, 3):
        row = [f"alpha={alpha}"]
        for T in range(1, 6):
            config = workload_config("uw", alpha=alpha, T=T)
            ratio = linear_to_exponential_ratio(config, pps)
            ratios[(alpha, T)] = ratio
            row.append(f"{ratio:.1f}")
        ratio_rows.append(row)

    sram_rows = []
    srams = {}
    for label, params in [
        ("k=9 T=5", dict(k=9, T=5)),
        ("k=10 T=5", dict(k=10, T=5)),
        ("k=11 T=5", dict(k=11, T=5)),
        ("k=12 T=5", dict(k=12, T=5)),
        ("k=12 T=2", dict(k=12, T=2)),
        ("k=12 T=3", dict(k=12, T=3)),
        ("k=12 T=4", dict(k=12, T=4)),
    ]:
        config = workload_config("uw", **params)
        pct = 100 * sram_utilization(config)
        srams[label] = pct
        sram_rows.append((label, f"{pct:.2f}%"))
    return pps, ratio_rows, ratios, sram_rows, srams


def test_fig14_storage_and_sram(benchmark):
    pps, ratio_rows, ratios, sram_rows, srams = benchmark.pedantic(
        run_fig14, rounds=1, iterations=1
    )
    print(f"\nmeasured UW packet rate: {pps / 1e6:.2f} Mpps "
          f"(linear export {linear_storage_mbps(pps):.0f} MB/s)")
    print_table(
        "Figure 14a: linear : exponential storage ratio",
        ["", "T=1", "T=2", "T=3", "T=4", "T=5"],
        ratio_rows,
    )
    print_table("Figure 14b: time-window SRAM utilisation", ["config", "SRAM"], sram_rows)
    # Shapes: ratio grows with T for each alpha, and with alpha at T=5.
    for alpha in (1, 2, 3):
        series = [ratios[(alpha, T)] for T in range(1, 6)]
        assert all(a < b for a, b in zip(series, series[1:])), alpha
    assert ratios[(3, 5)] > ratios[(2, 5)] > ratios[(1, 5)]
    assert ratios[(3, 5)] > 100  # orders of magnitude at the aggressive end
    # SRAM stays moderate; doubles per k increment.
    assert srams["k=12 T=5"] < 20
    assert srams["k=10 T=5"] == pytest.approx(srams["k=9 T=5"] * 2, rel=0.01)
