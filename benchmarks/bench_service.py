"""Load driver for the always-on diagnosis service (repro.service).

Modeled on the async-QPS timer harnesses used by production diagnosis
services (cf. the GroundTruth ``Timer`` pattern in SNIPPETS.md): a
closed-loop client fleet drives the JSON-lines front door while the
service's supervised ingest task replays a live workload concurrently,
and every request's wall-clock latency is recorded client-side.

Three measured phases per fault profile (off, then ``chaos``):

* **concurrent** — queries sustained while live ingest is still
  absorbing the log (the always-on steady state: serving competes with
  ingest for the same core);
* **drained** — queries after ingest finished (serving-only ceiling);
* **burst** — a thread fleet intentionally bursts past the admission
  limit on a small queue and counts the *typed* overload rejections.

Published to ``benchmarks/BENCH_service.json``: QPS and p50/p99 ms per
phase, SLO burn rate, overload counts, ingest restarts, and the degraded
answer tally (every one of which must carry its coverage report — the
"never silently wrong" acceptance bar).  Floors stay scale-aware: smoke
runs only sanity-check liveness and typing, full scale also requires
sustained QPS on the drained phase.
"""

import json
import os
import threading
import time

from common import SCALE, print_table
from repro.errors import ServiceOverloadError
from repro.service import ServiceConfig, ServiceHarness
from repro.service.client import ServiceClient

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_service.json")

DURATION_NS = max(8_000_000, int(60_000_000 * SCALE))
#: wall-clock budget for each measured phase, seconds.
PHASE_S = max(0.5, 2.0 * min(1.0, SCALE * 4))
#: the fleet must outnumber ``max_pending`` (8) to provoke overloads.
BURST_THREADS = 16
BURST_REQUESTS = 160
#: full-scale floor on the drained-phase (serving-only) QPS.
FULL_SCALE_QPS_FLOOR = 200.0


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def _drive_queries(client, interval, seconds):
    """Closed-loop driver: returns (completed, latencies_ms, degraded)."""
    latencies = []
    degraded = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            answer = client.query(*interval)
        except ServiceOverloadError:
            continue  # overload is the admission layer working, not an error
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if answer.get("degraded"):
            degraded.append(answer)
    return latencies, degraded


def _burst(host, port, interval):
    """Fire a thread fleet past the admission limit; count typed overloads."""
    overloads = []
    served = []
    lock = threading.Lock()

    def worker():
        with ServiceClient(host, port) as client:
            for _ in range(BURST_REQUESTS // BURST_THREADS):
                try:
                    answer = client.query(*interval)
                    with lock:
                        served.append(answer)
                except ServiceOverloadError as exc:
                    with lock:
                        overloads.append(exc.retry_after_ms)

    threads = [threading.Thread(target=worker) for _ in range(BURST_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return served, overloads


def _run_profile(faults):
    config = ServiceConfig(
        workload="ws",
        duration_ns=DURATION_NS,
        load=1.2,
        seed=42,
        engine="fused",
        faults=faults,
        max_pending=8,
        rate_limit_qps=0.0,
    )
    record = {"faults": faults, "duration_ns": DURATION_NS}
    with ServiceHarness(config=config) as harness:
        host, port = harness.service.address
        end = DURATION_NS
        interval = (max(0, end - 2_000_000), end)
        with ServiceClient(host, port) as client:
            # Phase 1: concurrent with live ingest (until drain or budget).
            concurrent, conc_degraded = [], []
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 20.0:
                status = client.status()
                if status["ingest"]["status"] in ("drained", "failed"):
                    break
                if not status["snapshots"]:
                    continue  # nothing published to answer from yet
                lat, deg = _drive_queries(client, interval, 0.1)
                concurrent.extend(lat)
                conc_degraded.extend(deg)
            ingest_status = client.status()["ingest"]
            conc_s = time.perf_counter() - t0

            # Phase 2: ingest drained — serving-only ceiling.
            drained, drain_degraded = _drive_queries(client, interval, PHASE_S)

        # Phase 3: burst past the admission limit from a thread fleet.
        served, overloads = _burst(host, port, interval)

        status = harness.service.status()
        slo = status["slo"]
        all_degraded = conc_degraded + drain_degraded + [
            a for a in served if a.get("degraded")
        ]
        record.update(
            {
                "ingest": ingest_status,
                "concurrent": {
                    "requests": len(concurrent),
                    "qps": round(len(concurrent) / conc_s, 1) if conc_s else 0.0,
                    "p50_ms": round(_quantile(concurrent, 0.5), 3),
                    "p99_ms": round(_quantile(concurrent, 0.99), 3),
                },
                "drained": {
                    "requests": len(drained),
                    "qps": round(len(drained) / PHASE_S, 1),
                    "p50_ms": round(_quantile(drained, 0.5), 3),
                    "p99_ms": round(_quantile(drained, 0.99), 3),
                },
                "burst": {
                    "requests": BURST_REQUESTS,
                    "served": len(served),
                    "overloads": len(overloads),
                    "max_retry_after_ms": round(max(overloads), 3)
                    if overloads
                    else 0.0,
                },
                "queue_depth_final": status["queue_depth"],
                "max_pending": status["max_pending"],
                "slo": slo,
                "degraded_answers": len(all_degraded),
                "degraded_with_coverage": sum(
                    1 for a in all_degraded if a.get("coverage")
                ),
                "final_state": None,  # filled after stop()
            }
        )
    record["final_state"] = harness.service.state
    return record


def test_service_load():
    runs = {}
    for faults in (None, "chaos"):
        label = faults or "baseline"
        runs[label] = _run_profile(faults)

    payload = {
        "scale": SCALE,
        "cores": os.cpu_count() or 1,
        "qps_floor": FULL_SCALE_QPS_FLOOR,
        "floor_armed": SCALE >= 1.0,
        "runs": runs,
    }
    with open(RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = []
    for label, record in runs.items():
        rows.append(
            [
                label,
                record["concurrent"]["qps"],
                record["drained"]["qps"],
                record["drained"]["p50_ms"],
                record["drained"]["p99_ms"],
                record["burst"]["overloads"],
                record["degraded_answers"],
                record["ingest"]["restarts"],
            ]
        )
    print_table(
        "Service QPS/latency under concurrent ingest",
        [
            "profile",
            "qps(conc)",
            "qps(drained)",
            "p50 ms",
            "p99 ms",
            "overloads",
            "degraded",
            "restarts",
        ],
        rows,
    )

    for label, record in runs.items():
        # Liveness + robustness acceptance, scale-independent:
        assert record["final_state"] == "stopped", label
        assert record["ingest"]["status"] == "drained", label
        assert record["drained"]["requests"] > 0, label
        # bounded queue: the depth can never exceed the admission bound
        assert record["queue_depth_final"] <= record["max_pending"], label
        # the burst must provoke typed overloads on an 8-deep queue
        assert record["burst"]["overloads"] > 0, label
        # never silently wrong: every degraded answer carries coverage
        assert (
            record["degraded_answers"] == record["degraded_with_coverage"]
        ), label
    # the chaos profile must inject real degradation *and* zero crashes
    assert runs["chaos"]["ingest"]["restarts"] == 0
    if SCALE >= 1.0:
        assert runs["baseline"]["drained"]["qps"] >= FULL_SCALE_QPS_FLOOR


if __name__ == "__main__":
    test_service_load()
    print(f"wrote {RESULTS_PATH}")
