"""Exportable run reports: the evaluation's "measure the measurer" data.

The paper's §7 figures are statements about PrintQueue's *own* internals —
collision and pass rates in the time windows (the coefficient argument
behind Fig. 11), queue-monitor stack churn (Fig. 16's case study), query
accuracy and throughput (§7.1).  :class:`RunReport` makes every run
self-describing: it pulls the always-on structure counters out of a
:class:`~repro.core.printqueue.PrintQueuePort` (aggregated across all
three register banks), merges the attached :class:`~repro.obs.metrics.Metrics`
registry if one exists, and serialises the result to JSON or
Prometheus-style text exposition.

The counters are maintained identically by the scalar and pipeline ingest
engines, so two reports over the same trace differ only in their timing
histograms — the equivalence tests assert exactly that.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.obs.metrics import Metrics

if TYPE_CHECKING:
    from repro.core.printqueue import PrintQueuePort

__all__ = ["RunReport", "collect_port_counters"]

#: Sections whose values are deterministic functions of the event stream
#: (identical between ingest engines and metrics-on/off runs).  "faults"
#: qualifies because every injector draw happens at a poll/read instant
#: both engines reach in the same order with the same seeded RNG.
DETERMINISTIC_SECTIONS = (
    "config",
    "packets",
    "time_windows",
    "banks",
    "filter",
    "queue_monitor",
    "samples",
    "faults",
    "store",
)


def _rate(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def collect_port_counters(pq: "PrintQueuePort") -> Dict[str, Any]:
    """Pull the structure-level counters out of one port (all banks)."""
    analysis = pq.analysis
    config = analysis.config
    banks = analysis.tw_banks

    t = config.T
    inserts = [0] * t
    passes = [0] * t
    drops = [0] * t
    occupancy = [0] * t
    updates = agg_passes = agg_drops = 0
    for bank in banks.banks:
        updates += bank.updates
        agg_passes += bank.passes
        agg_drops += bank.drops
        for i in range(t):
            inserts[i] += bank.level_inserts[i]
            passes[i] += bank.level_passes[i]
            drops[i] += bank.level_drops[i]
            occupancy[i] += bank.windows[i].occupancy()

    per_level = []
    for i in range(t):
        collisions = passes[i] + drops[i]
        per_level.append(
            {
                "level": i,
                "inserts": inserts[i],
                "collisions": collisions,
                "passes": passes[i],
                "drops": drops[i],
                "collision_rate": _rate(collisions, inserts[i]),
                "pass_rate": _rate(passes[i], collisions),
                "occupancy": occupancy[i],
            }
        )

    monitor = analysis.queue_monitor
    stats = analysis.filter_stats
    return {
        "config": {
            "m0": config.m0,
            "k": config.k,
            "alpha": config.alpha,
            "T": config.T,
            "describe": config.describe(),
        },
        "packets": {"seen": pq.packets_seen},
        "time_windows": {
            "updates": updates,
            "passes": agg_passes,
            "drops": agg_drops,
            "per_level": per_level,
        },
        "banks": {
            "periodic_flips": banks.periodic_flips,
            "dp_freezes": banks.dp_freezes,
            "dp_rejections": banks.dp_rejections,
        },
        "filter": {
            "cells_scanned": stats.cells_scanned,
            "cells_retained": stats.cells_retained,
            "cells_discarded": stats.cells_discarded,
        },
        "queue_monitor": {
            "pushes": monitor.pushes,
            "drains": monitor.drains,
            "events": monitor._seq,
            "high_water": monitor.high_water,
            "top": monitor.top,
            "overflows": monitor.overflows,
            "snapshots": len(analysis.qm_snapshots),
        },
        "queries": {
            "executed": analysis.queries_executed,
            "tw_snapshots": len(analysis.tw_snapshots),
            "batches": analysis.batch_queries,
            "plan_cache_hits": analysis.plan_cache_hits,
            "plan_cache_misses": analysis.plan_cache_misses,
            "snapshot_compile_hits": analysis.snapshot_compile_hits,
            "snapshot_compile_misses": analysis.snapshot_compile_misses,
        },
        "faults": _collect_faults(pq),
        # Backend-independent store counters: identical between a live
        # run and its replay, whatever tier either side used.
        "store": analysis.store.deterministic_stats(),
        # Tier-specific gauges (bytes, replay position): excluded from
        # the deterministic view — a memory run and its mmap replay
        # legitimately differ here.
        "store_backend": {
            "backend": analysis.store.backend,
            "tw_bytes": analysis.store.tw_bytes,
            "qm_bytes": analysis.store.qm_bytes,
            "bytes_total": analysis.store.tw_bytes + analysis.store.qm_bytes,
            "replay_position": analysis.store.replay_position,
        },
    }


def _collect_faults(pq: "PrintQueuePort") -> Dict[str, Any]:
    """The fault-injection section: what was injected, what was done.

    ``injected`` is read straight off the injector's authoritative tally
    (the same object every injection incremented), so the report
    reconciles with the ``pq_faults_injected_total`` counters by
    construction.  A port whose plan cannot fire a fault reports
    ``{"enabled": False}`` — deterministic across engines, and old
    reports without the key still load fine.
    """
    injector = pq.faults
    if not injector.plan.enabled:
        return {"enabled": False}
    return {
        "enabled": True,
        "profile": injector.plan.name,
        "seed": injector.plan.seed,
        "injected": dict(sorted(injector.injected.items())),
        "resilience": pq.poller.log.to_dict(),
    }


class RunReport:
    """A serialisable snapshot of one run's observability data."""

    VERSION = 1

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    @classmethod
    def from_port(
        cls,
        pq: "PrintQueuePort",
        metrics: Optional[Metrics] = None,
        num_records: Optional[int] = None,
        drops: Optional[int] = None,
    ) -> "RunReport":
        """Build a report from a port after (or during) a run.

        ``metrics`` defaults to the registry attached to the port;
        ``num_records``/``drops`` add trace-level context when the caller
        (the experiment runner) knows it.
        """
        data = collect_port_counters(pq)
        data["version"] = cls.VERSION
        if num_records is not None:
            data["packets"]["records"] = num_records
        if drops is not None:
            data["packets"]["fifo_drops"] = drops
        registry = metrics if metrics is not None else getattr(pq, "metrics", None)
        if registry is not None:
            data["metrics"] = registry.snapshot()
            data["samples"] = [
                {"time_ns": t, "counters": dict(values)}
                for t, values in registry.samples
            ]
        else:
            data["metrics"] = None
            data["samples"] = []
        return cls(data)

    # -- accessors -------------------------------------------------------

    def section(self, name: str) -> Any:
        return self.data.get(name)

    def deterministic_view(self) -> Dict[str, Any]:
        """The engine-independent slice (used by the equivalence tests)."""
        return {k: self.data[k] for k in DETERMINISTIC_SECTIONS if k in self.data}

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return self.data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        data = json.loads(Path(path).read_text())
        version = data.get("version")
        if version != cls.VERSION:
            raise ValueError(f"unsupported RunReport version: {version}")
        return cls(data)

    def to_metrics(self) -> Metrics:
        """Re-materialise the structural counters as a Metrics registry.

        Gives the report a single Prometheus exposition path shared with
        live registries; timing histograms from an attached registry are
        not round-tripped (they are exported live via
        ``Metrics.to_prometheus``).
        """
        registry = Metrics()
        tw = self.data["time_windows"]
        for row in tw["per_level"]:
            level = str(row["level"])
            registry.counter("pq_tw_inserts_total", level=level).inc(row["inserts"])
            registry.counter("pq_tw_collisions_total", level=level).inc(
                row["collisions"]
            )
            registry.counter("pq_tw_passes_total", level=level).inc(row["passes"])
            registry.counter("pq_tw_drops_total", level=level).inc(row["drops"])
            registry.gauge("pq_tw_occupancy", level=level).set(row["occupancy"])
        banks = self.data["banks"]
        registry.counter("pq_bank_periodic_flips_total").inc(banks["periodic_flips"])
        registry.counter("pq_bank_dp_freezes_total").inc(banks["dp_freezes"])
        registry.counter("pq_bank_dp_rejections_total").inc(banks["dp_rejections"])
        filt = self.data["filter"]
        registry.counter("pq_filter_cells_scanned_total").inc(filt["cells_scanned"])
        registry.counter("pq_filter_cells_retained_total").inc(
            filt["cells_retained"]
        )
        qm = self.data["queue_monitor"]
        registry.counter("pq_qm_pushes_total").inc(qm["pushes"])
        registry.counter("pq_qm_drains_total").inc(qm["drains"])
        registry.counter("pq_qm_overflows_total").inc(qm["overflows"])
        registry.gauge("pq_qm_high_water").set(qm["high_water"])
        registry.gauge("pq_qm_top").set(qm["top"])
        queries = self.data["queries"]
        registry.counter("pq_queries_executed_total").inc(queries["executed"])
        # .get(): reports saved before the columnar engine lack these keys.
        registry.counter("pq_query_batches_total").inc(queries.get("batches", 0))
        registry.counter("pq_plan_cache_hits_total").inc(
            queries.get("plan_cache_hits", 0)
        )
        registry.counter("pq_plan_cache_misses_total").inc(
            queries.get("plan_cache_misses", 0)
        )
        registry.counter("pq_snapshot_compile_hits_total").inc(
            queries.get("snapshot_compile_hits", 0)
        )
        registry.counter("pq_snapshot_compile_misses_total").inc(
            queries.get("snapshot_compile_misses", 0)
        )
        registry.counter("pq_packets_seen_total").inc(
            self.data["packets"]["seen"]
        )
        # .get(): reports saved before the snapshot store lack these
        # sections; the memory backend still exports its byte estimates.
        store = self.data.get("store")
        if store:
            registry.counter("pq_store_tw_added_total").inc(
                store.get("tw_added", 0)
            )
            registry.counter("pq_store_qm_added_total").inc(
                store.get("qm_added", 0)
            )
            registry.counter("pq_store_evictions_total", kind="tw").inc(
                store.get("tw_evictions", 0)
            )
            registry.counter("pq_store_evictions_total", kind="qm").inc(
                store.get("qm_evictions", 0)
            )
            registry.counter("pq_store_quarantine_replacements_total").inc(
                store.get("quarantine_replacements", 0)
            )
            registry.gauge("pq_store_version").set(store.get("version", 0))
            registry.gauge("pq_store_tw_snapshots").set(
                store.get("tw_snapshots", 0)
            )
            registry.gauge("pq_store_qm_snapshots").set(
                store.get("qm_snapshots", 0)
            )
        backend = self.data.get("store_backend")
        if backend:
            tier = str(backend.get("backend", "memory"))
            registry.gauge("pq_store_bytes", tier=tier, kind="tw").set(
                backend.get("tw_bytes", 0)
            )
            registry.gauge("pq_store_bytes", tier=tier, kind="qm").set(
                backend.get("qm_bytes", 0)
            )
            registry.gauge("pq_store_replay_position").set(
                backend.get("replay_position", 0)
            )
        # .get(): reports saved before the fault-injection layer lack
        # the section; fault-free runs export no pq_faults_* series.
        faults = self.data.get("faults")
        if faults and faults.get("enabled"):
            for kind, count in sorted(faults.get("injected", {}).items()):
                registry.counter("pq_faults_injected_total", kind=kind).inc(
                    count
                )
            res = faults.get("resilience") or {}
            registry.counter("pq_faults_retries_total").inc(
                res.get("retries", 0)
            )
            registry.counter("pq_faults_retry_exhausted_total").inc(
                res.get("retry_exhausted", 0)
            )
            registry.counter("pq_faults_reads_recovered_total").inc(
                res.get("reads_recovered", 0)
            )
            registry.counter("pq_faults_lost_polls_total").inc(
                res.get("lost_polls", 0)
            )
            registry.counter("pq_faults_delayed_polls_total").inc(
                res.get("delayed_polls", 0)
            )
            registry.counter("pq_faults_quarantined_cells_total").inc(
                res.get("quarantined_cells", 0)
            )
            registry.counter("pq_faults_qm_polls_lost_total").inc(
                res.get("qm_polls_lost", 0)
            )
            registry.counter("pq_faults_dp_read_failures_total").inc(
                res.get("dp_read_failures", 0)
            )
            registry.gauge("pq_faults_retry_backoff_ns_total").set(
                res.get("retry_backoff_ns_total", 0)
            )
        return registry

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the structural counters."""
        return self.to_metrics().to_prometheus()

    # -- presentation ----------------------------------------------------

    def summary(self) -> str:
        """A short human-readable digest (``repro run --format summary``)."""
        tw = self.data["time_windows"]
        qm = self.data["queue_monitor"]
        filt = self.data["filter"]
        lines = [
            f"config: {self.data['config']['describe']}",
            f"packets seen: {self.data['packets']['seen']}",
            "time windows:",
        ]
        for row in tw["per_level"]:
            lines.append(
                f"  w{row['level']}: inserts={row['inserts']} "
                f"collisions={row['collisions']} "
                f"(rate {row['collision_rate']:.3f}) "
                f"passes={row['passes']} (pass rate {row['pass_rate']:.3f})"
            )
        lines.append(
            f"stale filter: scanned={filt['cells_scanned']} "
            f"retained={filt['cells_retained']} "
            f"discarded={filt['cells_discarded']}"
        )
        lines.append(
            f"queue monitor: pushes={qm['pushes']} drains={qm['drains']} "
            f"high-water={qm['high_water']} overflows={qm['overflows']}"
        )
        queries = self.data["queries"]
        lines.append(
            f"queries executed: {queries['executed']}; "
            f"snapshots stored: {queries['tw_snapshots']}"
        )
        if queries.get("batches"):
            lines.append(
                f"batch queries: {queries['batches']}; "
                f"plan cache {queries.get('plan_cache_hits', 0)} hits / "
                f"{queries.get('plan_cache_misses', 0)} misses; "
                f"snapshot compiles {queries.get('snapshot_compile_misses', 0)} "
                f"({queries.get('snapshot_compile_hits', 0)} reused)"
            )
        store = self.data.get("store")
        backend = self.data.get("store_backend") or {}
        if store:
            line = (
                f"snapshot store ({backend.get('backend', 'memory')}): "
                f"version={store.get('version', 0)} "
                f"tw={store.get('tw_snapshots', 0)} "
                f"qm={store.get('qm_snapshots', 0)} "
                f"evicted={store.get('tw_evictions', 0)}+"
                f"{store.get('qm_evictions', 0)} "
                f"replaced={store.get('quarantine_replacements', 0)} "
                f"bytes={backend.get('bytes_total', 0)}"
            )
            if backend.get("replay_position"):
                line += f" [replayed {backend['replay_position']} records]"
            lines.append(line)
        faults = self.data.get("faults")
        if faults and faults.get("enabled"):
            injected = sum(faults.get("injected", {}).values())
            res = faults.get("resilience") or {}
            lines.append(
                f"faults ({faults['profile']}, seed {faults['seed']}): "
                f"{injected} injected; "
                f"lost polls={res.get('lost_polls', 0)} "
                f"delayed={res.get('delayed_polls', 0)} "
                f"retries={res.get('retries', 0)} "
                f"recovered={res.get('reads_recovered', 0)} "
                f"quarantined cells={res.get('quarantined_cells', 0)}"
            )
        return "\n".join(lines)
