"""PrintQueue reproduction: performance diagnosis via queue measurement.

A pure-Python reproduction of *PrintQueue* (SIGCOMM 2022), including the
simulated programmable-switch substrate, the time-window and queue-monitor
data structures, the control-plane analysis program, the workload
generators, and the baseline systems (HashPipe, FlowRadar, linear-storage
telemetry) the paper compares against.

Quickstart::

    from repro import simulate_workload, PrintQueueConfig, QueryInterval

    run = simulate_workload("ws", duration_ns=20_000_000, load=1.2)
    victim = max(run.records, key=lambda r: r.queuing_delay)
    result = run.pq.query(
        interval=QueryInterval.for_victim(
            victim.enq_timestamp, victim.deq_timestamp
        )
    )
    for flow, count in result.estimate.top(5):
        print(flow, count)
"""

from repro.core import (
    AnalysisProgram,
    BatchQueryResult,
    ClassedQueueMonitor,
    CulpritReport,
    CulpritTaxonomy,
    Diagnoser,
    FlowEstimate,
    PrintQueue,
    PrintQueueConfig,
    PrintQueuePort,
    QueryInterval,
    QueryResult,
    QueueMonitor,
    TimeWindowSet,
)
from repro.engine import CompiledQueryPlan, IngestPipeline
from repro.errors import QueryError
from repro.experiments import simulate_workload
from repro.faults import CoverageReport, FaultInjector, FaultPlan
from repro.faults import profile as fault_profile
from repro.faults import profile_names as fault_profile_names
from repro.obs import Metrics, RunReport
from repro.store import (
    MemoryStore,
    MmapStore,
    RetentionPolicy,
    SnapshotStore,
    replay_analysis,
)
from repro.switch import FlowKey, Packet, RecordBatch, Switch
from repro.traffic import PoissonWorkload, Trace, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "PrintQueueConfig",
    "PrintQueue",
    "PrintQueuePort",
    "AnalysisProgram",
    "TimeWindowSet",
    "QueueMonitor",
    "CulpritTaxonomy",
    "CulpritReport",
    "Diagnoser",
    "ClassedQueueMonitor",
    "FlowEstimate",
    "QueryInterval",
    "QueryResult",
    "BatchQueryResult",
    "QueryError",
    "FaultPlan",
    "FaultInjector",
    "CoverageReport",
    "fault_profile",
    "fault_profile_names",
    "CompiledQueryPlan",
    "IngestPipeline",
    "Metrics",
    "RunReport",
    "SnapshotStore",
    "MemoryStore",
    "MmapStore",
    "RetentionPolicy",
    "replay_analysis",
    "FlowKey",
    "Packet",
    "RecordBatch",
    "Switch",
    "Trace",
    "PoissonWorkload",
    "WorkloadConfig",
    "simulate_workload",
    "__version__",
]
