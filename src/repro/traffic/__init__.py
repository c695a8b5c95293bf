"""Workload generation: the traces the paper evaluates on.

The paper drives its Tofino testbed with the University of Wisconsin data
center trace (UW) plus two synthetic traces modelled after well-known flow
size distributions — web search (DCTCP) and data mining (VL2) — with
Poisson flow/packet arrivals.  This package provides synthetic equivalents
of all three, plus the scenario builders used in the microburst, incast,
and queue-monitor case-study experiments.
"""

from repro.traffic.arrivals import (
    ArrivalProcess,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.traffic.distributions import (
    DataMiningDistribution,
    EmpiricalCdfDistribution,
    FlowSizeDistribution,
    UWLikeDistribution,
    WebSearchDistribution,
)
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.traffic.scenarios import (
    BurstCaseStudy,
    incast_scenario,
    microburst_scenario,
    udp_burst_case_study,
)
from repro.traffic.trace import Trace, partition_trace_by_port

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "OnOffArrivals",
    "FlowSizeDistribution",
    "WebSearchDistribution",
    "DataMiningDistribution",
    "UWLikeDistribution",
    "EmpiricalCdfDistribution",
    "PoissonWorkload",
    "WorkloadConfig",
    "Trace",
    "partition_trace_by_port",
    "microburst_scenario",
    "incast_scenario",
    "udp_burst_case_study",
    "BurstCaseStudy",
]
