"""Observability for the reproduction itself (``repro.obs``).

The paper's evaluation is entirely about *measuring the measurer*:
collision/pass rates inside the time windows, queue-monitor stack churn,
query accuracy and throughput.  This package makes those quantities
first-class outputs of every run instead of implicit by-products of the
benchmarks:

* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` (fixed log₂ buckets) instruments and the
  :class:`Metrics` registry that instrumentation points publish into.
* :mod:`repro.obs.report` — :class:`RunReport`, which aggregates the
  always-on structure counters (plus an attached registry) into a JSON
  document or Prometheus-style text exposition.

The structure counters themselves live on the hot structures as plain
integers (see ``TimeWindowSet.level_passes``, ``QueueMonitor.pushes``,
``FilterStats``), maintained with identical semantics by the scalar and
pipeline ingest engines — so reports are comparable across engines and
metrics collection never changes a diagnosis result.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.report import RunReport, collect_port_counters

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "RunReport",
    "collect_port_counters",
]
