"""Scoring of PrintQueue queries against the oracle.

For each sampled victim, the direct-culprit ground truth is the per-flow
count of packets dequeued during the victim's queuing interval
(Section 7.1's methodology: "queries for indirect culprits are
identical", so direct queries are what all the accuracy figures score).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.printqueue import PrintQueuePort
from repro.core.queries import FlowEstimate, QueryInterval
from repro.core.taxonomy import CulpritTaxonomy
from repro.metrics.accuracy import AccuracyScore, precision_recall
from repro.switch.telemetry import DequeueRecord


def victim_interval(record: DequeueRecord) -> QueryInterval:
    """The direct-culprit query interval of a victim record."""
    return QueryInterval.for_victim(record.enq_timestamp, record.deq_timestamp)


def ground_truth_direct(
    taxonomy: CulpritTaxonomy, record: DequeueRecord
) -> FlowEstimate:
    """Oracle per-flow counts of the victim's direct culprits."""
    return taxonomy.direct(record)


def evaluate_async_queries(
    pq: PrintQueuePort,
    taxonomy: CulpritTaxonomy,
    records: Sequence[DequeueRecord],
    victim_indices: Sequence[int],
) -> List[AccuracyScore]:
    """Score asynchronous (periodic-snapshot) queries for the victims.

    All victims are answered by one ``pq.query(intervals=...)`` call, the
    compiled columnar plan; the scalar specification to compare it
    against is :func:`repro.experiments.runner.query_time_windows_scalar`.
    """
    indices = list(victim_indices)
    if not indices:
        return []
    intervals = [victim_interval(records[i]) for i in indices]
    estimates = [r.estimate for r in pq.query(intervals=intervals)]
    scores = []
    for index, estimate in zip(indices, estimates):
        truth = ground_truth_direct(taxonomy, records[index])
        scores.append(precision_recall(estimate, truth))
    return scores
