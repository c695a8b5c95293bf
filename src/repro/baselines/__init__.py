"""Baseline measurement systems the paper compares against.

* :class:`~repro.baselines.hashpipe.HashPipe` — pipelined heavy-hitter
  table (Sivaraman et al., SOSR 2017).
* :class:`~repro.baselines.flowradar.FlowRadar` — encoded flowsets with
  single-cell decode (Li et al., NSDI 2016).
* :class:`~repro.baselines.sketches.CountMinSketch` — the classic sketch
  substrate (referenced but not directly compared: sketches cannot return
  flow IDs).
* :class:`~repro.baselines.interval.FixedIntervalEstimator` — the
  fixed-reset-interval + prorating harness the paper applies to make the
  baselines answer interval queries.
"""

from repro.baselines.conquest import ConQuest
from repro.baselines.flowradar import FlowRadar
from repro.baselines.hashpipe import HashPipe
from repro.baselines.interval import FixedIntervalEstimator
from repro.baselines.sketches import CountMinSketch

__all__ = [
    "HashPipe",
    "FlowRadar",
    "ConQuest",
    "CountMinSketch",
    "FixedIntervalEstimator",
]
