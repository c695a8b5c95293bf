"""Tests for the Count-Min sketch substrate."""

import random

import pytest

from repro.baselines.sketches import CountMinSketch
from repro.switch.packet import FlowKey


def flow(i):
    return FlowKey.from_strings(
        "10.0.%d.%d" % (i // 250, i % 250 + 1), "10.1.0.1", 5000 + (i % 60000), 80
    )


class TestCountMin:
    def test_exact_when_sparse(self):
        cms = CountMinSketch(width=1024, depth=4)
        cms.update(flow(0), 10)
        cms.update(flow(1), 20)
        assert cms.estimate(flow(0)) == 10
        assert cms.estimate(flow(1)) == 20

    def test_never_underestimates(self):
        cms = CountMinSketch(width=64, depth=3)
        rng = random.Random(1)
        truth = {}
        for _ in range(3000):
            f = flow(rng.randrange(400))
            truth[f] = truth.get(f, 0) + 1
            cms.update(f)
        for f, count in truth.items():
            assert cms.estimate(f) >= count

    def test_reset(self):
        cms = CountMinSketch(width=64, depth=2)
        cms.update(flow(0))
        cms.reset()
        assert cms.estimate(flow(0)) == 0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(depth=0)
