"""Tests for the ASCII figure renderers."""

import pytest

from repro.experiments.figures import timeline


class TestTimeline:
    def test_empty(self):
        assert timeline([], []) == "(no data)"

    def test_renders_peak(self):
        times = list(range(0, 1_000_000, 10_000))
        values = [10] * 50 + [100] * 50
        art = timeline(times, values, buckets=20, height=5)
        lines = art.splitlines()
        assert len(lines) == 7  # height + axis + labels
        # The top row only covers the second (tall) half.
        top = lines[0].split("|", 1)[1]
        assert "#" in top[10:]
        assert "#" not in top[:9]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            timeline([1, 2], [1])

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            timeline([1], [1], buckets=0)

    def test_single_point(self):
        art = timeline([5], [3])
        assert "#" in art

