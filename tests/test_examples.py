"""Every script under ``examples/`` runs, and prints the verdict it claims.

``tools/reachability.py`` counts the examples as entry points, so each
one must be executed here: a new example without an entry in
:data:`VERDICTS` fails, and so does one whose printed numbers no longer
support its story.
"""

import re
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _number(out, pattern):
    match = re.search(pattern, out)
    assert match, f"no line matches {pattern!r}"
    return float(match.group(1))


def _accurate(out):
    assert _number(out, r"precision=([\d.]+)") >= 0.9
    assert _number(out, r"recall=([\d.]+)") >= 0.9


def _burst_case_study(out):
    assert "the paper's headline queue-monitor result" in out
    assert "did NOT reproduce" not in out


def _incast(out):
    assert "Diagnosis: a synchronized fan-in" in out


def _microburst(out):
    assert _number(out, r"Burst flows account for (\d+)%") >= 50
    _accurate(out)


def _multi_port(out):
    assert "tracked ports: [0, 1] (port 2 ignored)" in out


def _scheduling_policies(out):
    _accurate(out)
    high = _number(out, r"\(class 0\): (\d+) standing")
    low = _number(out, r"\(class 1\): (\d+) standing")
    assert low > high


#: Each example's own verdict, checked against what it prints.
VERDICTS = {
    "burst_case_study.py": _burst_case_study,
    "incast_diagnosis.py": _incast,
    "microburst_diagnosis.py": _microburst,
    "multi_port.py": _multi_port,
    "quickstart.py": _accurate,
    "scheduling_policies.py": _scheduling_policies,
}


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_prints_its_verdict(path, capsys):
    assert path.name in VERDICTS, f"{path.name} has no verdict to check"
    runpy.run_path(str(path), run_name="__main__")
    VERDICTS[path.name](capsys.readouterr().out)
