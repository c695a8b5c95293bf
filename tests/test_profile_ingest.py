"""tools/profile_ingest.py: the stage table and its JSON form."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_json_smoke(capsys):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from profile_ingest import DRIVE_STAGES, HARNESS_STAGES, main
    finally:
        sys.path.pop(0)
    argv = ["--workload", "ws", "--duration-ms", "5", "--m0", "10", "--alpha", "1"]
    assert main(argv + ["--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["workload"] == "ws" and result["packets"] > 0
    assert result["peak_rss_mb"] > 0
    stages = [row["stage"] for row in result["stages"]]
    assert stages[:-1] == [*HARNESS_STAGES, *DRIVE_STAGES]
    drive = [row for row in result["stages"] if row["pct_drive"] is not None]
    assert abs(sum(row["pct_drive"] for row in drive) - 100.0) < 1e-6
    assert main(argv) == 0
    assert "peak RSS" in capsys.readouterr().out
