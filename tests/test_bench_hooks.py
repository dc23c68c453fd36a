"""perfbench's output checks find the lab functions they read by name. A
rename in the lab must fail here, rather than leave those checks passing
with nothing recorded."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402


def test_recorder_wraps_every_function_it_records(tmp_path):
    with checks.Recorder(tmp_path) as recorder:
        assert recorder._patches.missing == []
