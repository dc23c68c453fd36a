"""perfbench's output checks find the lab functions they read by name. A
rename in the lab must fail here, rather than leave those checks passing
with nothing recorded."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import instrument  # noqa: E402

from ulklab import inversion as inv  # noqa: E402
from ulklab.models import build, mlp_spec  # noqa: E402


def test_recorder_wraps_every_function_it_records(tmp_path):
    with checks.Recorder(tmp_path) as recorder:
        assert recorder._patches.missing == []


def test_tracer_times_the_whitebox_set_builder():
    # build_ipv_set("wb") must run through the traced invert_whitebox
    model = build(mlp_spec(6, 3, hidden=8), 0)
    cfg = inv.InversionConfigWB(k_inits=2, iterations=5, seed=0)
    with instrument.Tracer() as tracer:
        assert tracer.missing == []
        ipvs = inv.build_ipv_set("wb", model, cfg)
    assert [v.target for v in ipvs] == [0, 1, 2]
    assert tracer.metrics()["inversion.wb_s"] > 0
