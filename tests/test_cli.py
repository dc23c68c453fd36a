import json
import os

import numpy as np
import pytest

from ulklab import cli
from ulklab import reports as rep
from ulklab.data import load_dataset
from ulklab.models import load_checkpoint


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    """A small end-to-end workspace: dataset, clean model, retrained model."""
    root = tmp_path_factory.mktemp("cliwalk")
    paths = {
        "data": str(root / "d.npz"),
        "clean": str(root / "clean.ulkm"),
        "rt": str(root / "rt.ulkm"),
        "root": root,
    }
    assert cli.main(["data", "gen", "--out", paths["data"], "--seed", "41",
                     "--classes", "5", "--per-class", "50", "--dim", "12",
                     "--separation", "4.0"]) == 0
    assert cli.main(["train", "--data", paths["data"], "--out",
                     paths["clean"], "--seed", "0", "--epochs", "10"]) == 0
    assert cli.main(["unlearn", "--method", "rt", "--data", paths["data"],
                     "--forget", "2", "--out", paths["rt"], "--seed", "0",
                     "--epochs", "10"]) == 0
    return paths


def test_data_gen_writes_loadable_dataset(walk):
    ds = load_dataset(walk["data"])
    assert ds.x.shape == (250, 12)
    assert ds.n_classes == 5
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0


def test_train_writes_accurate_checkpoint(walk):
    model = load_checkpoint(walk["clean"])
    ds = load_dataset(walk["data"])
    assert model.accuracy(ds.x, ds.y) >= 0.95


def test_unlearn_rt_forgets_class(walk):
    model = load_checkpoint(walk["rt"])
    ds = load_dataset(walk["data"])
    forget_idx = ds.class_indices(2)
    keep_idx = np.flatnonzero(ds.y != 2)
    assert model.accuracy(ds.x[forget_idx], ds.y[forget_idx]) <= 0.2
    assert model.accuracy(ds.x[keep_idx], ds.y[keep_idx]) >= 0.9


def test_unlearn_rejects_non_integer_forget_ids(walk, tmp_path, capsys):
    code = cli.main(["unlearn", "--method", "rt", "--data", walk["data"],
                     "--forget", "2,x", "--out", str(tmp_path / "x.ulkm")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--forget must be comma-joined integers, got '2,x'" in err
    assert not (tmp_path / "x.ulkm").exists()


def test_unlearn_ft_needs_base_model(walk, tmp_path, capsys):
    code = cli.main(["unlearn", "--method", "ft", "--data", walk["data"],
                     "--forget", "2", "--out", str(tmp_path / "x.ulkm")])
    assert code == 1
    assert "needs --model" in capsys.readouterr().err


def test_attack_param_diff_verdict(walk, tmp_path, capsys):
    out = str(tmp_path / "diff.json")
    code = cli.main(["attack", "param-diff", "--model", walk["rt"],
                     "--data", walk["data"], "--forget", "2", "--seed", "0",
                     "--k", "10", "--m-models", "20", "--json", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["predicted"] == [2]
    assert payload["asr"] == 100.0
    assert payload["criterion"] == "tree"
    assert json.loads(capsys.readouterr().out) == payload


def test_attack_param_dot_kmeans_verdict(walk, tmp_path):
    out = str(tmp_path / "dot.json")
    code = cli.main(["attack", "param-dot", "--model", walk["rt"],
                     "--data", walk["data"], "--forget", "2", "--seed", "0",
                     "--k", "10", "--m-models", "20", "--screen", "kmeans",
                     "--json", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["criterion"] == "kmeans"
    assert 2 in payload["predicted"]


@pytest.fixture(scope="module")
def ipv_csv(walk, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ipv") / "ipv.csv")
    assert cli.main(["attack", "invert-wb", "--model", walk["rt"],
                     "--out", path, "--seed", "0"]) == 0
    return path


def test_attack_invert_wb_writes_ipv_csv(ipv_csv):
    ipvs = rep.read_ipv_csv(ipv_csv)
    assert [v.target for v in ipvs] == [0, 1, 2, 3, 4]
    assert all(v.queries == 0 for v in ipvs)
    peaks = [v.max_prob for v in ipvs]
    assert peaks[2] < min(p for i, p in enumerate(peaks) if i != 2)


def test_attack_invert_bb_counts_queries(walk, tmp_path):
    path = str(tmp_path / "bb.csv")
    assert cli.main(["attack", "invert-bb", "--model", walk["rt"],
                     "--out", path, "--seed", "0", "--population", "8",
                     "--generations", "10"]) == 0
    ipvs = rep.read_ipv_csv(path)
    assert [v.queries for v in ipvs] == [8 + 10 * 6 + 1] * 5


def test_screen_threshold_json(ipv_csv, tmp_path, capsys):
    out = str(tmp_path / "thr.json")
    assert cli.main(["screen", "--ipv", ipv_csv, "--criterion", "threshold",
                     "--alpha", "1.0", "--json", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["predicted"] == [2]
    assert payload["theta"] == pytest.approx(
        payload["mu_max"] - payload["sigma_max"])
    capsys.readouterr()


def test_screen_entropy_json(ipv_csv, capsys):
    assert cli.main(["screen", "--ipv", ipv_csv,
                     "--criterion", "entropy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicted"] == [2]
    assert not payload["degenerate"]
    assert len(payload["assignments"]) == 5


def test_screen_missing_file_fails_cleanly(capsys):
    assert cli.main(["screen", "--ipv", "/nonexistent/x.csv",
                     "--criterion", "entropy"]) == 1
    assert "error:" in capsys.readouterr().err


def test_screen_corrupt_csv_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("class,p0,p1,max_prob,fitness,queries\n"
                    "0,0.9,0.4,0.9,0.9,0\n")
    assert cli.main(["screen", "--ipv", str(path),
                     "--criterion", "entropy"]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("row, args, message", [
    ("1,-0.5,1.5,1.5,0.5,0", [], "line 3: probs must lie in [0, 1]"),
    ("1,nan,0.5,nan,0.5,0", [], "line 3: probs must be finite"),
    ("1,0.3,0.7,0.7,0.5,0", ["--alpha", "nan"], "thr_alpha must be finite"),
], ids=["out-of-range", "nan", "alpha-nan"])
def test_screen_rejects_impossible_input(tmp_path, capsys, row, args, message):
    path = tmp_path / "ipv.csv"
    path.write_text(f"class,p0,p1,max_prob,fitness,queries\n0,0.6,0.4,0.6,0.6,0\n{row}\n")
    assert cli.main(["screen", "--ipv", str(path), "--criterion", "threshold",
                     *args]) == 1
    assert message in capsys.readouterr().err


def test_train_on_corrupt_dataset_fails_cleanly(walk, tmp_path, capsys):
    raw = open(walk["data"], "rb").read()
    bad = tmp_path / "bad.npz"
    bad.write_bytes(raw[:len(raw) // 2])
    assert cli.main(["train", "--data", str(bad), "--out",
                     str(tmp_path / "m.ulkm")]) == 1
    assert "not a readable dataset archive" in capsys.readouterr().err


def test_train_on_non_finite_dataset_fails_before_training(walk, tmp_path, capsys,
                                                         monkeypatch):
    ds = load_dataset(walk["data"])
    x = ds.x.copy()
    x[7, 3] = np.nan
    bad = tmp_path / "nan.npz"
    np.savez(bad, x=x, y=ds.y, n_classes=np.int64(ds.n_classes),
             split=np.str_(ds.split), filtered=np.bool_(ds.filtered))
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
    assert cli.main(["train", "--data", str(bad), "--out",
                     str(tmp_path / "m.ulkm")]) == 1
    assert "error: non-finite features in row 7" in capsys.readouterr().err
    assert not (tmp_path / "m.ulkm").exists()


@pytest.mark.parametrize("forget, message", [
    ("9", "forget classes [9] outside [0,5)"),
    ("0,1,2,3,4", "forget set must be a strict subset"),
], ids=["out-of-range", "every-class"])
def test_attack_param_validates_forget_set_before_any_work(walk, capsys, monkeypatch,
                                                           forget, message):
    monkeypatch.setattr(cli.pa, "train_aux_models",
                        lambda *a, **k: pytest.fail("aux heads trained"))
    for kind in ("param-dot", "param-diff"):
        assert cli.main(["attack", kind, "--model", walk["rt"], "--data",
                         walk["data"], "--forget", forget]) == 1
        assert message in capsys.readouterr().err


def test_run_and_report_round_trip(tmp_path, capsys):
    code = cli.main(["run", "--set", "attack=guess",
                     "--set", "screen.criterion=none",
                     "--set", "seeds=0,1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    run_dir = [ln.split(" -> ")[1] for ln in out.splitlines()
               if " -> " in ln][0]
    csv_path = os.path.join(run_dir, "reports.csv")
    assert cli.main(["report", "--csv", csv_path]) == 0
    table = capsys.readouterr().out
    assert "guess" in table
    assert "overall mean ASR" in table


def test_run_surfaces_bad_config(capsys, tmp_path):
    assert cli.main(["run", "--set", "attack=beam",
                     "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_model_dataset_mismatch_is_rejected(walk, tmp_path, capsys):
    other = str(tmp_path / "other.npz")
    assert cli.main(["data", "gen", "--out", other, "--seed", "7",
                     "--classes", "5", "--per-class", "30",
                     "--dim", "9"]) == 0
    assert cli.main(["attack", "param-diff", "--model", walk["rt"],
                     "--data", other, "--forget", "2"]) == 1
    assert "expects inputs" in capsys.readouterr().err
