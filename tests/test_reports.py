import numpy as np
import pytest

from ulklab import reports as rep
from ulklab.inversion import InvertedPredictionVector


def sample_report(run_id="h:rt-n1-s0", predicted=(3,), truth=(3,),
                  n_classes=10, seed=0, wall=0.25):
    return rep.attack_report(run_id, "blobs-s1000", "mlp-32x64x10", "rt",
                             "invert-wb", "threshold", predicted, truth,
                             n_classes, seed, "h", wall)


def test_asr_hand_examples():
    assert rep.attack_success_rate({3}, {3}, 10) == 100.0
    assert rep.attack_success_rate(set(), {3}, 10) == 90.0
    assert rep.attack_success_rate({1, 2, 7}, {1, 2, 3}, 10) == 80.0
    assert rep.attack_success_rate({0, 1}, {8, 9}, 10) == 60.0


def test_asr_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        rep.attack_success_rate({10}, {3}, 10)
    with pytest.raises(ValueError):
        rep.attack_success_rate({3}, {-1}, 10)


def test_per_class_flags():
    assert rep.per_class_flags({3, 5}, {3}, 10) == "1111101111"
    assert rep.per_class_flags(set(), set(), 4) == "1111"


def test_id_join_split_round_trip():
    assert rep.join_ids({7, 3, 5}) == "3;5;7"
    assert rep.join_ids(set()) == ""
    assert rep.split_ids("3;5;7") == frozenset({3, 5, 7})
    assert rep.split_ids("") == frozenset()


def test_report_builder_derives_consistent_fields():
    r = sample_report(predicted=(3, 5), truth=(3,))
    assert r.n_forget == 1
    assert r.asr == 90.0
    assert r.per_class == "1111101111"


def test_report_validation():
    good = sample_report()
    with pytest.raises(ValueError):
        rep.AttackReport(good.run_id, good.dataset, good.model, "rt",
                         "invert-wb", "threshold", 2, good.predicted,
                         good.truth, good.asr, good.per_class, 0, "h", 0.1)
    with pytest.raises(ValueError):
        rep.AttackReport(good.run_id, good.dataset, good.model, "rt",
                         "invert-wb", "threshold", 1, good.predicted,
                         good.truth, 80.0, good.per_class, 0, "h", 0.1)
    with pytest.raises(ValueError):
        rep.AttackReport(good.run_id, good.dataset, good.model, "rt",
                         "invert-wb", "threshold", 1, frozenset({11}),
                         good.truth, 100.0, good.per_class, 0, "h", 0.1)
    with pytest.raises(ValueError):
        rep.AttackReport(good.run_id, good.dataset, good.model, "rt",
                         "invert-wb", "threshold", 1, good.predicted,
                         good.truth, 100.0, "11x1111111", 0, "h", 0.1)


def test_report_csv_round_trip(tmp_path):
    rows = [sample_report(),
            sample_report(run_id="h:ft-n2-s1", predicted=(1, 4),
                          truth=(3, 5), seed=1, wall=1.5),
            sample_report(run_id="h:ng-n1-s2", predicted=(), truth=(9,),
                          seed=2, wall=0.125)]
    path = rep.write_reports(str(tmp_path / "reports.csv"), rows)
    assert rep.read_reports(path) == rows


def test_report_reader_flags_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n")
    with pytest.raises(ValueError, match="line 1"):
        rep.read_reports(str(path))


def test_report_reader_flags_bad_rows_with_line_numbers(tmp_path):
    good = sample_report()
    path = rep.write_reports(str(tmp_path / "r.csv"), [good, good])
    lines = open(path).read().splitlines()
    short = lines[:2] + [",".join(lines[2].split(",")[:-1])]
    path2 = tmp_path / "short.csv"
    path2.write_text("\n".join(short) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        rep.read_reports(str(path2))
    broken = lines[:1] + [lines[1].replace("100.0", "99.0", 1)] + lines[2:]
    path3 = tmp_path / "broken.csv"
    path3.write_text("\n".join(broken) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        rep.read_reports(str(path3))


def test_mean_asr():
    rows = [sample_report(), sample_report(predicted=(3, 5))]
    assert rep.mean_asr(rows) == pytest.approx(95.0)
    with pytest.raises(ValueError):
        rep.mean_asr([])


def test_bootstrap_mean_basics():
    lo, hi = rep.bootstrap_mean([70.0] * 10)
    assert lo == hi == 70.0
    values = [100.0] * 20 + [0.0] * 5
    lo, hi = rep.bootstrap_mean(values, seed=1)
    assert 0.0 < lo < np.mean(values) < hi < 100.0
    again = rep.bootstrap_mean(values, seed=1)
    assert (lo, hi) == again
    with pytest.raises(ValueError):
        rep.bootstrap_mean([1.0])


def test_bootstrap_lower_bound_separates_signal_from_chance():
    signal = [100.0, 90.0, 100.0, 80.0, 100.0, 90.0]
    lo, _ = rep.bootstrap_mean(signal, seed=0)
    assert lo > 50.0
    coin = [0.0, 100.0, 40.0, 60.0, 50.0, 50.0]
    lo, hi = rep.bootstrap_mean(coin, seed=0)
    assert lo < 50.0 < hi


def make_ipv(target, probs, queries=0):
    probs = np.asarray(probs, dtype=np.float64)
    return InvertedPredictionVector(target, probs, float(probs.max()),
                                    float(probs[target]), queries)


def test_ipv_csv_round_trip(tmp_path):
    ipvs = [make_ipv(0, [0.9, 0.05, 0.05], queries=100),
            make_ipv(1, [0.2, 0.5, 0.3], queries=101),
            make_ipv(2, [1 / 3, 1 / 3, 1 / 3], queries=0)]
    path = rep.write_ipv_csv(str(tmp_path / "ipv.csv"), ipvs)
    back = rep.read_ipv_csv(path)
    assert len(back) == 3
    for a, b in zip(ipvs, back):
        assert a.target == b.target
        assert a.probs.tobytes() == b.probs.tobytes()
        assert a.queries == b.queries
        assert a.fitness == b.fitness


def test_ipv_csv_header_and_row_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="line 1"):
        rep.read_ipv_csv(str(path))
    ipvs = [make_ipv(0, [0.6, 0.4])]
    good = rep.write_ipv_csv(str(tmp_path / "ok.csv"), ipvs)
    lines = open(good).read().splitlines()
    corrupt = [lines[0], lines[1].replace("0.6", "0.9", 1)]
    path2 = tmp_path / "corrupt.csv"
    path2.write_text("\n".join(corrupt) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        rep.read_ipv_csv(str(path2))


@pytest.mark.parametrize("row, match", [
    ("1,-0.5,1.5,1.5,0.5,0", r"line 3: probs must lie in \[0, 1\]"),
    ("1,nan,0.5,nan,0.5,0", "line 3: probs must be finite"),
], ids=["out-of-range", "nan"])
def test_ipv_csv_rejects_impossible_probabilities(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"class,p0,p1,max_prob,fitness,queries\n0,0.6,0.4,0.6,0.6,0\n{row}\n")
    with pytest.raises(ValueError, match=match):
        rep.read_ipv_csv(str(path))


def test_ipv_csv_rejects_mixed_class_counts(tmp_path):
    ipvs = [make_ipv(0, [0.6, 0.4]), make_ipv(1, [0.2, 0.3, 0.5])]
    with pytest.raises(ValueError):
        rep.write_ipv_csv(str(tmp_path / "x.csv"), ipvs)


@pytest.mark.parametrize("kind", ["reports", "ipv"])
def test_readers_reject_every_cut_inside_a_row(tmp_path, kind):
    if kind == "reports":
        rows = [sample_report(), sample_report(run_id="h:ft-n2-s1", predicted=(1, 4),
                                               truth=(3, 5), seed=1, wall=1.5)]
        path = rep.write_reports(str(tmp_path / "full.csv"), rows)
        read = rep.read_reports
    else:
        rows = [make_ipv(0, [0.9, 0.05, 0.05], queries=100),
                make_ipv(1, [0.2, 0.5, 0.3], queries=101)]
        path = rep.write_ipv_csv(str(tmp_path / "full.csv"), rows)
        read = rep.read_ipv_csv
    raw = open(path, "rb").read()
    ends = [i + 2 for i in range(len(raw)) if raw[i:i + 2] == b"\r\n"]
    assert len(ends) == len(rows) + 1 and ends[-1] == len(raw)
    cut_path = tmp_path / "cut.csv"
    for cut in range(len(raw)):
        cut_path.write_bytes(raw[:cut])
        if cut in ends:
            # a cut at a row boundary leaves a well-formed shorter file
            got = read(str(cut_path))
            want = rows[:ends.index(cut)]
            if kind == "reports":
                assert got == want
            else:
                assert [(v.target, v.probs.tobytes(), v.max_prob, v.fitness, v.queries)
                        for v in got] == \
                    [(v.target, v.probs.tobytes(), v.max_prob, v.fitness, v.queries)
                     for v in want]
        else:
            with pytest.raises(ValueError, match="line"):
                read(str(cut_path))


def _malformed_csvs(tmp_path):
    """(reader, file text) for each malformed file the tests above reject,
    and for every cut of a well-formed file that falls inside a row."""
    reports = open(rep.write_reports(
        str(tmp_path / "r.csv"), [sample_report(), sample_report(seed=1)]),
        newline="").read()
    ipv = open(rep.write_ipv_csv(
        str(tmp_path / "i.csv"), [make_ipv(0, [0.6, 0.4]),
                                  make_ipv(1, [0.2, 0.8])]), newline="").read()
    r_lines, i_lines = reports.split("\r\n"), ipv.split("\r\n")
    cases = [
        (rep.read_reports, ""),
        (rep.read_reports, "nope,nope\n"),
        (rep.read_reports, "\n".join(r_lines[:2] + [r_lines[2].rsplit(",", 1)[0]]) + "\n"),
        (rep.read_reports, reports.replace("100.0", "99.0", 1)),
        (rep.read_reports, reports.replace(",0,h,", ",zero,h,", 1)),
        (rep.read_ipv_csv, ""),
        (rep.read_ipv_csv, "a,b,c\n"),
        (rep.read_ipv_csv, ipv.replace("p1", "q1", 1)),
        (rep.read_ipv_csv, "\n".join(i_lines[:2] + [i_lines[2] + ",0"]) + "\n"),
        (rep.read_ipv_csv, ipv.replace("0.6", "0.9", 1)),
        (rep.read_ipv_csv, "class,p0,p1,max_prob,fitness,queries\n1,-0.5,1.5,1.5,0.5,0\n"),
        (rep.read_ipv_csv, "class,p0,p1,max_prob,fitness,queries\n1,nan,0.5,nan,0.5,0\n"),
    ]
    for read, text in ((rep.read_reports, reports), (rep.read_ipv_csv, ipv)):
        raw = text.encode()
        ends = {i + 2 for i in range(len(raw)) if raw[i:i + 2] == b"\r\n"} | {0}
        cases += [(read, raw[:cut].decode()) for cut in range(len(raw))
                  if cut not in ends]
    return cases


def test_every_reader_rejection_is_a_report_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    cases = _malformed_csvs(tmp_path)
    assert len(cases) > 200
    for read, text in cases:
        path.write_bytes(text.encode())
        with pytest.raises(rep.ReportFormatError, match=r"bad\.csv line \d+: "):
            read(str(path))
    assert issubclass(rep.ReportFormatError, ValueError)
