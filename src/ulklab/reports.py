"""Attack outcome records and their on-disk CSV forms.

One AttackReport row captures one attack cell: which model was attacked,
what the attack predicted, what the truth was, and the resulting attack
success rate (ASR). ASR scores the predicted forgotten set against the
true one over all classes: each class counts as correct when membership
matches, so both false alarms and misses cost points.

Class-id sets travel as semicolon-joined sorted integers; readers raise
ReportFormatError on malformed files, with 1-based line numbers. The
writers end every row in CRLF, and the readers reject a file whose last
line has no line ending: a file cut inside a row, even inside its final
field. A cut exactly at a row boundary reads as the rows before it.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .inversion import InvertedPredictionVector

CSV_COLUMNS = ("run_id", "dataset", "model", "unlearn_method", "attack",
               "criterion", "n_forget", "predicted", "truth", "asr",
               "per_class", "seed", "config_hash", "wall_time")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_COVERAGE = 0.95


class ReportFormatError(ValueError):
    """A reports or prediction-vector CSV is truncated or malformed."""


def _check_ids(ids, n_classes: int, what: str) -> frozenset:
    out = frozenset(int(i) for i in ids)
    bad = sorted(i for i in out if not 0 <= i < n_classes)
    if bad:
        raise ValueError(f"{what} ids {bad} outside [0, {n_classes})")
    return out


def attack_success_rate(predicted, truth, n_classes: int) -> float:
    """Percent of classes whose forgotten/retained verdict is correct."""
    return 100.0 * per_class_flags(predicted, truth, n_classes).count("1") / n_classes


def per_class_flags(predicted, truth, n_classes: int) -> str:
    """'1'/'0' per class id: was that class's verdict correct."""
    predicted = _check_ids(predicted, n_classes, "predicted")
    truth = _check_ids(truth, n_classes, "truth")
    return "".join("1" if (i in predicted) == (i in truth) else "0"
                   for i in range(n_classes))


def join_ids(ids) -> str:
    return ";".join(str(i) for i in sorted(ids))


def split_ids(text: str) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(int(tok) for tok in text.split(";"))


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class AttackReport:
    """One attack cell's outcome; one CSV row."""

    run_id: str
    dataset: str
    model: str
    unlearn_method: str
    attack: str
    criterion: str
    n_forget: int
    predicted: frozenset
    truth: frozenset
    asr: float
    per_class: str
    seed: int
    config_hash: str
    wall_time: float

    def __post_init__(self):
        if self.n_forget != len(self.truth):
            raise ValueError(f"n_forget {self.n_forget} but truth has "
                             f"{len(self.truth)} classes")
        if not self.per_class or set(self.per_class) - {"0", "1"}:
            raise ValueError("per_class must be a non-empty string of 0s "
                             "and 1s")
        _check_ids(self.predicted, len(self.per_class), "predicted")
        _check_ids(self.truth, len(self.per_class), "truth")
        want = 100.0 * self.per_class.count("1") / len(self.per_class)
        if abs(self.asr - want) > 1e-9:
            raise ValueError(f"asr {self.asr} disagrees with per-class "
                             f"flags ({want})")

    def to_row(self) -> list:
        return [self.run_id, self.dataset, self.model, self.unlearn_method,
                self.attack, self.criterion, str(self.n_forget),
                join_ids(self.predicted), join_ids(self.truth),
                _fmt(self.asr), self.per_class, str(self.seed),
                self.config_hash, _fmt(self.wall_time)]


def attack_report(run_id: str, dataset: str, model: str, unlearn_method: str,
                  attack: str, criterion: str, predicted, truth,
                  n_classes: int, seed: int, config_hash: str,
                  wall_time: float) -> AttackReport:
    """Build a report row, deriving ASR and the per-class flags."""
    predicted = frozenset(int(i) for i in predicted)
    truth = frozenset(int(i) for i in truth)
    return AttackReport(
        run_id, dataset, model, unlearn_method, attack, criterion,
        len(truth), predicted, truth,
        attack_success_rate(predicted, truth, n_classes),
        per_class_flags(predicted, truth, n_classes),
        int(seed), config_hash, float(wall_time))


def write_reports(path: str, reports) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            writer.writerow(rep.to_row())
    return path


def _read_rows(path: str) -> list:
    """The CSV rows of ``path``. A last line without a closing line feed
    marks a file cut inside a row, or between a row's CR and LF, and
    raises ReportFormatError."""
    with open(path, newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if text and not text.endswith("\n"):
        raise ReportFormatError(f"{path} line {len(rows)}: truncated, the "
                                f"line has no line ending")
    return rows


def read_reports(path: str) -> list:
    rows = _read_rows(path)
    if not rows or rows[0] != list(CSV_COLUMNS):
        raise ReportFormatError(f"{path} line 1: expected header "
                                f"{','.join(CSV_COLUMNS)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ReportFormatError(f"{path} line {lineno}: {len(row)} "
                                    f"columns, expected {len(CSV_COLUMNS)}")
        try:
            out.append(AttackReport(
                row[0], row[1], row[2], row[3], row[4], row[5],
                int(row[6]), split_ids(row[7]), split_ids(row[8]),
                float(row[9]), row[10], int(row[11]), row[12],
                float(row[13])))
        except ValueError as exc:
            raise ReportFormatError(f"{path} line {lineno}: {exc}") from exc
    return out


def mean_asr(reports) -> float:
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to average")
    return float(np.mean([r.asr for r in reports]))


def bootstrap_mean(values, seed: int = 0):
    """Percentile bootstrap interval, at ``BOOTSTRAP_COVERAGE``, for the
    mean of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("bootstrap needs at least two values")
    gen = np.random.default_rng(seed)
    idx = gen.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))
    means = values[idx].mean(axis=1)
    tail = 100.0 * (1.0 - BOOTSTRAP_COVERAGE) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# inverted-prediction-vector CSV


def ipv_columns(n_classes: int) -> list:
    return ["class"] + [f"p{i}" for i in range(n_classes)] \
        + ["max_prob", "fitness", "queries"]


def write_ipv_csv(path: str, ipvs) -> str:
    ipvs = list(ipvs)
    if not ipvs:
        raise ValueError("no prediction vectors to write")
    n = len(ipvs[0].probs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ipv_columns(n))
        for v in ipvs:
            if len(v.probs) != n:
                raise ValueError("prediction vectors disagree on class count")
            writer.writerow([str(v.target)]
                            + [_fmt(p) for p in v.probs]
                            + [_fmt(v.max_prob), _fmt(v.fitness),
                               str(v.queries)])
    return path


def read_ipv_csv(path: str) -> list:
    rows = _read_rows(path)
    if not rows or len(rows[0]) < 4 or rows[0][0] != "class":
        raise ReportFormatError(f"{path} line 1: not a prediction-vector header")
    n = len(rows[0]) - 4
    if rows[0] != ipv_columns(n):
        raise ReportFormatError(f"{path} line 1: expected header "
                                f"{','.join(ipv_columns(n))}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ReportFormatError(f"{path} line {lineno}: {len(row)} "
                                    f"columns, expected {len(rows[0])}")
        try:
            probs = np.array([float(v) for v in row[1:1 + n]])
            out.append(InvertedPredictionVector(
                int(row[0]), probs, float(row[1 + n]), float(row[2 + n]),
                int(row[3 + n])))
        except ValueError as exc:
            raise ReportFormatError(f"{path} line {lineno}: {exc}") from exc
    return out
