import math

import numpy as np
import pytest

import brute
from ulklab import screening as scr
from ulklab.inversion import InvertedPredictionVector


def make_ipv(target, probs, queries=0):
    probs = np.asarray(probs, dtype=np.float64)
    return InvertedPredictionVector(int(target), probs, float(probs.max()),
                                    float(probs[target]), queries)


def sharp_row(peak_class, d=10, peak=0.91):
    p = np.full(d, (1.0 - peak) / (d - 1))
    p[peak_class] = peak
    return p


# ---------------------------------------------------------------------------
# entropy


def test_entropy_hand_values():
    assert scr.entropy(np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-12)
    assert scr.entropy([0.0, 1.0, 0.0]) == 0.0
    assert scr.entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        scr.entropy(np.ones((2, 2)))
    with pytest.raises(ValueError):
        scr.entropy([0.5, -0.5, 1.0])


def test_entropy_range_on_random_distributions():
    rng = np.random.default_rng(51)
    for _ in range(200):
        d = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(d))
        h = scr.entropy(p)
        assert -1e-12 <= h <= math.log(d) + 1e-12


# ---------------------------------------------------------------------------
# threshold screen


def test_threshold_hand_case():
    values = [0.9] * 9 + [0.2]
    rep = scr.threshold_screen(values, list(range(10)), thr_alpha=1.0)
    assert rep.mu_max == pytest.approx(0.83)
    assert rep.sigma_max == pytest.approx(0.21)
    assert rep.theta == pytest.approx(0.62)
    assert rep.predicted == frozenset({9})


def test_threshold_identical_values_predict_nothing():
    rep = scr.threshold_screen([0.7] * 5, list(range(5)))
    assert rep.sigma_max == 0.0
    assert rep.theta == rep.mu_max
    assert rep.predicted == frozenset()


def test_threshold_alpha_zero_cuts_at_the_mean():
    rep = scr.threshold_screen([0.1, 0.9, 0.9], [0, 1, 2], thr_alpha=0.0)
    assert rep.theta == rep.mu_max
    assert rep.predicted == frozenset({0})


def test_threshold_prediction_is_shift_invariant():
    rng = np.random.default_rng(52)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        values = rng.uniform(size=n)
        alpha = float(rng.uniform(0.0, 2.0))
        shift = float(rng.normal(scale=3.0))
        a = scr.threshold_screen(values, list(range(n)), alpha)
        b = scr.threshold_screen(values + shift, list(range(n)), alpha)
        assert a.predicted == b.predicted
        assert b.theta == pytest.approx(a.theta + shift, abs=1e-9)
        assert b.sigma_max == pytest.approx(a.sigma_max, abs=1e-12)


def test_threshold_screen_rejects_bad_shapes():
    with pytest.raises(ValueError):
        scr.threshold_screen([0.5, 0.5], [0])
    with pytest.raises(ValueError):
        scr.threshold_screen([0.5], [0])


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_threshold_screen_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="thr_alpha must be finite"):
        scr.threshold_screen([0.5, 0.9], [0, 1], thr_alpha=alpha)


def test_threshold_criterion_reads_peaks_by_default():
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(9)]
    ipvs.append(make_ipv(9, np.full(10, 0.1)))
    rep = scr.threshold_criterion(ipvs)
    assert rep.predicted == frozenset({9})
    assert rep.values[9] == pytest.approx(0.1)


def test_threshold_criterion_target_prob_mode():
    # class 2's inversion peaked on the wrong class: max stays high but
    # the probability it grants its own target is low
    probs = sharp_row(0)
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(10)]
    ipvs[2] = make_ipv(2, probs)
    by_max = scr.threshold_criterion(ipvs)
    by_target = scr.threshold_criterion(ipvs, use_target_prob=True)
    assert by_max.predicted == frozenset()
    assert by_target.predicted == frozenset({2})


# ---------------------------------------------------------------------------
# 2-clustering


def test_cluster_rows_hand_case():
    rows = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.0, 5.1]])
    assign, sse = scr.cluster_rows(rows)
    assert assign.tolist() == [0, 0, 1, 1]
    assert sse == pytest.approx(0.005 + 0.005)


def test_cluster_rows_two_rows_split_apart():
    assign, sse = scr.cluster_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert assign.tolist() == [0, 1]
    assert sse == 0.0


def test_cluster_rows_canonical_first_row_label():
    rows = np.array([[9.0, 9.0], [0.0, 0.0], [9.1, 9.0], [0.1, 0.0]])
    assign, _ = scr.cluster_rows(rows)
    assert assign[0] == 0
    assert assign.tolist() == [0, 1, 0, 1]


def test_cluster_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        scr.cluster_rows(np.zeros(4))
    with pytest.raises(ValueError):
        scr.cluster_rows(np.zeros((1, 3)))


def test_exact_clustering_matches_exhaustive_minimum():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 6))
        rows = rng.normal(size=(n, d))
        assign, sse = scr.cluster_rows(rows)
        best_sse, best_parts = brute.best_two_partition_sse(rows)
        assert sse == pytest.approx(best_sse, rel=1e-9, abs=1e-12)
        mine = {frozenset(np.flatnonzero(assign == 0).tolist()),
                frozenset(np.flatnonzero(assign == 1).tolist())}
        assert mine == set(best_parts)


def test_lloyd_agrees_with_exact_on_separated_blobs():
    rng = np.random.default_rng(54)
    for _ in range(20):
        rows = np.concatenate([
            rng.normal(0.0, 0.05, size=(6, 3)),
            rng.normal(3.0, 0.05, size=(6, 3)),
        ])
        perm = rng.permutation(len(rows))
        rows = rows[perm]
        a_exact, sse_exact = scr._cluster_exact(rows)
        a_lloyd, sse_lloyd = scr._cluster_lloyd(rows)
        assert sse_lloyd == pytest.approx(sse_exact, rel=1e-9)
        same = np.array_equal(a_exact, a_lloyd)
        flipped = np.array_equal(a_exact, 1 - a_lloyd)
        assert same or flipped


def test_large_row_counts_take_the_lloyd_path():
    rng = np.random.default_rng(55)
    rows = np.concatenate([
        rng.normal(0.0, 0.05, size=(9, 4)),
        rng.normal(4.0, 0.05, size=(9, 4)),
    ])
    assert len(rows) > scr.EXACT_CLUSTER_LIMIT
    assign, _ = scr.cluster_rows(rows)
    assert assign.tolist() == [0] * 9 + [1] * 9


# ---------------------------------------------------------------------------
# entropy criterion


def test_entropy_criterion_flags_the_flat_vector():
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(9)]
    ipvs.append(make_ipv(9, np.full(10, 0.1)))
    rep = scr.entropy_criterion(ipvs)
    assert not rep.degenerate
    assert rep.predicted == frozenset({9})
    flat_cluster = rep.assignments[9]
    assert rep.h_bar[flat_cluster] > rep.h_bar[1 - flat_cluster]


def test_entropy_criterion_identical_rows_are_degenerate():
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(6)]
    rep = scr.entropy_criterion(ipvs)
    assert rep.degenerate
    assert rep.predicted == frozenset()
    assert rep.sse == 0.0
    assert rep.h_bar[0] == rep.h_bar[1]


def test_entropy_criterion_argmax_identity_mode():
    # the flagged flat-ish vector's own peak sits on class 0, while its
    # inversion target was class 7
    flat = np.full(10, 0.099)
    flat[0] = 0.109
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(10)]
    ipvs[7] = make_ipv(7, flat)
    assert scr.entropy_criterion(ipvs).predicted == frozenset({7})
    by_argmax = scr.entropy_criterion(ipvs, use_argmax_identity=True)
    assert by_argmax.predicted == frozenset({0})


def test_entropy_criterion_invariant_to_row_order_and_label_shuffle():
    rng = np.random.default_rng(56)
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(9)]
    ipvs.append(make_ipv(9, np.full(10, 0.1)))
    want = scr.entropy_criterion(ipvs).predicted
    for _ in range(10):
        shuffled = [ipvs[i] for i in rng.permutation(10)]
        assert scr.entropy_criterion(shuffled).predicted == want
    # permuting coordinates within each row leaves sorted rows unchanged
    permuted = [make_ipv(v.target, np.asarray(v.probs)[rng.permutation(10)])
                for v in ipvs]
    assert scr.entropy_criterion(permuted).predicted == want


def test_entropy_criterion_needs_two_vectors():
    with pytest.raises(ValueError):
        scr.entropy_criterion([make_ipv(0, [0.6, 0.4])])


def test_entropy_criterion_two_flat_vectors_both_flagged():
    ipvs = [make_ipv(t, sharp_row(t)) for t in range(8)]
    ipvs.append(make_ipv(8, np.full(10, 0.1)))
    near_flat = np.full(10, 0.098)
    near_flat[3] = 0.118
    ipvs.append(make_ipv(9, near_flat))
    rep = scr.entropy_criterion(ipvs)
    assert rep.predicted == frozenset({8, 9})
