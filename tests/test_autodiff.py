import math
from types import SimpleNamespace

import numpy as np
import pytest

import brute
from ulklab import autodiff as ad
from gradcheck import FD_TOL, check_case, fd_grad, max_rel_err, random_conv_case, random_mlp_case


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(6):
        layers, params, x, y = random_mlp_case(rng)
        err = check_case(layers, params, x, y, lam_l2=1e-4)
        assert err < FD_TOL, f"worst rel err {err:.3e}"


def test_conv_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(2):
        layers, params, x, y = random_conv_case(rng)
        err = check_case(layers, params, x, y, lam_l2=1e-4, lam_tv=1e-4)
        assert err < FD_TOL, f"worst rel err {err:.3e}"


def test_batched_param_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    layers, params, _, _ = random_mlp_case(rng)
    din = layers[0].in_dim
    t = layers[-1].out_dim
    bx = rng.normal(size=(5, din))
    by = rng.integers(0, t, size=5)
    err = check_case(layers, params, bx[0], int(by[0]), batch=(bx, by))
    assert err < FD_TOL


def _identity_net(t):
    """One dense layer whose logits equal its input."""
    return [ad.Dense(t, t)], [{"W": np.eye(t), "b": np.zeros(t)}]


def test_cross_entropy_uniform_logits_is_log_t():
    for t in (2, 5, 10):
        ce = ad.softmax_cross_entropy(np.zeros(t), np.asarray(0))
        assert ce.item() == pytest.approx(math.log(t), abs=1e-15)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    z = np.array([1.0, -2.0, 0.5])
    grad = ad.grad_input(*_identity_net(3), z, 2)
    expect = ad.softmax(z)
    expect[2] -= 1.0
    assert np.allclose(grad, expect, atol=1e-12)
    # the batch path's mean CE gives each row's gradient / N; the bias sums them
    layers, params = _identity_net(3)
    bundle, _ = ad.grad_params(layers, params, np.stack([z, z]), np.array([2, 2]))
    assert np.allclose(bundle.param_grads[0]["b"], expect, atol=1e-12)


def test_saturated_logits_give_vanishing_gradient():
    grad = ad.grad_input(*_identity_net(3), np.array([40.0, 0.0, 0.0]), 0)
    assert np.max(np.abs(grad)) <= 1e-6


def test_softmax_rows_sum_to_one_and_stay_open_interval():
    rng = np.random.default_rng(14)
    z = rng.uniform(-20.0, 20.0, size=(50, 7))
    p = ad.softmax(z)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_mean_reduction_is_sum_over_n():
    rng = np.random.default_rng(15)
    z = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    mean = ad.softmax_cross_entropy(z, y, reduction="mean").item()
    total = ad.softmax_cross_entropy(z, y, reduction="sum").item()
    assert mean == pytest.approx(total / 6.0, rel=1e-12)
    with pytest.raises(ValueError, match="reduction"):
        ad.softmax_cross_entropy(z, y, reduction="max")


def test_tv_hand_example():
    img = np.array([[0.0, 1.0], [0.0, 1.0]])[:, :, None]
    assert ad.tv_penalty(img).item() == pytest.approx(2.0)


def test_tv_zero_iff_constant():
    assert ad.tv_penalty(np.full((4, 4, 2), 0.7)).item() == 0.0
    bumped = np.full((4, 4, 2), 0.7)
    bumped[1, 2, 0] += 0.3
    assert ad.tv_penalty(bumped).item() > 0.0


def test_l2_term_dominates_when_net_is_zero():
    # zero weights make CE flat in x, so the input grad is exactly 2*x
    layers = [ad.Dense(2, 2)]
    params = [{"W": np.zeros((2, 2)), "b": np.zeros(2)}]
    g = ad.grad_input(layers, params, np.array([3.0, -2.0]), 0, lam_l2=1.0)
    assert np.allclose(g, [6.0, -4.0], atol=1e-12)


def test_relu_subgradient_at_zero_is_zero():
    # a unit upstream gradient passes only where x > 0, so not at x == 0
    out = ad.forward([ad.Relu()], [{}], np.array([0.0, -1.0, 2.0]))
    assert np.array_equal(out.backward(np.ones(3)), [0.0, 0.0, 1.0])


def test_maxpool_tie_routes_to_first_window_position():
    out = ad.forward([ad.MaxPool2()], [{}], np.full((1, 2, 2, 1), 5.0))
    assert out.data.shape == (1, 1, 1, 1)
    expect = np.zeros((1, 2, 2, 1))
    expect[0, 0, 0, 0] = 10.0
    assert np.array_equal(out.backward(2.0 * out.data), expect)


def test_maxpool_drops_odd_edges():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(1, 5, 5, 2))
    out = ad.forward([ad.MaxPool2()], [{}], x)
    assert out.data.shape == (1, 2, 2, 2)
    assert np.array_equal(out.data, x[:, :4, :4, :].reshape(1, 2, 2, 2, 2, 2)
                          .transpose(0, 1, 3, 2, 4, 5).reshape(1, 2, 2, 4, 2).max(axis=3))


def test_conv_same_padding_preserves_spatial_shape():
    rng = np.random.default_rng(17)
    layers = [ad.Conv2D(3, 3, 2, 4, padding="same")]
    params = [{"K": rng.normal(size=(3, 3, 2, 4)), "b": np.zeros(4)}]
    out = ad.forward(layers, params, rng.normal(size=(2, 8, 8, 2)))
    assert out.data.shape == (2, 8, 8, 4)


def test_conv_matches_direct_sum_on_tiny_input():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 3, 3, 1))
    k = rng.normal(size=(3, 3, 1, 1))
    out = ad.forward([ad.Conv2D(3, 3, 1, 1)], [{"K": k, "b": np.array([0.25])}], x)
    expect = float((x[0, :, :, 0] * k[:, :, 0, 0]).sum()) + 0.25
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
@pytest.mark.parametrize("shift", [0.0, 700.0, -700.0])
def test_cross_entropy_matches_reference(reduction, shift):
    # one shared exp for the loss and the softmax: the same bits as two
    rng = np.random.default_rng(30)
    cases = [(rng.normal(size=(9, 7)) * 3.0 + shift, rng.integers(0, 7, size=9)),
             (rng.normal(size=5) + shift, np.asarray(2)),
             (np.array([[shift, -shift, 0.0], [shift, shift, shift]]), np.array([1, 2]))]
    for z, y in cases:
        loss, grad = ad._cross_entropy(z, y, reduction)
        want_loss, want_grad = brute.cross_entropy_reference(z, y, reduction)
        assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes() and grad.shape == z.shape
        assert np.asarray(ad.softmax_cross_entropy(z, y, reduction)).tobytes() == \
            np.asarray(want_loss).tobytes()


def test_apply_update_descent_ascent_and_identity():
    params = [{"W": np.array([[1.0]]), "b": np.array([1.0])}]
    grads = [{"W": np.array([[1.0]]), "b": np.array([0.0])}]
    down, delta = ad.apply_update(params, grads, lr=0.05, direction="descent")
    assert down[0]["W"][0, 0] == pytest.approx(0.95)
    assert down[0]["b"][0] == pytest.approx(1.0)
    assert delta[0]["W"][0, 0] == pytest.approx(-0.05)
    up, delta = ad.apply_update(params, grads, lr=0.05, direction="ascent")
    assert up[0]["W"][0, 0] == pytest.approx(1.05)
    assert delta[0]["W"][0, 0] == pytest.approx(0.05)
    assert params[0]["W"][0, 0] == 1.0  # inputs untouched


def test_apply_update_rejects_bad_inputs():
    params = [{"W": np.ones((2, 2))}]
    grads = [{"W": np.ones((2, 2))}]
    with pytest.raises(ValueError):
        ad.apply_update(params, grads, lr=0.0)
    with pytest.raises(ValueError):
        ad.apply_update(params, grads, lr=0.1, direction="sideways")
    with pytest.raises(ad.ShapeMismatch):
        ad.apply_update(params, [{"W": np.ones(3)}], lr=0.1)


def test_shape_mismatch_error_names_the_layer():
    layers = [ad.Dense(4, 3), ad.Relu(), ad.Dense(3, 2)]
    params = [{"W": np.zeros((4, 3)), "b": np.zeros(3)}, {},
              {"W": np.zeros((3, 2)), "b": np.zeros(2)}]
    with pytest.raises(ad.ShapeMismatch, match="layer 0"):
        ad.forward(layers, params, np.zeros(5))


def test_invalid_class_index_raises():
    logits = np.zeros(4)
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_cross_entropy(logits, np.asarray(4))
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_cross_entropy(logits, np.asarray(-1))


def test_forward_rejects_non_finite_input_but_not_params():
    layers, params = _identity_net(2)
    with pytest.raises(ValueError, match="non-finite"):
        ad.forward(layers, params, np.array([1.0, np.nan]))
    # diverged parameters surface as non-finite logits, not as an error
    params[0]["b"] = np.array([np.inf, 0.0])
    assert not np.isfinite(ad.forward(layers, params, np.ones(2)).data).all()


def test_backward_targets_agree():
    rng = np.random.default_rng(20)
    layers, params, x, y = random_mlp_case(rng)
    out = ad.forward(layers, params, x[None])
    g = rng.normal(size=out.data.shape)
    assert out.backward(g).shape == (1, x.size)
    grads = out.backward(g, wrt="params")
    assert [{k: v.shape for k, v in p.items()} for p in grads] == \
        [{k: v.shape for k, v in p.items()} for p in params]
    for wrt in ("logits", "both"):
        with pytest.raises(ValueError, match="wrt"):
            out.backward(g, wrt=wrt)


def test_loss_and_grad_input_matches_its_parts():
    rng = np.random.default_rng(21)
    layers, params, x, y = random_mlp_case(rng)
    xs = np.stack([x, rng.normal(size=x.shape), 0.5 * x])
    ys = np.array([y, 0, layers[-1].out_dim - 1])
    loss, grad = ad.loss_and_grad_input(layers, params, xs, ys, lam_l2=1e-3)
    assert loss.shape == (3,) and grad.shape == xs.shape
    for row, t, row_loss, row_grad in zip(xs, ys, loss, grad):
        assert row_loss == ad.loss_total(layers, params, row, t, lam_l2=1e-3).item()
        assert np.array_equal(row_grad, ad.grad_input(layers, params, row, t, lam_l2=1e-3))
    with pytest.raises(ValueError, match="non-negative"):
        ad.loss_total(layers, params, x, y, lam_l2=-1.0)


def test_rows_mode_is_bit_equal_to_lone_rows():
    # every row of a rows-mode batch carries the bits of that row run alone
    # as a batch of one: logits, input gradient and the inversion loss
    rng = np.random.default_rng(22)
    # one output channel from eight, then one input channel to twelve: the
    # shapes where one product over all rows changes a row's bits on OpenBLAS
    deep = [ad.Conv2D(3, 3, 8, 1), ad.Relu(), ad.Conv2D(3, 3, 1, 12), ad.Flatten(),
            ad.Dense(9 * 9 * 12, 3)]
    deep_params = [{"K": rng.normal(size=(3, 3, 8, 1)) / 8.0, "b": np.full(1, 0.5)}, {},
                   {"K": rng.normal(size=(3, 3, 1, 12)) / 3.0, "b": np.zeros(12)}, {},
                   {"W": rng.normal(size=(972, 3)) / 30.0, "b": np.zeros(3)}]
    cases = (random_mlp_case(rng), random_conv_case(rng),
             (deep, deep_params, np.zeros((13, 13, 8)), 0))
    for layers, params, x, _ in cases:
        lam_tv = 1e-3 if x.ndim == 3 else 0.0
        net = SimpleNamespace(layers=layers, params=params)
        xs = rng.uniform(size=(33,) + x.shape)
        ys = rng.integers(0, layers[-1].out_dim, size=len(xs))
        out = ad.forward(layers, params, xs, rows=True)
        g = rng.normal(size=out.data.shape)
        dx = out.backward(g)
        loss, grad = ad.loss_and_grad_input(layers, params, xs, ys, 1e-4, lam_tv)
        for i in range(len(xs)):
            lone = ad.forward(layers, params, xs[i:i + 1])
            assert out.data[i].tobytes() == lone.data[0].tobytes()
            assert dx[i].tobytes() == lone.backward(g[i:i + 1])[0].tobytes()
            want_loss, want_grad = brute.lone_inversion_loss(net, xs[i], ys[i], 1e-4, lam_tv)
            assert (loss[i], grad[i].tobytes()) == (want_loss, want_grad.tobytes())


def test_forward_replay_is_bit_identical():
    rng = np.random.default_rng(19)
    layers, params, x, _ = random_mlp_case(rng)
    a = ad.forward(layers, params, x).data
    b = ad.forward(layers, params, x).data
    assert a.tobytes() == b.tobytes()


def test_fd_oracle_agrees_with_itself_on_quadratic():
    # sanity-check the oracle on a function with a known derivative
    g = fd_grad(lambda v: float((v ** 2).sum()), np.array([3.0, -2.0, 0.5]))
    assert max_rel_err(g, [6.0, -4.0, 1.0]) < 1e-8
