"""Logistic regression: gradients, convergence, invariances, persistence."""

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    LinearClassifier,
    evaluate,
    featurize,
    gen_picture_frames,
    get_ansatz,
    loss_and_gradient,
    sample_machine,
    train,
)
from qks.logistic import _grad_and_curvature, _hessian_vector


def toy_data(n=60, seed=0, separable=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    if separable:
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    else:
        logits = 1.2 * x[:, 0] - 0.7 * x[:, 2]
        y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    if y.min() == y.max():  # pragma: no cover - seeds chosen to avoid this
        y[0] = 1 - y[0]
    return x, y


def test_gradient_matches_finite_differences():
    x, y = toy_data(n=40, seed=1)
    rng = np.random.default_rng(2)
    lam = 0.05
    eps = 1e-6
    for _ in range(10):
        w = rng.normal(size=3)
        b = float(rng.normal())
        _, gw, gb = loss_and_gradient(w, b, x, y, lam)
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            up, _, _ = loss_and_gradient(w + step, b, x, y, lam)
            dn, _, _ = loss_and_gradient(w - step, b, x, y, lam)
            fd = (up - dn) / (2 * eps)
            assert abs(gw[j] - fd) <= 1e-6 * max(1.0, abs(fd))
        up, _, _ = loss_and_gradient(w, b + eps, x, y, lam)
        dn, _, _ = loss_and_gradient(w, b - eps, x, y, lam)
        fd = (up - dn) / (2 * eps)
        assert abs(gb - fd) <= 1e-6 * max(1.0, abs(fd))


def test_train_separable():
    x, y = toy_data(n=100, seed=3, separable=True)
    model = train(x, y, reg_lambda=1e-4, max_iter=500)
    assert evaluate(model, x, y) == 0.0


def test_loss_history_non_increasing():
    x, y = toy_data(n=80, seed=4)
    model = train(x, y, max_iter=300)
    h = model.loss_history
    assert len(h) >= 2
    assert all(a >= b for a, b in zip(h, h[1:]))


def test_convergence_reaches_tolerance():
    x, y = toy_data(n=200, seed=5)
    model = train(x, y, reg_lambda=0.1, tol=1e-8)
    # well-conditioned problem: gradient actually reaches tol well before the cap
    assert len(model.loss_history) - 1 < 10_000
    _, gw, gb = loss_and_gradient(
        model.weights, model.intercept, x, y, model.reg_lambda
    )
    assert max(np.abs(gw).max(), abs(gb)) <= 1e-8


def test_deterministic():
    x, y = toy_data(n=70, seed=6)
    m1 = train(x, y)
    m2 = train(x, y)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.intercept == m2.intercept


def test_default_lambda_is_one_over_m():
    x, y = toy_data(n=50, seed=7)
    assert train(x, y, max_iter=5).reg_lambda == pytest.approx(1 / 50)
    assert train(x, y, reg_lambda=0.25, max_iter=5).reg_lambda == 0.25


def test_scale_equivariance_at_lambda_zero():
    x, y = toy_data(n=120, seed=8)
    c = 7.5
    m1 = train(x, y, reg_lambda=0.0, tol=1e-10)
    m2 = train(x * c, y, reg_lambda=0.0, tol=1e-10)
    assert np.allclose(m2.weights * c, m1.weights, rtol=1e-4, atol=1e-7)
    assert np.array_equal(m1.predict(x), m2.predict(x * c))


def test_packed_and_dense_agree():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 64, seed=9)
    train_ds, test_ds = gen_picture_frames(40, 20, seed=1)
    fm = featurize(m, train_ds.inputs)
    dense = fm.to_dense().astype(np.float64)
    model_packed = train(fm, train_ds.labels, max_iter=200)
    model_dense = train(dense, train_ds.labels, max_iter=200)
    assert np.array_equal(model_packed.weights, model_dense.weights)
    assert model_packed.intercept == model_dense.intercept
    test_fm = featurize(m, test_ds.inputs)
    assert np.array_equal(
        model_packed.predict(test_fm),
        model_dense.predict(test_fm.to_dense().astype(np.float64)),
    )


def test_tie_goes_to_class_zero():
    model = LinearClassifier(weights=np.zeros(2), intercept=0.0, reg_lambda=1.0)
    preds = model.predict(np.array([[1.0, 2.0], [-3.0, 4.0]]))
    assert preds.tolist() == [0, 0]


def test_input_validation():
    x, y = toy_data(n=20, seed=10)
    with pytest.raises(ValueError, match="both classes"):
        train(x, np.zeros(20, dtype=int))
    with pytest.raises(ValueError, match="0 or 1"):
        train(x, np.full(20, 2))
    with pytest.raises(ValueError, match="labels"):
        train(x, y[:-1])
    with pytest.raises(ValueError, match="finite"):
        train(x * np.inf, y)
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="reg_lambda"):
            train(x, y, reg_lambda=lam)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            train(x, y, tol=tol)
    with pytest.raises(ValueError, match="2-D"):
        train(x[:, 0], y)
    x3 = np.eye(3)
    for labels, match in (([2, 5, -1], "0 or 1"), ([0, 1], "labels"),
                          ([0.5, 1, 0], "0 or 1"), ([np.nan, 1, 0], "0 or 1")):
        with pytest.raises(ValueError, match=match):
            loss_and_gradient(np.zeros(3), 0.0, x3, labels, 0.1)
    # The loss is defined on one class; only train needs both.
    loss, _, _ = loss_and_gradient(np.zeros(3), 0.0, x3, [1, 1, 1], 0.1)
    assert loss == pytest.approx(np.log(2.0))


def test_evaluate():
    model = LinearClassifier(weights=np.array([1.0, 0.0]), intercept=0.0,
                             reg_lambda=0.0)
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 5.0], [-2.0, 1.0]])
    y = np.array([1, 0, 0, 0])
    assert evaluate(model, x, y) == 0.25
    with pytest.raises(ValueError, match="label count"):
        evaluate(model, x, y[:-1])
    nan_row = [[np.nan, 0.0]]
    with pytest.raises(ValueError, match="finite"):
        model.predict(nan_row)
    with pytest.raises(ValueError, match="finite"):
        evaluate(model, nan_row, [0])


def test_save_load_roundtrip(tmp_path):
    x, y = toy_data(n=50, seed=11)
    model = train(x, y, reg_lambda=0.02, max_iter=100)
    path = tmp_path / "model.json"
    model.save(path)
    back = LinearClassifier.load(path)
    assert np.array_equal(back.weights, model.weights)
    assert back.intercept == model.intercept
    assert back.reg_lambda == model.reg_lambda
    assert np.array_equal(back.predict(x), model.predict(x))


def _frames_features():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 64, seed=0)
    train_ds, _ = gen_picture_frames(40, 20, seed=0)
    return featurize(m, train_ds.inputs), train_ds.labels


@pytest.mark.parametrize("lam", [0.05, 0.0])
def test_hessian_vector_matches_finite_differences(lam):
    x, y = toy_data(n=40, seed=12)
    y_pm = 2.0 * y - 1.0
    rng = np.random.default_rng(13)
    eps = 1e-5
    for _ in range(5):
        theta = rng.normal(size=4)  # (w, b)
        v = rng.normal(size=4)
        margins = y_pm * (x @ theta[:-1] + theta[-1])
        _, curv = _grad_and_curvature(margins, theta, x, y_pm, lam)
        hv = _hessian_vector(x, curv, lam, v)
        up, dn = theta + eps * v, theta - eps * v
        _, up_w, up_b = loss_and_gradient(up[:-1], up[-1], x, y, lam)
        _, dn_w, dn_b = loss_and_gradient(dn[:-1], dn[-1], x, y, lam)
        fd = np.append((up_w - dn_w) / (2 * eps), (up_b - dn_b) / (2 * eps))
        assert np.abs(hv - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_frames_features_converge_to_tol():
    fm, labels = _frames_features()
    model = train(fm, labels)
    fit = model.fit
    assert fit.converged is True
    assert fit.stop_reason == "tol"
    assert fit.iterations <= 30
    assert fit.iterations == len(model.loss_history) - 1
    assert fit.grad_inf <= 1e-8
    assert fit.hessian_vector_products >= fit.iterations


def test_max_iter_stop_is_reported():
    fm, labels = _frames_features()
    model = train(fm, labels, max_iter=1)
    assert model.fit.converged is False
    assert model.fit.stop_reason == "max_iter"
    assert model.fit.iterations == 1
    assert model.fit.grad_inf > 1e-8


def test_separable_at_lambda_zero_stops_with_finite_weights():
    x, y = toy_data(n=100, seed=3, separable=True)
    model = train(x, y, reg_lambda=0.0, max_iter=200)
    assert model.fit.stop_reason in ("tol", "max_iter", "no_descent")
    assert np.isfinite(model.weights).all()
    assert np.isfinite(model.intercept)
    assert np.isfinite(model.loss_history).all()
    assert evaluate(model, x, y) == 0.0


def test_constructed_model_has_no_fit_record():
    model = LinearClassifier(np.zeros(2), 0.0, 1.0)
    assert model.fit is None
    assert model.loss_history == []
