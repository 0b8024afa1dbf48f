"""Logistic regression: gradients, convergence, invariances, persistence."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qks import (
    DataFormatError,
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
from qks import logistic
from qks.features import FeatureMatrix, _pack_rows
from qks.logistic import (
    _as_matrix,
    _grad_and_curvature,
    _exact_product,
    _hessian_product,
    _hessian_vector,
)


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


def test_line_search_halves_an_overshooting_newton_step(monkeypatch):
    # At this scale and lambda, a unit Newton step overshoots; the Armijo
    # search halves it, and the fit still reaches the tolerance.
    x, y = toy_data(n=100, seed=3, separable=True)
    margins, calls = logistic._margins, []
    monkeypatch.setattr(
        logistic, "_margins", lambda *args: calls.append(1) or margins(*args)
    )
    model = train(1e3 * x, y, reg_lambda=1e-3, max_iter=200)
    assert model.fit.stop_reason == "tol"
    # One _margins call at the zero model, then one per trial step.
    assert len(calls) - 1 > model.fit.iterations
    h = model.loss_history
    assert all(a >= b for a, b in zip(h, h[1:]))


def test_steepest_descent_fallback_when_cg_makes_no_step(monkeypatch):
    # Two separable points at lambda = 0 with the least positive tol: the
    # weight grows by about 1 per Newton step until, near 249, p . Hp
    # underflows to 0 in CG, which then returns no step, and train falls
    # back to -grad. That step is below the weight's rounding, so the
    # weights stay put and the fit stops rather than spinning to the cap.
    x, y = np.array([[-1.0], [1.0]]), np.array([0, 1])
    newton, unusable = logistic._newton_direction, []

    def spy(xm, curv, lam, g, tol):
        step, products = newton(xm, curv, lam, g, tol)
        unusable.append(not g @ step < 0)
        return step, products

    monkeypatch.setattr(logistic, "_newton_direction", spy)
    model = train(x, y, reg_lambda=0.0, tol=5e-324, max_iter=300)
    assert any(unusable) and not unusable[0]
    assert model.fit.stop_reason == "no_descent" and model.fit.iterations == 248
    assert np.isfinite(model.weights).all() and evaluate(model, x, y) == 0.0


def test_fallback_on_float32_bits_stops_where_float64_did():
    # The same fit on 0/1 inputs, so held as float32: H v is scaled into
    # float32's range, so curvature near 1e-100 does not flush to zero and
    # the fit runs as far as in float64 (247 steps; unscaled, it stopped at
    # 50 with grad_inf 2.6e-23).
    x = [[0.0], [1.0]]
    assert _as_matrix(x).dtype == np.float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train(x, [0, 1], reg_lambda=0.0, tol=5e-324)
    assert model.fit.stop_reason == "no_descent"
    assert abs(model.fit.iterations - 247) <= 2
    assert model.fit.grad_inf <= 1e-100


def test_inputs_that_overflow_the_fit_are_a_data_error():
    # Finite, but the Hessian-vector products overflow; before, the fit
    # leaked RuntimeWarnings and returned the zero model as no_descent.
    x, y = toy_data(n=100, seed=3, separable=True)
    for scale in (1e150, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"\|x\| = 3\.323e\+"):
                train(scale * x, y)


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
    # 2.5 would run 3 Newton steps and True would run 1.
    for max_iter in (2.5, 1.0, True, np.float64(2)):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            train(x, y, max_iter=max_iter)
    assert train(x, y, max_iter=np.int64(1)).fit.iterations == 1
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


def test_only_zero_one_matrices_are_float32():
    fm, _ = _frames_features()
    bits = fm.to_dense()
    assert _as_matrix(fm).dtype == np.float32
    assert np.array_equal(_as_matrix(bits.astype(np.float64)), _as_matrix(fm))
    assert _as_matrix(bits * 2.0).dtype == np.float64
    assert _as_matrix(bits - 0.5).dtype == np.float64


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_float32_hessian_vector_matches_float64(scale):
    fm, labels = _frames_features()
    x32, x64 = _as_matrix(fm), fm.to_dense().astype(np.float64)
    y_pm = 2.0 * labels - 1.0
    rng = np.random.default_rng(14)
    theta = 0.3 * rng.normal(size=x64.shape[1] + 1)
    margins = y_pm * (x64 @ theta[:-1] + theta[-1])
    _, curv = _grad_and_curvature(margins, theta, x64, y_pm, 0.01)
    for _ in range(3):
        v = scale * rng.normal(size=theta.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hv32 = _hessian_vector(x32, curv, 0.01, v)
        hv64 = _hessian_vector(x64, curv, 0.01, v)
        assert np.abs(hv32 - hv64).max() <= 1e-6 * np.abs(hv64).max()


def test_hessian_vectors_stay_independent():
    # Each _hessian_vector call makes its own vectors, so a result is not
    # overwritten by the next call. A CG solve reuses one set for all its
    # products, and each gives the bits of a fresh call, whatever the
    # buffers held before.
    fm, labels = _frames_features()
    x32 = _as_matrix(fm)
    y_pm = 2.0 * labels - 1.0
    rng = np.random.default_rng(15)
    for x in (x32, x32.astype(np.float64)):
        theta = 0.3 * rng.normal(size=x.shape[1] + 1)
        margins = y_pm * (x @ theta[:-1] + theta[-1])
        _, curv = _grad_and_curvature(margins, theta, x, y_pm, 0.01)
        vs = rng.normal(size=(3, theta.size))
        first = _hessian_vector(x, curv, 0.01, vs[0])
        kept = first.copy()
        second = _hessian_vector(x, curv, 0.01, vs[1])
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        solve = _hessian_product(x, curv, 0.01)
        for v in (vs[2], vs[0], vs[1]):
            assert np.array_equal(solve(v), _hessian_vector(x, curv, 0.01, v))


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


def test_cg_floor_stops_at_tol_within_the_bound_of_a_fit_without_it(monkeypatch):
    # CG's residual floor of tol / 2 against the plain forcing term (a floor
    # of 0), on the quarter frames fit. Both stop at tol, and their weights
    # agree within ||w1 - w2||_2 <= 2 tol (sqrt(d) + max_i ||x_i||_2) / lambda:
    # for gradients g1, g2 of infinity norm <= tol, dg = g1 - g2 = H' dtheta
    # with H' = X1^T D' X1 + lambda P the mean Hessian on the segment, and
    # Cauchy-Schwarz on the D'-weighted sum of X1 dtheta leaves
    # lambda ||dw||^2 <= (dg_w - dg_b xbar) . dw, where xbar is a
    # D'-weighted mean of the rows.
    train_ds, test_ds = gen_picture_frames(200, 50, seed=0)
    m = sample_machine(get_ansatz("cnot2"), EncodingStructure.split(2), 1.0, 1000, seed=0)
    fm, fte = featurize(m, train_ds.inputs), featurize(m, test_ds.inputs)
    floored = train(fm, train_ds.labels)
    monkeypatch.setattr(logistic, "_CG_TOL_FRACTION", 0.0)
    plain = train(fm, train_ds.labels)
    assert floored.fit.stop_reason == plain.fit.stop_reason == "tol"
    assert floored.fit.hessian_vector_products < plain.fit.hessian_vector_products
    x = fm.to_dense()
    tol, lam = 1e-8, floored.reg_lambda
    bound = 2 * tol * (np.sqrt(x.shape[1]) + np.sqrt(x.sum(axis=1).max())) / lam
    assert np.linalg.norm(floored.weights - plain.weights) <= bound
    assert np.array_equal(floored.predict(fte), plain.predict(fte))


def test_mean_over_no_rows_is_a_value_error():
    # Both used to warn "Mean of empty slice" and return NaN.
    machine = sample_machine(get_ansatz("cnot2"), EncodingStructure.split(2), 1.0, 8, seed=0)
    model = LinearClassifier(np.zeros(16), 0.0, 0.1)
    packed = featurize(machine, np.zeros((0, 2)))
    for x in (packed, np.zeros((0, 16)), np.full((0, 16), 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x has no rows"):
                evaluate(model, x, [])
            with pytest.raises(ValueError, match="^x has no rows"):
                loss_and_gradient(model.weights, 0.0, x, [], 0.1)


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


def _truncated(v, terms):
    """v rounded to the split's grid, the nearest multiple of 2**(e - b*K).

    b = 24 - bitlength(terms - 1) bits per digit, K = ceil(53 / b) digits,
    and 2**e > max|v| >= 2**(e - 1); ties go to the even multiple.
    """
    b = 24 - (terms - 1).bit_length()
    _, e = np.frexp(np.abs(v).max(initial=0.0))
    shift = b * -(-53 // b) - int(e)
    return np.ldexp(np.rint(np.ldexp(v, shift)), -shift)


def _signed_log_uniform(rng, size, low, high):
    return rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(low, high, size)


def _split_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))

    def bits(rows, cols):
        return (rng.random((rows, cols)) < 0.5).astype(float)

    if name == "wide":  # entries from 1e-300 to 1e300
        x = bits(50, 400)
        return x, _signed_log_uniform(rng, 400, -300, 300), \
            _signed_log_uniform(rng, 50, -300, 300)
    if name == "on-the-grid":  # 41-bit dyadic entries: nothing is truncated
        x = bits(60, 300)
        return x, rng.integers(-2**40, 2**40, 300) * 2.0**-30, \
            rng.integers(-2**40, 2**40, 60) * 2.0**-30
    if name == "zeros":
        return bits(30, 40), np.zeros(40), np.zeros(30)
    if name == "single-nonzero":
        w, c = np.zeros(40), np.zeros(30)
        w[17], c[3] = 3.7e-250, -2.9e280
        return bits(30, 40), w, c
    if name == "rows-2**16":
        return bits(2**16, 3), rng.normal(size=3), \
            _signed_log_uniform(rng, 2**16, -20, 20)
    if name == "full-digits":  # every digit sum reaches 2**24 exactly
        return np.ones((2**16, 2)), np.full(2, 1.0 - 2.0**-53), \
            np.full(2**16, -(1.0 - 2.0**-53))
    raise AssertionError(name)


@pytest.mark.parametrize("name", ["wide", "on-the-grid", "zeros",
                                  "single-nonzero", "rows-2**16",
                                  "full-digits"])
def test_split_products_equal_fsum_of_the_truncated_vector(name):
    x, w, c = _split_case(name)
    xm = _as_matrix(x)
    assert xm.dtype == np.float32
    wt, ct = _truncated(w, x.shape[1]), _truncated(c, x.shape[0])
    if name not in ("wide", "rows-2**16"):
        assert np.array_equal(wt, w) and np.array_equal(ct, c)
    ones = x.astype(bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xw, xtc = _exact_product(xm, w), _exact_product(xm.T, c)
    assert xw.tolist() == [math.fsum(wt[row]) for row in ones]
    assert xtc.tolist() == [math.fsum(ct[col]) for col in ones.T]


_BLAS_PROBE = """
import hashlib
import numpy as np
from qks import LinearClassifier, loss_and_gradient
rng = np.random.default_rng(21)
x = (rng.random((320, 1500)) < 0.5).astype(np.float32)
y = rng.integers(0, 2, 320)
w = rng.normal(size=1500)
loss, gw, gb = loss_and_gradient(w, 0.25, x, y, 0.01)
scores = LinearClassifier(w, 0.25, 0.01).decision_function(x)
parts = (np.array([loss, gb]), gw, scores)
print(hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest())
"""
_BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")


def _blas_probe(**setting):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_SETTINGS}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env={**env, **setting},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("setting", [{"OPENBLAS_NUM_THREADS": "1"},
                                     {"OPENBLAS_CORETYPE": "Prescott"}],
                         ids=lambda s: "=".join(*s.items()))
def test_loss_gradient_and_scores_do_not_depend_on_blas(setting):
    assert _blas_probe(**setting) == _blas_probe()


def test_as_matrix_unpacks_every_row_block():
    rng = np.random.default_rng(22)
    bits = (rng.random((700, 130)) < 0.5).astype(np.uint8)
    fm = FeatureMatrix(_pack_rows(bits), num_qubits=2, episodes=65)
    xm = _as_matrix(fm)
    assert xm.dtype == np.float32 and xm.flags.c_contiguous
    assert np.array_equal(xm, bits)


def test_more_terms_than_the_split_allows_stay_float64():
    # A product over more than 2**23 terms could pass 2**24 in float32.
    assert _as_matrix(np.zeros((1, 2**23))).dtype == np.float32
    assert _as_matrix(np.zeros((1, 2**23 + 1))).dtype == np.float64


def test_evaluate_checks_labels_and_products_check_width():
    model = LinearClassifier(weights=np.array([1.0, 0.0]), intercept=0.0,
                             reg_lambda=0.0)
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    # Both used to read an error of 1.0.
    for labels in ([2, 7], ["1", "0"]):
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate(model, x, labels)
    for width in (1, 3):
        with pytest.raises(ValueError, match=f"{width} columns.*2 weights"):
            model.predict(np.zeros((2, width)))
        with pytest.raises(ValueError, match=f"{width} columns.*2 weights"):
            model.predict(np.ones((2, width)))
        with pytest.raises(ValueError, match=f"{width} columns.*2 weights"):
            loss_and_gradient(model.weights, 0.0, np.ones((2, width)), [0, 1], 0.1)


_MODEL = {"weights": [0.5, -1.0], "intercept": 0.25, "lambda": 0.1}


@pytest.mark.parametrize("field, value", [
    ("weights", [[0.5, -1.0]]),
    ("weights", [0.5, float("nan")]),
    ("weights", ["0.5", 1.0]),
    ("weights", 0.5),
    ("intercept", float("nan")),
    ("intercept", "0.25"),
    ("intercept", True),
    ("lambda", -0.1),
    ("lambda", float("inf")),
    ("weights", None),
    ("intercept", None),
    ("lambda", None),
])
def test_load_rejects_a_malformed_field(tmp_path, field, value):
    payload = dict(_MODEL)
    if value is None:
        del payload[field]
    else:
        payload[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=f"'{field}'"):
        LinearClassifier.load(path)


def test_load_rejects_a_file_that_is_not_a_model(tmp_path):
    path = tmp_path / "model.json"
    for text in ("[1, 2]", "{", ""):
        path.write_text(text)
        with pytest.raises(DataFormatError, match="model"):
            LinearClassifier.load(path)
    path.write_text(json.dumps(_MODEL))
    model = LinearClassifier.load(path)
    assert model.weights.tolist() == [0.5, -1.0] and model.reg_lambda == 0.1
