"""L2-regularized binary logistic regression, trained by truncated Newton-CG.

The model is deliberately linear and nothing more: features do all the
lifting, the classifier only draws a hyperplane. Training minimizes

    (1/M) sum_i log(1 + exp(-y_i (w . x_i + b))) + (lambda/2) ||w||^2

with labels y in {-1, +1} internally ({0, 1} at the boundary) and the
intercept unpenalized. The fit works on one parameter vector
theta = (w, b), the intercept last. The optimizer is a truncated Newton
method on the primal, after Lin, Weng & Keerthi, "Trust region Newton method
for logistic regression" (JMLR 2008). Each outer step solves the Newton
system H s = -g in theta approximately by conjugate gradients. CG needs only
Hessian-vector products

    H v = X1^T (D * (X1 v)) + lambda P v,    X1 = [X, 1],  P = diag(1, ..., 1, 0)

with curvature weights D_i = sigma(m_i) (1 - sigma(m_i)) / M taken once per
accepted step from the margins m, so neither X1 nor the (d+1) x (d+1)
Hessian is ever formed.
A backtracking (Armijo) line search from the unit step keeps the loss
sequence non-increasing. The whole procedure is deterministic, and the
returned model records how it stopped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import FeatureMatrix

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


def _as_matrix(x) -> np.ndarray:
    """The float64 design matrix: 2-D and finite.

    A FeatureMatrix holds 0/1 bits by construction, so only an array is
    scanned for non-finite values.
    """
    if isinstance(x, FeatureMatrix):
        return x.to_dense().astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if not np.isfinite(x).all():
        raise ValueError("design matrix must be finite")
    return x


def _as_labels(y, rows: int) -> np.ndarray:
    """One 0/1 label per row, as float64."""
    y = np.asarray(y)
    if y.shape != (rows,):
        raise ValueError(f"expected {rows} labels, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.float64)


def check_fit_options(reg_lambda: float | None, tol: float, max_iter: int) -> None:
    """Raise ValueError unless :func:`train` accepts these options.

    ``reg_lambda`` is None (for 1/M) or finite and >= 0, ``tol`` is finite
    and > 0, and ``max_iter`` is >= 1.
    """
    if reg_lambda is not None and not 0 <= float(reg_lambda) < np.inf:
        raise ValueError(f"reg_lambda must be finite and >= 0, got {reg_lambda}")
    if not (0 < tol < np.inf and max_iter >= 1):
        raise ValueError("tol must be finite and > 0, and max_iter >= 1")


@dataclass(frozen=True)
class FitRecord:
    """How a call to :func:`train` ended.

    ``stop_reason`` is ``"tol"`` (the gradient's infinity norm reached the
    tolerance), ``"max_iter"`` (the Newton step cap was hit first) or
    ``"no_descent"`` (the line search found no decrease, which happens only
    at the limits of floating point). ``grad_inf`` is the gradient's
    infinity norm at the returned weights.
    """

    iterations: int
    stop_reason: str
    grad_inf: float
    converged: bool
    hessian_vector_products: int


@dataclass
class LinearClassifier:
    """Trained weights, intercept, and the lambda they were fit with.

    A model returned by :func:`train` also carries ``loss_history`` (the loss
    at each accepted iterate, starting from the zero model) and ``fit``; a
    model built directly or loaded from disk has neither.
    """

    weights: np.ndarray
    intercept: float
    reg_lambda: float
    loss_history: list[float] = field(default_factory=list)
    fit: FitRecord | None = None

    def decision_function(self, x) -> np.ndarray:
        return _as_matrix(x) @ self.weights + self.intercept

    def predict(self, x) -> np.ndarray:
        """Predicted {0, 1} labels; a score of exactly 0 goes to class 0."""
        return (self.decision_function(x) > 0).astype(np.int64)

    def save(self, path: str | Path) -> None:
        payload = {
            "weights": self.weights.tolist(),
            "intercept": float(self.intercept),
            "lambda": float(self.reg_lambda),
        }
        Path(path).write_text(json.dumps(payload) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "LinearClassifier":
        payload = json.loads(Path(path).read_text())
        return cls(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            intercept=float(payload["intercept"]),
            reg_lambda=float(payload["lambda"]),
        )


def _margins(params, x, y_pm) -> np.ndarray:
    return y_pm * (x @ params[:-1] + params[-1])


def _loss_from_margins(margins, params, reg_lambda) -> float:
    # log(1 + exp(-m)) via logaddexp stays finite for any margin
    loss = float(np.logaddexp(0.0, -margins).mean())
    w = params[:-1]
    return loss + 0.5 * reg_lambda * float(w @ w)


def _grad_and_curvature(margins, params, x, y_pm, reg_lambda):
    """The gradient at ``params`` and the curvature weights D.

    Both come from one e = exp(-|m|), which cannot overflow: the loss
    derivative needs sigmoid(-m), which is e / (1 + e) for m >= 0 and
    1 / (1 + e) below, and D_i = sigmoid(m_i)(1 - sigmoid(m_i)) / M is
    e / ((1 + e)^2 M) for either sign.
    """
    e = np.exp(-np.abs(margins))
    rows = margins.shape[0]
    coef = (-y_pm / rows) * (np.where(margins >= 0, e, 1.0) / (1.0 + e))
    grad = np.append(x.T @ coef + reg_lambda * params[:-1], coef.sum())
    return grad, e / ((1.0 + e) ** 2 * rows)


def _hessian_vector(x, curv, reg_lambda, v):
    """H v for the curvature weights ``curv``, without forming H."""
    u = curv * (x @ v[:-1] + v[-1])
    return np.append(x.T @ u + reg_lambda * v[:-1], u.sum())


def _newton_direction(x, curv, reg_lambda, g):
    """Truncated CG on H s = -g; returns (s, Hessian-vector products).

    CG stops once the residual is below min(0.5, sqrt(|g|)) |g|, at
    non-positive curvature, or after d + 1 steps.
    """
    r = -g
    p = r.copy()
    s = np.zeros_like(g)
    rr = float(r @ r)
    gnorm = np.sqrt(rr)
    cg_tol = min(0.5, np.sqrt(gnorm)) * gnorm
    products = 0
    for _ in range(g.size):
        if np.sqrt(rr) <= cg_tol:
            break
        h = _hessian_vector(x, curv, reg_lambda, p)
        products += 1
        php = float(p @ h)
        if not php > 0:
            break
        alpha = rr / php
        s += alpha * p
        r -= alpha * h
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return s, products


def loss_and_gradient(
    weights: np.ndarray,
    intercept: float,
    x: np.ndarray,
    y01: np.ndarray,
    reg_lambda: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean logistic loss and its gradient.

    Returns (loss, grad_weights, grad_intercept); the intercept is not
    regularized. ``y01`` holds one 0/1 label per row of ``x``.
    """
    x = _as_matrix(x)
    params = np.append(np.asarray(weights, dtype=np.float64), intercept)
    y_pm = 2.0 * _as_labels(y01, x.shape[0]) - 1.0
    margins = _margins(params, x, y_pm)
    loss = _loss_from_margins(margins, params, reg_lambda)
    grad, _ = _grad_and_curvature(margins, params, x, y_pm, reg_lambda)
    return loss, grad[:-1], float(grad[-1])


def train(
    x,
    y,
    reg_lambda: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> LinearClassifier:
    """Fit a classifier by truncated Newton-CG; lambda defaults to 1/M.

    Accepts a dense array or a FeatureMatrix (unpacked once up front, so
    packed and dense training see the identical design matrix). Stops when
    the gradient's infinity norm drops to ``tol``, after ``max_iter`` Newton
    steps, or when the line search finds no decrease. The returned model's
    ``fit`` says which, and its ``loss_history`` holds the loss at the start
    and after each accepted step.
    """
    xm = _as_matrix(x)
    m, d = xm.shape
    y01 = _as_labels(y, m)
    if np.unique(y01).size < 2:
        raise ValueError("training data must contain both classes")
    check_fit_options(reg_lambda, tol, max_iter)
    y_pm = 2.0 * y01 - 1.0
    lam = 1.0 / m if reg_lambda is None else float(reg_lambda)

    params = np.zeros(d + 1)  # (w, b): the intercept last, unpenalized
    margins = _margins(params, xm, y_pm)
    loss = _loss_from_margins(margins, params, lam)
    grad, curv = _grad_and_curvature(margins, params, xm, y_pm, lam)
    history = [loss]
    iterations = products = 0

    while True:
        grad_inf = float(np.abs(grad).max())
        if grad_inf <= tol:
            stop = "tol"
            break
        if iterations >= max_iter:
            stop = "max_iter"
            break

        step, n = _newton_direction(xm, curv, lam, grad)
        products += n
        if not grad @ step < 0:
            # CG made no usable step (curvature underflowed, as on separable
            # data at lambda = 0): fall back to steepest descent.
            step = -grad
        slope = float(grad @ step)

        alpha = 1.0
        for _bt in range(_MAX_BACKTRACKS):
            trial = params + alpha * step
            margins = _margins(trial, xm, y_pm)
            loss_new = _loss_from_margins(margins, trial, lam)
            if loss_new <= loss + _ARMIJO_C * alpha * slope:
                break
            alpha *= 0.5
        else:
            stop = "no_descent"
            break

        params, loss = trial, loss_new
        grad, curv = _grad_and_curvature(margins, params, xm, y_pm, lam)
        history.append(loss)
        iterations += 1

    record = FitRecord(
        iterations=iterations,
        stop_reason=stop,
        grad_inf=grad_inf,
        converged=stop == "tol",
        hessian_vector_products=products,
    )
    return LinearClassifier(weights=params[:-1], intercept=float(params[-1]),
                            reg_lambda=lam, loss_history=history, fit=record)


def evaluate(model: LinearClassifier, x, y) -> float:
    """Misclassification rate of the model on (x, y)."""
    pred = model.predict(x)
    if np.shape(y) != pred.shape:
        raise ValueError("label count must match the number of rows")
    return float((pred != y).mean())
