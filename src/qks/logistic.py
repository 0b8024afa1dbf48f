"""L2-regularized binary logistic regression, trained by truncated Newton-CG.

The model is deliberately linear and nothing more: features do all the
lifting, the classifier only draws a hyperplane. Training minimizes

    (1/M) sum_i log(1 + exp(-y_i (w . x_i + b))) + (lambda/2) ||w||^2

with labels y in {-1, +1} internally ({0, 1} at the boundary) and the
intercept unpenalized. The optimizer is a truncated Newton method on the
primal, after Lin, Weng & Keerthi, "Trust region Newton method for logistic
regression" (JMLR 2008). Each outer step solves the Newton system
H s = -g approximately by conjugate gradients. CG needs only Hessian-vector
products

    H v = X^T (D * (X v_w + v_b)) + lambda v_w,    (H v)_b = sum(D * (X v_w + v_b))

with curvature weights D_i = sigma(m_i) (1 - sigma(m_i)) / M taken once per
outer step from the margins m, so the (d+1) x (d+1) Hessian is never formed.
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
    if isinstance(x, FeatureMatrix):
        return x.to_dense().astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    return x


def _as_labels(y, rows: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (rows,):
        raise ValueError(f"expected {rows} labels, got shape {y.shape}")
    vals = np.unique(y)
    if not np.isin(vals, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if vals.size < 2:
        raise ValueError("training data must contain both classes")
    return y.astype(np.float64)


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
        x = _as_matrix(x)
        return x @ self.weights + self.intercept

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


def _margins(weights, intercept, x, y_pm) -> np.ndarray:
    return y_pm * (x @ weights + intercept)


def _loss_from_margins(margins, weights, reg_lambda) -> float:
    # log(1 + exp(-m)) via logaddexp stays finite for any margin
    loss = float(np.logaddexp(0.0, -margins).mean())
    return loss + 0.5 * reg_lambda * float(weights @ weights)


def _grad_from_margins(margins, weights, x, y_pm, reg_lambda):
    # d/dm log(1+e^-m) = -sigmoid(-m); evaluate sigmoid(-m) without overflow
    sig = np.empty_like(margins)
    pos = margins >= 0
    em = np.exp(-margins[pos])
    sig[pos] = em / (1.0 + em)
    sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
    coef = (-y_pm / x.shape[0]) * sig
    grad_w = x.T @ coef + reg_lambda * weights
    grad_b = float(coef.sum())
    return grad_w, grad_b


def _curvature(margins) -> np.ndarray:
    """D_i = sigmoid(m_i)(1 - sigmoid(m_i)) / M, in a form that cannot overflow."""
    e = np.exp(-np.abs(margins))
    return e / ((1.0 + e) ** 2 * margins.shape[0])


def _hessian_vector(x, curv, reg_lambda, v_w, v_b):
    """H v for the curvature weights ``curv``, without forming H."""
    u = curv * (x @ v_w + v_b)
    return x.T @ u + reg_lambda * v_w, float(u.sum())


def _newton_direction(x, curv, reg_lambda, g_w, g_b):
    """Truncated CG on H s = -g; returns (s_w, s_b, Hessian-vector products).

    CG stops once the residual is below min(0.5, sqrt(|g|)) |g|, at
    non-positive curvature, or after d + 1 steps.
    """
    r_w, r_b = -g_w, -g_b
    p_w, p_b = r_w.copy(), r_b
    s_w, s_b = np.zeros_like(g_w), 0.0
    rr = float(r_w @ r_w) + r_b * r_b
    gnorm = np.sqrt(rr)
    cg_tol = min(0.5, np.sqrt(gnorm)) * gnorm
    products = 0
    for _ in range(g_w.size + 1):
        if np.sqrt(rr) <= cg_tol:
            break
        h_w, h_b = _hessian_vector(x, curv, reg_lambda, p_w, p_b)
        products += 1
        php = float(p_w @ h_w) + p_b * h_b
        if not php > 0:
            break
        alpha = rr / php
        s_w += alpha * p_w
        s_b += alpha * p_b
        r_w -= alpha * h_w
        r_b -= alpha * h_b
        rr_new = float(r_w @ r_w) + r_b * r_b
        p_w = r_w + (rr_new / rr) * p_w
        p_b = r_b + (rr_new / rr) * p_b
        rr = rr_new
    return s_w, s_b, products


def loss_and_gradient(
    weights: np.ndarray,
    intercept: float,
    x: np.ndarray,
    y01: np.ndarray,
    reg_lambda: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean logistic loss and its gradient.

    Returns (loss, grad_weights, grad_intercept); the intercept is not
    regularized.
    """
    x = _as_matrix(x)
    weights = np.asarray(weights, dtype=np.float64)
    y_pm = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    margins = _margins(weights, intercept, x, y_pm)
    loss = _loss_from_margins(margins, weights, reg_lambda)
    grad_w, grad_b = _grad_from_margins(margins, weights, x, y_pm, reg_lambda)
    return loss, grad_w, grad_b


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
    if xm.size and not np.isfinite(xm).all():
        raise ValueError("design matrix must be finite")
    y01 = _as_labels(y, xm.shape[0])
    m, d = xm.shape
    lam = 1.0 / m if reg_lambda is None else float(reg_lambda)
    if lam < 0:
        raise ValueError("reg_lambda must be >= 0")
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be > 0 and max_iter >= 1")

    y_pm = 2.0 * y01 - 1.0
    w = np.zeros(d)
    b = 0.0
    margins = _margins(w, b, xm, y_pm)
    loss = _loss_from_margins(margins, w, lam)
    gw, gb = _grad_from_margins(margins, w, xm, y_pm, lam)
    history = [loss]
    iterations = products = 0

    while True:
        grad_inf = max(np.abs(gw).max() if d else 0.0, abs(gb))
        if grad_inf <= tol:
            stop = "tol"
            break
        if iterations >= max_iter:
            stop = "max_iter"
            break

        curv = _curvature(margins)
        s_w, s_b, n = _newton_direction(xm, curv, lam, gw, gb)
        products += n
        slope = float(gw @ s_w) + gb * s_b
        if not slope < 0:
            # CG made no usable step (curvature underflowed, as on separable
            # data at lambda = 0): fall back to steepest descent.
            s_w, s_b = -gw, -gb
            slope = -(float(gw @ gw) + gb * gb)

        alpha = 1.0
        for _bt in range(_MAX_BACKTRACKS):
            w_new = w + alpha * s_w
            b_new = b + alpha * s_b
            margins_new = _margins(w_new, b_new, xm, y_pm)
            loss_new = _loss_from_margins(margins_new, w_new, lam)
            if loss_new <= loss + _ARMIJO_C * alpha * slope:
                break
            alpha *= 0.5
        else:
            stop = "no_descent"
            break

        w, b, loss, margins = w_new, b_new, loss_new, margins_new
        gw, gb = _grad_from_margins(margins, w, xm, y_pm, lam)
        history.append(loss)
        iterations += 1

    record = FitRecord(
        iterations=iterations,
        stop_reason=stop,
        grad_inf=float(grad_inf),
        converged=stop == "tol",
        hessian_vector_products=products,
    )
    return LinearClassifier(weights=w, intercept=float(b), reg_lambda=lam,
                            loss_history=history, fit=record)


def evaluate(model: LinearClassifier, x, y) -> float:
    """Misclassification rate of the model on (x, y)."""
    xm = _as_matrix(x)
    y = np.asarray(y)
    if y.shape != (xm.shape[0],):
        raise ValueError("label count must match the number of rows")
    return float((model.predict(xm) != y).mean())
