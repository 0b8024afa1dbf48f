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

A design matrix whose entries are all 0 or 1 (every FeatureMatrix, and a
dense 0/1 array alike) is held as float32, which stores 0 and 1 exactly in
half the memory. The two products of each H v, ``X @ v`` and ``X^T @ u``,
then run in float32, with v and u first scaled by a power of two so that
neither can leave float32's range: CG needs only an approximate Hessian
(Lin, Weng & Keerthi).

The margins, loss, gradient and decision scores on such a matrix are exact
instead, by error-free splitting (Ozaki, Ogita, Oishi & Rump, Numer.
Algorithms 59, 2012). For a product that sums ``terms`` entries of v (the
columns for ``X @ v``, the rows for ``X^T @ v``):

- b = 24 - bitlength(terms - 1) bits per digit, and 2**e > max|v|;
- s = v * 2**(b - e), then digits d_k = rint(s) and s = (s - d_k) * 2**b,
  all exact in float64, until the remainder is 0 or K = ceil(53 / b)
  digits have covered 53 bits below 2**e;
- one float32 product of X with each digit vector, exact because every
  partial sum is an integer of at most terms * 2**b <= 2**24 (one matrix
  product against all K digits reads X once, which pays on matrices far
  larger than the cache, but it is slower on the frames fit and makes
  OpenBLAS touch up to 20 MB of packing buffer);
- a recombination in float64 that rounds once (see ``_recombine``).

So each entry of the result is ``math.fsum`` of the products with v
rounded to the nearest multiple of 2**(e - b*K), whatever the BLAS kernel,
thread count or summation order, and the ||g||_inf <= tol test is as exact
as on a float64 matrix. Splitting H v too would make the whole fit
independent of BLAS, but K digit products per H v cost about K float32
products (K = 4 to 5 on the frames fit), where CG needs only one. A
product that sums more than 2**23 terms, where b would reach 0, keeps the
matrix in float64, and any other matrix is held, and every product formed,
in float64.

A backtracking (Armijo) line search from the unit step keeps the loss
sequence non-increasing. The whole procedure is deterministic, and the
returned model records how it stopped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import DataFormatError
from .features import FeatureMatrix, _unpack_rows
from .quil import _as_int, _as_labels, _as_real, _as_reals

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
# The most terms one split product may sum: b = 24 - bitlength(terms - 1)
# must stay >= 1.
_MAX_TERMS = 2**23
# Packed rows unpacked at a time, so that no full uint8 copy of a
# FeatureMatrix exists beside its float32 one.
_UNPACK_ROWS = 256


def _bits_dtype(shape) -> type:
    """float32 for a 0/1 matrix, float64 past _MAX_TERMS rows or columns."""
    return np.float32 if max(shape) <= _MAX_TERMS else np.float64


def _as_matrix(x) -> np.ndarray:
    """The design matrix: 2-D and finite, float32 if every entry is 0 or 1.

    A FeatureMatrix holds 0/1 bits by construction, so only an array is
    checked, as real numbers by :func:`qks.quil._as_reals`, and scanned for
    entries other than 0 and 1; any other array is float64. A FeatureMatrix
    is unpacked a block of rows at a time.
    """
    if isinstance(x, FeatureMatrix):
        shape = (x.rows, x.num_columns)
        dense = np.empty(shape, _bits_dtype(shape))
        for start in range(0, x.rows, _UNPACK_ROWS):
            rows = slice(start, start + _UNPACK_ROWS)
            dense[rows] = _unpack_rows(x.packed[rows], x.num_columns)
        return dense
    x = _as_reals("x", x, (None, None))
    if ((x == 0) | (x == 1)).all():
        return x.astype(_bits_dtype(x.shape))
    return x


def _digits(v, terms: int):
    """Split v into float32 integer digits for a product summing ``terms``.

    Returns (digits, b, exp): K rows of integers of at most b bits, with
    v ~= sum_k digits[k] * 2**(exp + b * (K - 1 - k)), exact for v rounded
    to the nearest multiple of 2**exp (the module docstring gives the rule).
    """
    b = 24 - (terms - 1).bit_length()
    _, e = np.frexp(np.abs(v).max(initial=0.0))
    s = np.ldexp(v, b - e)
    digits = np.empty((-(-53 // b), s.size), np.float32)
    for k in range(len(digits)):
        d = np.rint(s)
        digits[k] = d
        s -= d
        s *= 2.0**b
        if not s.any():
            break
    return digits[: k + 1], b, int(e) - b * (k + 1)


def _recombine(p, b: int, exp: int) -> np.ndarray:
    """sum_k p[k] * 2**(exp + b * (K - 1 - k)) over K digit products.

    Each p[k] holds integers of magnitude at most 2**24. Weighted by their
    powers of two, up to g = 28 // b + 1 consecutive rows sum to at most
    2**53 units of their smallest weight, so the first g rows and the rest
    (never more than g) each sum exactly, in any order. Adding the two
    groups is the one rounding; the ldexp is exact unless the result
    leaves float64's normal range.
    """
    p = np.array(p, dtype=np.float64)
    k = len(p)
    g = min(k, 28 // b + 1)
    weights = np.ldexp(1.0, b * np.arange(k - 1, -1, -1))
    return np.ldexp(weights[:g] @ p[:g] + weights[g:] @ p[g:], exp)


def _exact_product(a, v) -> np.ndarray:
    """``a @ v`` in float64; exact for the split v on a float32 0/1 ``a``
    (``x`` or ``x.T``), in any summation order."""
    if a.dtype == np.float64:
        return a @ v
    digits, b, exp = _digits(v, a.shape[1])
    return _recombine([a @ d for d in digits], b, exp)


def _float32_product(a, v) -> np.ndarray:
    """``a @ v`` by float32 BLAS on a float32 ``a``, returned as float64;
    on a float64 ``a``, a float64 product.

    v is scaled by an exact power of two to a largest entry in [0.5, 1)
    before the cast, and the product scaled back after it, so neither tiny
    nor huge entries of v leave float32's range.
    """
    if a.dtype == np.float64:
        return a @ v
    _, exp = np.frexp(np.abs(v).max(initial=0.0))
    scaled = np.ldexp(v, -exp).astype(np.float32)
    return np.ldexp((a @ scaled).astype(np.float64), exp)


def _check_width(x, weights) -> None:
    """Raise ValueError unless weights is 1-D with one weight per column of x."""
    if np.shape(weights) != (x.shape[1],):
        raise ValueError(
            f"input has {x.shape[1]} columns, "
            f"the model has {np.size(weights)} weights"
        )


def check_fit_options(reg_lambda: float | None, tol: float, max_iter: int) -> None:
    """Raise ValueError unless :func:`train` accepts these options.

    ``reg_lambda`` is None (for 1/M) or a real number (not a bool or a
    string) that is finite and >= 0, ``tol`` one that is finite and > 0,
    and ``max_iter`` an integer (not a float or bool) >= 1.
    """
    if reg_lambda is not None:
        _as_real("reg_lambda", reg_lambda)
    _as_real("tol", tol, positive=True)
    _as_int("max_iter", max_iter, low=1)


@dataclass(frozen=True)
class FitRecord:
    """How a call to :func:`train` ended.

    ``stop_reason`` is ``"tol"`` (the gradient's infinity norm reached the
    tolerance), ``"max_iter"`` (the Newton step cap was hit first) or
    ``"no_descent"`` (the line search found no decrease, or an accepted
    step left the weights unchanged; both happen only at the limits of
    floating point). ``grad_inf`` is the gradient's infinity norm at the
    returned weights.
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
        """Scores w . x + b; ``x`` is a FeatureMatrix or 2-D real numbers."""
        x = _as_matrix(x)
        _check_width(x, self.weights)
        return _exact_product(x, self.weights) + self.intercept

    def predict(self, x) -> np.ndarray:
        """Predicted {0, 1} labels; a score of exactly 0 goes to class 0.

        ``x`` is a FeatureMatrix or 2-D real numbers, as for
        :meth:`decision_function`.
        """
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
        """Read a model written by :meth:`save`.

        Raises :class:`DataFormatError`, naming the field, unless the file
        holds a JSON object whose ``weights`` is a list of finite numbers,
        ``intercept`` a finite number and ``lambda`` one >= 0.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: not a model file ({exc})") from exc
        if not isinstance(payload, dict):
            raise DataFormatError(f"{path}: not a model file (no JSON object)")
        for name, valid, what in _MODEL_FIELDS:
            if name not in payload:
                raise DataFormatError(f"{path}: model field '{name}' is missing")
            if not valid(payload[name]):
                raise DataFormatError(
                    f"{path}: model field '{name}' must be {what}"
                )
        return cls(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            intercept=float(payload["intercept"]),
            reg_lambda=float(payload["lambda"]),
        )


def _finite_number(value) -> bool:
    """A JSON number (not a bool) that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float's range
        return False


# (name, check, what the check requires) for each field of a saved model.
_MODEL_FIELDS = (
    ("weights", lambda v: isinstance(v, list) and all(map(_finite_number, v)),
     "a list of finite numbers"),
    ("intercept", _finite_number, "a finite number"),
    ("lambda", lambda v: _finite_number(v) and v >= 0, "a finite number >= 0"),
)


def _margins(params, x, y_pm) -> np.ndarray:
    return y_pm * (_exact_product(x, params[:-1]) + params[-1])


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
    grad = np.append(_exact_product(x.T, coef) + reg_lambda * params[:-1], coef.sum())
    return grad, e / ((1.0 + e) ** 2 * rows)


def _hessian_vector(x, curv, reg_lambda, v):
    """H v for the curvature weights ``curv``, without forming H.

    On a float32 x the products ``x @ v`` and ``x.T @ u`` run in float32;
    the rest, and every product on a float64 x, is float64.
    """
    u = curv * (_float32_product(x, v[:-1]) + v[-1])
    return np.append(_float32_product(x.T, u) + reg_lambda * v[:-1], u.sum())


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
    regularized. ``x`` is a FeatureMatrix or 2-D real numbers, ``weights``
    one real number per column, and ``y01`` one 0/1 label per row.
    """
    x = _as_matrix(x)
    weights = _as_reals("weights", weights, (None,))
    _check_width(x, weights)
    params = np.append(weights, intercept)
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

    Accepts a FeatureMatrix or a 2-D array of real numbers, and one 0/1
    label per row. Either matrix is converted once up front, to float32
    when every entry is 0 or 1 and to float64 otherwise, so packed and
    dense training on the same bits see the identical design matrix. On
    float32 bits the Hessian-vector products of the CG solves run in
    float32, and the margins, loss and gradient, and so the stopping test,
    come from exact split products that no BLAS setting can move (see the
    module docstring). Stops when the gradient's infinity norm drops to
    ``tol``, after ``max_iter`` Newton steps, or when a step no longer moves
    the loss or the weights. The returned model's ``fit`` says which, and
    its ``loss_history`` holds the loss at the start and after each
    accepted step.

    Raises :class:`DataFormatError`, naming the largest input, when finite
    inputs are so large that the fit's arithmetic overflows.
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

    try:
        # An overflow here means inputs too large to fit, not a bad step.
        with np.errstate(over="raise", invalid="raise"):
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
                    # CG made no usable step (curvature underflowed, as on
                    # separable data at lambda = 0): fall back to steepest
                    # descent.
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
                    trial = params
                # No decrease found, or a step below the weights' rounding.
                if np.array_equal(trial, params):
                    stop = "no_descent"
                    break

                params, loss = trial, loss_new
                grad, curv = _grad_and_curvature(margins, params, xm, y_pm, lam)
                history.append(loss)
                iterations += 1
    except FloatingPointError as exc:
        raise DataFormatError(
            f"inputs up to |x| = {np.abs(xm).max():g} overflow the fit ({exc}); "
            "rescale them"
        ) from exc

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
    """Misclassification rate of the model on (x, y); y holds 0/1 labels.

    ``x`` is a FeatureMatrix or 2-D real numbers, as for :func:`train`.
    """
    pred = model.predict(x)
    return float((pred != _as_labels(y, pred.size)).mean())
