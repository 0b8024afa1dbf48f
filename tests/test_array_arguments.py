"""Every array argument follows one rule: real, finite and shaped.

Each entry point's array argument is fed a numeric string, a complex
number, an object (a Fraction), NaN, inf and a wrong shape. Each must raise
ValueError starting with the argument's name, and leak no warning: a
float64 cast would parse the string, drop the imaginary part with a
ComplexWarning, or take the Fraction.
"""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    EpisodeEngine,
    LabeledDataset,
    LinearClassifier,
    Standardization,
    closed_form_kernel,
    evaluate,
    exact_probabilities,
    expected_inner,
    featurize,
    get_ansatz,
    loss_and_gradient,
    mc_kernel,
    run_episode,
    sample_machine,
    train,
)
from qks.quil import _as_reals

CNOT2 = get_ansatz("cnot2")
SPLIT2 = EncodingStructure.split(2)
ENGINE = EpisodeEngine(CNOT2)
MACHINE = sample_machine(CNOT2, SPLIT2, 1.0, 8, 3)
MODEL = LinearClassifier(weights=np.array([1.0, -1.0]), intercept=0.0,
                         reg_lambda=0.1)
STATS = Standardization(np.zeros(2), np.ones(2))
ROWS = np.array([[0.1, 0.2], [0.3, 0.4]])
PAIR = np.array([0.5, 0.25])
LABELS = [0, 1]

# (entry point, argument, a valid value, the call with that argument)
ENTRY_POINTS = [
    ("EpisodeEngine.probabilities", "thetas", ROWS, ENGINE.probabilities),
    ("EpisodeEngine.marginals", "thetas", ROWS, ENGINE.marginals),
    ("EpisodeEngine.sample", "thetas", ROWS, lambda a: ENGINE.sample(a, PAIR)),
    ("EpisodeEngine.sample", "uniforms", PAIR, lambda a: ENGINE.sample(ROWS, a)),
    ("exact_probabilities", "theta", PAIR,
     lambda a: exact_probabilities(CNOT2, a)),
    ("run_episode", "theta", PAIR,
     lambda a: run_episode(CNOT2, a, np.random.default_rng(0))),
    ("QksMachine.encode", "u", PAIR, lambda a: MACHINE.encode(a, 0)),
    ("QksMachine.encode_batch", "inputs", ROWS, MACHINE.encode_batch),
    ("featurize", "inputs", ROWS, lambda a: featurize(MACHINE, a)),
    ("mc_kernel", "u", PAIR, lambda a: mc_kernel(MACHINE, a, PAIR)),
    ("mc_kernel", "v", PAIR, lambda a: mc_kernel(MACHINE, PAIR, a)),
    ("closed_form_kernel", "u", PAIR,
     lambda a: closed_form_kernel(CNOT2, SPLIT2, a, PAIR, 1.0)),
    ("closed_form_kernel", "v", PAIR,
     lambda a: closed_form_kernel(CNOT2, SPLIT2, PAIR, a, 1.0)),
    ("expected_inner", "u_probs", PAIR, lambda a: expected_inner(a, PAIR)),
    ("expected_inner", "v_probs", PAIR, lambda a: expected_inner(PAIR, a)),
    ("train", "x", ROWS, lambda a: train(a, LABELS)),
    ("evaluate", "x", ROWS, lambda a: evaluate(MODEL, a, LABELS)),
    ("LinearClassifier.predict", "x", ROWS, MODEL.predict),
    ("LinearClassifier", "weights", MODEL.weights,
     lambda a: LinearClassifier(a, 0.0, 0.1)),
    ("loss_and_gradient", "x", ROWS,
     lambda a: loss_and_gradient(MODEL.weights, 0.0, a, LABELS, 0.1)),
    ("loss_and_gradient", "weights", MODEL.weights,
     lambda a: loss_and_gradient(a, 0.0, ROWS, LABELS, 0.1)),
    ("LabeledDataset", "inputs", ROWS, lambda a: LabeledDataset(a, LABELS)),
    ("Standardization.apply", "inputs", ROWS, STATS.apply),
]


def _first(value, entry):
    bad = value.copy()
    bad.flat[0] = entry
    return bad


# (case, the bad value made from a valid one)
CASES = [
    ("numeric-strings", lambda g: g.astype(str)),
    ("complex", lambda g: g + 1j),
    ("object", lambda g: np.frompyfunc(Fraction, 1, 1)(g)),
    ("nan", lambda g: _first(g, np.nan)),
    ("inf", lambda g: _first(g, np.inf)),
    ("shape", lambda g: g[..., np.newaxis]),
]


@pytest.mark.parametrize("case, make", CASES, ids=[c for c, _ in CASES])
@pytest.mark.parametrize(
    "name, good, call",
    [entry[1:] for entry in ENTRY_POINTS],
    ids=[f"{entry}-{name}" for entry, name, _, _ in ENTRY_POINTS],
)
def test_array_arguments_must_be_real_finite_and_shaped(
        name, good, call, case, make):
    call(good)  # the valid value is taken
    bad = make(good)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
            call(bad)


@pytest.mark.parametrize("labels", [
    [0.7, 2, -1], [np.nan, 1, 0], ["0", "1", "1"], [1 + 0j, 0, 1],
    np.array([Fraction(1), 0, 1], dtype=object),
], ids=["truncated", "nan", "strings", "complex", "object"])
def test_dataset_labels_are_zero_or_one(labels):
    # An int64 cast stored [0.7, 2, -1] as [0, 2, -1].
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^labels must be 0 or 1"):
            LabeledDataset(np.zeros((3, 2)), labels)
    ds = LabeledDataset(np.zeros((3, 2)), [True, 0.0, 1])
    assert ds.labels.tolist() == [1, 0, 1] and ds.labels.dtype == np.int64


def test_float64_arrays_pass_through_uncopied():
    # featurize and the engine check each block's arrays without a copy.
    thetas = np.zeros((3, 2))
    assert ENGINE.probabilities(thetas).shape == (3, 4)
    assert _as_reals("thetas", thetas, (None, 2)) is thetas
    ints = _as_reals("u", np.array([1, 2], dtype=np.uint8), (2,))
    assert ints.dtype == np.float64 and ints.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("field, bad", [
    ("intercept", "0.5"), ("intercept", 1j), ("intercept", True),
    ("intercept", np.nan), ("intercept", -np.inf), ("intercept", -10**400),
    ("intercept", np.array([0.5])), ("reg_lambda", "0.1"),
    ("reg_lambda", True), ("reg_lambda", -0.1), ("reg_lambda", np.nan),
])
def test_classifier_scalars_are_finite_real_numbers(field, bad):
    # Unchecked, a NaN intercept predicted class 0 for every row.
    fields = {"weights": [1.0, -1.0], "intercept": 0.0, "reg_lambda": 0.1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{field} must "):
            LinearClassifier(**{**fields, field: bad})


def test_classifier_fields_are_stored_as_floats():
    model = LinearClassifier([1, 0], -2, np.float32(0.5))
    assert model.weights.dtype == np.float64 and model.weights.tolist() == [1.0, 0.0]
    assert (model.intercept, model.reg_lambda) == (-2.0, 0.5)
    assert type(model.intercept) is float and type(model.reg_lambda) is float
    assert model.predict(np.array([[3.0, 0.0], [1.0, 5.0]])).tolist() == [1, 0]
