"""Quantum kitchen sinks: random quantum-circuit feature maps.

The pipeline: a small parameterized circuit (an ansatz) is combined with E
random affine encodings theta = Omega_e u + beta_e of a classical input u.
Each episode is simulated once and measured once; stacking the measured bits
over episodes yields a binary feature vector that a plain linear classifier
can separate, even when the raw inputs are far from linearly separable.
"""

from .ansatze import ansatz_names, ansatz_source, get_ansatz
from .datasets import (
    DataFormatError,
    LabeledDataset,
    Standardization,
    TileMap,
    gen_picture_frames,
    load_csv,
    load_idx_images,
    load_idx_labels,
    load_mnist_pair,
    load_mnist_split,
    make_tilemap,
    save_csv,
    standardize,
)
from .encoding import (
    EncodingStructure,
    EpisodeEncoding,
    QksMachine,
    sample_machine,
    shot_stream,
)
from .features import (
    FeatureFileError,
    FeatureMatrix,
    featurize,
    load_features,
    save_features,
)
from .kernels import (
    KernelEstimate,
    closed_form_cnot2,
    closed_form_kernel,
    expected_inner,
    mc_kernel,
)
from .logistic import (
    FitRecord,
    LinearClassifier,
    evaluate,
    loss_and_gradient,
    train,
)
from .quil import (
    CircuitTemplate,
    GateKind,
    GateOp,
    ParamRef,
    QuilParseError,
    instantiate,
    parse_template,
    to_quil,
)
from .simulator import (
    EpisodeEngine,
    Shot,
    StateVector,
    apply_gate,
    bit_matrix,
    exact_probabilities,
    run_circuit,
    run_episode,
    sample_shot,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitTemplate",
    "DataFormatError",
    "EncodingStructure",
    "EpisodeEncoding",
    "EpisodeEngine",
    "FeatureFileError",
    "FeatureMatrix",
    "FitRecord",
    "GateKind",
    "GateOp",
    "KernelEstimate",
    "LabeledDataset",
    "LinearClassifier",
    "ParamRef",
    "QksMachine",
    "QuilParseError",
    "Shot",
    "Standardization",
    "StateVector",
    "TileMap",
    "ansatz_names",
    "ansatz_source",
    "apply_gate",
    "bit_matrix",
    "closed_form_cnot2",
    "closed_form_kernel",
    "evaluate",
    "exact_probabilities",
    "expected_inner",
    "featurize",
    "gen_picture_frames",
    "get_ansatz",
    "instantiate",
    "load_csv",
    "load_features",
    "load_idx_images",
    "load_idx_labels",
    "load_mnist_pair",
    "load_mnist_split",
    "loss_and_gradient",
    "make_tilemap",
    "mc_kernel",
    "parse_template",
    "run_circuit",
    "run_episode",
    "sample_machine",
    "sample_shot",
    "save_csv",
    "save_features",
    "shot_stream",
    "standardize",
    "to_quil",
    "train",
    "__version__",
]
