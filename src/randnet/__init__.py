"""Randomized single-hidden-layer regression networks.

Hidden-layer parameters are drawn at random (from flat intervals, from
slope-angle distributions, or from a randomized autoencoder) and only the
linear readout is fitted, by least squares. The package also ships the
experiment harness used to compare the methods: repeated trials,
cross-validated parameter selection, rank tests and report files.
"""

from .benchfn import SampledProblem, TargetFunction, demo_problem_1d, evaluate_tf, sample_problem
from .dataio import (
    Dataset,
    NormalizationSpec,
    fit_normalization,
    load_csv,
    normalize,
    split_75_25,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateNodeError,
    InvalidInputError,
    NumericFailureError,
)
from .linalg import lstsq, pseudoinverse
from .methods import (
    METHOD_NAMES,
    TUNABLE,
    GeneratorConfig,
    generate_hidden_layer,
    method_from_dict,
    method_name,
    method_to_dict,
)
from .model import (
    HiddenLayer,
    ReadoutWeights,
    TrainedNetwork,
    hidden_outputs,
    load_network,
    predict,
    rmse,
    save_network,
    sigmoid,
    train_readout,
)
from .paramgen import (
    RaMConfig,
    RAlphaMConfig,
    anchor_points,
    anchored_biases,
    generate_ralpham,
    generate_ram,
)
from .rae import (
    Raem1Config,
    Raem2Config,
    Raem3Config,
    Raem4Config,
    Raem5Config,
    inflection_hyperplane_offset,
    raem_hidden_layer,
)
from .rng import RngStream, as_stream

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "DegenerateNodeError",
    "GeneratorConfig",
    "HiddenLayer",
    "InvalidInputError",
    "METHOD_NAMES",
    "NormalizationSpec",
    "NumericFailureError",
    "RAlphaMConfig",
    "RaMConfig",
    "Raem1Config",
    "Raem2Config",
    "Raem3Config",
    "Raem4Config",
    "Raem5Config",
    "ReadoutWeights",
    "RngStream",
    "SampledProblem",
    "TUNABLE",
    "TargetFunction",
    "TrainedNetwork",
    "anchor_points",
    "anchored_biases",
    "as_stream",
    "demo_problem_1d",
    "evaluate_tf",
    "fit_normalization",
    "generate_hidden_layer",
    "generate_ralpham",
    "generate_ram",
    "hidden_outputs",
    "inflection_hyperplane_offset",
    "load_csv",
    "load_network",
    "lstsq",
    "method_from_dict",
    "method_name",
    "method_to_dict",
    "normalize",
    "predict",
    "pseudoinverse",
    "raem_hidden_layer",
    "rmse",
    "sample_problem",
    "save_network",
    "sigmoid",
    "split_75_25",
    "train_readout",
]
