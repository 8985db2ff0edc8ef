"""Multi-label-learning CVQKD simulation toolkit.

Modules
-------
statespace : PSK constellations, quadrant labels, encoding rules
channel    : stochastic fiber channel and seeded random sources
features   : distance features and outlier filtering
classifier : Bayesian multi-label kNN classifier (QMLC)
metrics    : Prec/Rec/FPR, average precision, ROC/AUC
keyrate    : asymptotic and finite-size secret key rates
protocol   : state learning, state prediction, intercept-resend demo
cli        : command-line pipeline driver
"""

from .channel import ChannelParams, RandomSource, transmit_batch, transmittance_from_distance
from .classifier import QmlcParams, TrainedClassifier, predict_batch, train
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    LearningRejectedError,
    MlcvqkdError,
    NumericalDomainError,
)
from .features import extract_batch, filter_features
from .keyrate import (
    KeyRateParams,
    Protocol,
    RateResult,
    covariance_z,
    delta_n,
    holevo_chi_be,
    key_rates,
    mutual_information,
    optimize_vm,
    rate_asymptotic,
    rate_finite,
)
from .metrics import EvaluationReport, average_precision, evaluate, prf, roc_curve
from .protocol import (
    SessionConfig,
    SessionTranscript,
    intercept_resend_demo,
    state_learning,
    state_prediction,
)
from .statespace import (
    EncodingRule,
    ModulationKind,
    ModulationScheme,
    build_scheme,
    encode,
    quadrant_flags,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
