"""Distance features for received phase-space points.

A received point t is summarized by its Euclidean distances to a fixed
ordered set of w virtual reference states r_1..r_w (by default the initial
constellation points, `scheme.points`), giving the feature vector
d = (d_1, ..., d_w).
High-value vectors, whose every-entry-large signature marks points far
from all references, can be filtered out by an absolute cap or a quantile
of the max-entry distribution before classifier training.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, array, real_number


def extract_batch(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Feature vectors of an (n, 2) array of points against a (w, 2) array
    of finite references, w >= 1; returns (n, w). A distance that is not
    finite (a non-finite point, or one so far out that its squared
    distance overflows) is an InvalidInputError.

    Each distance is sqrt(dq * dq + dp * dp), built in place in two (n, w)
    arrays, the first of which is returned."""
    refs = array("refs", refs, (None, 2))
    if not (len(refs) and np.isfinite(refs).all()):
        raise InvalidInputError("refs must hold at least one reference, and only finite ones")
    points = array("points", points, (None, 2))
    with np.errstate(over="ignore"):  # an overflow ends in inf, which the check below rejects
        d = points[:, :1] - refs[:, 0]
        e = points[:, 1:] - refs[:, 1]
        d *= d
        e *= e
        d += e
    np.sqrt(d, out=d)
    if not np.isfinite(d).all():
        raise InvalidInputError("points must be finite, and close enough to the references that no distance "
                                "overflows")
    return d


def _threshold(value) -> float:
    threshold = real_number("threshold", value)
    if not threshold > 0:  # NaN fails too
        raise InvalidParameterError(f"threshold must be positive, got {threshold}")
    return threshold


def resolve_threshold(features: np.ndarray, threshold: float | None = None, quantile: float | None = None) -> float:
    """Resolve a filtering threshold.

    Either an absolute `threshold` (positive) or a `quantile` in (0, 1] of
    the per-sample max-entry distribution, which must be finite; exactly
    one must be given.
    """
    if (threshold is None) == (quantile is None):
        raise InvalidParameterError("give exactly one of threshold or quantile")
    if threshold is not None:
        return _threshold(threshold)
    quantile = real_number("quantile", quantile)
    if not 0 < quantile <= 1:
        raise InvalidParameterError(f"quantile must be in (0, 1], got {quantile}")
    features = array("features", features, (None, None))
    if features.size == 0:
        raise InvalidParameterError("cannot resolve a quantile threshold on an empty population")
    largest = features.max(axis=1)
    if not np.isfinite(largest).all():
        raise InvalidInputError("a quantile threshold needs finite features")
    return float(np.quantile(largest, quantile))


def filter_features(features: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Split sample indices into (kept, discarded) under an absolute cap,
    which must be positive, as in resolve_threshold.

    A sample is discarded iff any feature entry exceeds the threshold.
    Returns the two index arrays, each preserving the input order, so
    callers can keep feature rows, labels, and state indices aligned.
    Discarded samples are returned, never silently dropped: the discard
    rate is a monitored statistic, since excessive filtering biases the
    classifier. A feature is a distance, so a NaN or negative one is an
    InvalidInputError.
    """
    threshold = _threshold(threshold)
    features = array("features", features, (None, None))
    if not (features >= 0).all():  # NaN > threshold and -inf > threshold are false: the row would be kept
        raise InvalidInputError("features must not be NaN or negative")
    over = (features > threshold).any(axis=1)
    idx = np.arange(features.shape[0])
    return idx[~over], idx[over]

