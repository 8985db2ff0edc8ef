"""Bayesian multi-label kNN classifier (QMLC) and label-set decoding.

Training estimates, for each label j, the smoothed prior P(H_j) that a
sample carries the label and the conditional distributions P(C_j = r | H_j)
and P(C_j = r | not H_j) of the count r of label-j carriers among a
sample's k nearest neighbors. Prediction counts label carriers among the
query's k nearest training samples and assigns label j when the posterior
ratio

    f(x, y_j) = P(H_j) P(C_j | H_j) / [P(not H_j) P(C_j | not H_j)]

exceeds the decision threshold t (default 1, the MAP rule). The scheme's
decode table then maps the predicted flags back to a constellation
state, or to an erasure when no state carries that label set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

_NEIGHBOR_BLOCK_BYTES = 8 * 2**20  # size of one query block's Gram matrix


@dataclass(frozen=True)
class QmlcParams:
    """k neighbors, Laplace smoothing s, posterior-ratio threshold t."""

    k: int
    s: float = 1.0
    t: float = 1.0

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise InvalidParameterError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        for name, what in (("s", "smoothing s"), ("t", "threshold t")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value <= 0):
                raise InvalidParameterError(f"{what} must be a finite positive number, got {value!r}")


class TrainedClassifier:
    """Immutable result of QMLC training.

    Holds the training features and label flags (the kNN index), the
    priors, the raw per-count tables and the smoothed conditionals.
    """

    def __init__(self, params, features, label_flags, prior_pos, counts_pos, counts_neg):
        k, s = params.k, params.s
        self.params = params
        self.features = features
        self.label_flags = label_flags
        self.prior_pos = prior_pos                  # P(H_j), shape (l,)
        self.prior_neg = 1.0 - prior_pos            # P(not H_j)
        self.counts_pos = counts_pos                # sigma_j[r], shape (l, k+1)
        self.counts_neg = counts_neg                # sigma-bar_j[r]
        # smoothed conditionals P(C_j = r | H_j) and P(C_j = r | not H_j)
        self.cond_pos = (s + counts_pos) / (s * (k + 1) + counts_pos.sum(axis=1, keepdims=True))
        self.cond_neg = (s + counts_neg) / (s * (k + 1) + counts_neg.sum(axis=1, keepdims=True))

    @property
    def n_training(self) -> int:
        return self.features.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "format": "qmlc-classifier",
            "version": 1,
            "params": {"k": self.params.k, "s": self.params.s, "t": self.params.t},
            "prior_pos": self.prior_pos.tolist(),
            "counts_pos": self.counts_pos.tolist(),
            "counts_neg": self.counts_neg.tolist(),
            "features": self.features.tolist(),
            "label_flags": self.label_flags.astype(int).tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainedClassifier":
        if not isinstance(doc, dict) or doc.get("format") != "qmlc-classifier" or doc.get("version") != 1:
            raise InvalidInputError("not a version-1 classifier document")
        try:
            params = QmlcParams(**doc["params"])
            clf = cls(
                params=params,
                features=np.asarray(doc["features"], dtype=float),
                label_flags=np.asarray(doc["label_flags"], dtype=bool),
                prior_pos=np.asarray(doc["prior_pos"], dtype=float),
                counts_pos=np.asarray(doc["counts_pos"], dtype=float),
                counts_neg=np.asarray(doc["counts_neg"], dtype=float),
            )
            m, n_labels = clf.label_flags.shape
            if (clf.features.ndim != 2 or clf.n_training != m or clf.prior_pos.shape != (n_labels,)
                    or {clf.counts_pos.shape, clf.counts_neg.shape} != {(n_labels, params.k + 1)}):
                raise ValueError("its arrays disagree in shape")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"classifier document has a missing or mistyped field: {exc}") from None
        return clf


def _neighbor_indices(queries, training, k, exclude_self=False):
    """Indices (n, k) of each query's k nearest training rows, nearest first.

    Exact contract: the result equals a stable argsort of every query's
    row of distances sqrt(sum((q - t)**2)), evaluated with exactly that
    expression, cut to its first k entries. Equal distances therefore go
    to the lower training index. With exclude_self, query row i is
    assumed to be training row i and is skipped. k must be smaller than
    the number of training rows, and every feature must be finite.

    The search runs in two stages. The Gram expansion |q|^2 + |t|^2 -
    2 q.t gives every squared distance with one matrix product, but its
    rounding differs from the direct formula, so by itself it could swap
    near-equal neighbours or break a tie the other way. It only selects
    candidates: each row whose Gram value is within a rounding bound of
    the k-th smallest. The bound covers the error of both formulas, so
    every row the direct formula ranks in the first k is a candidate.
    The re-check recomputes the candidates' distances with the direct
    formula and orders them by (distance, index). Distances are compared
    after the square root, as the direct search does: sqrt can merge two
    squared distances one ulp apart into a tie, which then goes to the
    lower index.
    """
    n, w = queries.shape
    m = training.shape[0]
    if k >= m:
        raise InvalidParameterError(f"k={k} must be smaller than the training size {m}")
    if training.shape[1] != w:
        raise InvalidInputError(f"queries have {w} features, the training rows {training.shape[1]}")
    out = np.empty((n, k), dtype=np.intp)
    train_sq = np.einsum("ij,ij->i", training, training)
    query_sq = np.einsum("ij,ij->i", queries, queries)
    if not (np.isfinite(train_sq).all() and np.isfinite(query_sq).all()):
        raise InvalidInputError("the neighbour search needs finite features")
    # twice the worst rounding gap between the two formulas, sqrt ties included
    slack = 8.0 * (w + 4) * np.finfo(float).eps * (query_sq + train_sq.max())
    minus_twice_t = -2.0 * training.T  # exact scaling
    chunk = max(1, _NEIGHBOR_BLOCK_BYTES // (8 * m))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = queries[start:stop]
        # |t|^2 - 2 q.t: the Gram distance less |q|^2, which ranks a row the same
        gram = block @ minus_twice_t
        gram += train_sq
        if exclude_self:
            gram[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
        rows, cols = np.divmod(np.flatnonzero(gram <= (kth + slack[start:stop])[:, None]), m)

        diff = block[rows] - training[cols]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        order = np.lexsort((cols, dist, rows))
        # candidates stay grouped by row; each group's first k are the answer
        first = np.searchsorted(rows, np.arange(stop - start))
        out[start:stop] = cols[order][first[:, None] + np.arange(k)]
    return out


def train(features: np.ndarray, label_flags: np.ndarray, params: QmlcParams) -> TrainedClassifier:
    """Fit QMLC on (m, w) feature rows with (m, l) boolean label flags."""
    features = np.asarray(features, dtype=float)
    label_flags = np.asarray(label_flags, dtype=bool)
    if features.ndim != 2 or label_flags.ndim != 2 or features.shape[0] != label_flags.shape[0]:
        raise InvalidInputError(
            f"features {features.shape} and label flags {label_flags.shape} must align on samples"
        )
    m = features.shape[0]
    k, s = params.k, params.s

    n_labels = label_flags.shape[1]
    prior_pos = (s + label_flags.sum(axis=0)) / (2.0 * s + m)

    # psi[i, j]: carriers of label j among sample i's k nearest neighbors,
    # the sample itself excluded from its own neighborhood
    neighbors = _neighbor_indices(features, features, k, exclude_self=True)
    psi = label_flags[neighbors].sum(axis=1)  # (m, l)

    counts_pos = np.zeros((n_labels, k + 1))
    counts_neg = np.zeros((n_labels, k + 1))
    for j in range(n_labels):
        pos = label_flags[:, j]
        counts_pos[j] = np.bincount(psi[pos, j], minlength=k + 1)
        counts_neg[j] = np.bincount(psi[~pos, j], minlength=k + 1)

    return TrainedClassifier(params, features, label_flags, prior_pos, counts_pos, counts_neg)


def posterior_ratios(clf: TrainedClassifier, queries: np.ndarray) -> np.ndarray:
    """f(x, y_j) for each query row and label, shape (n, l)."""
    queries = np.asarray(queries, dtype=float)
    neighbors = _neighbor_indices(queries, clf.features, clf.params.k)
    c = clf.label_flags[neighbors].sum(axis=1)  # (n, l)
    labels_idx = np.arange(c.shape[1])
    numer = clf.prior_pos[None, :] * clf.cond_pos[labels_idx, c]
    denom = clf.prior_neg[None, :] * clf.cond_neg[labels_idx, c]
    return numer / denom


def predict_batch(clf: TrainedClassifier, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratios (n, l), flags (n, l)) with flags = ratios > t."""
    ratios = posterior_ratios(clf, queries)
    return ratios, ratios > clf.params.t
