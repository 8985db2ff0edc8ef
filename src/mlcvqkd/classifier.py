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

from .errors import InvalidInputError, InvalidParameterError, NumericalDomainError

_NEIGHBOR_BLOCK_BYTES = 8 * 2**20  # memory of one batch of the neighbour search


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


def _concat_ranges(starts, lengths):
    """The concatenation of arange(s, s + n) over paired starts and lengths."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


class _ProjectionGrid:
    """Training rows bucketed on a square grid over their projection onto
    the top two principal axes of the centred training features, and the
    queries projected the same way.

    The axes are orthonormal, so a projected distance is never larger than
    the feature distance. With w = 1 the second coordinate is zero and the
    grid is one row of cells.
    """

    def __init__(self, training, queries, k):
        m, w = training.shape
        self.k, self.w = k, w
        mean = training.mean(axis=0)
        centred = training - mean
        centred_q = queries - mean
        _, vectors = np.linalg.eigh(centred.T @ centred)
        axes = np.zeros((w, 2))
        axes[:, : min(2, w)] = vectors[:, ::-1][:, :2]
        projected = centred @ axes
        self.queries = centred_q @ axes
        # bounds the rounding of the projections, of the cell edges and of
        # the direct distance, and the departure of the axes from orthonormal
        radius = np.sqrt(np.einsum("ij,ij->i", centred, centred).max())
        self.slack = 8.0 * (w + 4) * np.finfo(float).eps * (
            np.sqrt(np.einsum("ij,ij->i", centred_q, centred_q)) + radius)

        # about k training rows a cell, and at most 3 m / k + 1 cells however
        # thin the projection is
        self.lo = projected.min(axis=0)
        span = projected.max(axis=0) - self.lo
        n_cells = max(1, m // k)
        side = max(math.sqrt(span[0] * span[1] / n_cells), span.max() / n_cells)
        self.side = side if side > 0 else 1.0
        self.shape = (span // self.side).astype(np.intp) + 1
        cells = self._cells(projected)
        cell = np.ravel_multi_index((cells[:, 1], cells[:, 0]), self.shape[::-1])
        self.rows_by_cell = np.argsort(cell, kind="stable")
        self.cell_start = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=self.shape.prod()))))
        self.query_cells = self._cells(self.queries)

    def _cells(self, points):
        return np.clip(np.floor((points - self.lo) / self.side), 0, self.shape - 1).astype(np.intp)

    def window_batches(self, pending, radius):
        """The pending queries, grouped by their window of cells within the
        given radius of their own, in batches for _nearest_in_windows:
        (query_idx, n_queries, window_rows). Windows go in order of size, so
        a batch pads little, and a batch's arrays stay within
        _NEIGHBOR_BLOCK_BYTES unless it is a single window."""
        m = len(self.rows_by_cell)
        cells, r = self.query_cells[pending], radius[:, None]
        first, last = np.maximum(cells - r, 0), np.minimum(cells + r, self.shape - 1)
        nx, ny = self.shape
        key = np.ravel_multi_index((first[:, 1], last[:, 1], first[:, 0], last[:, 0]), (ny, ny, nx, nx))
        _, one, window, n_queries = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
        first, last = first[one], last[one]
        # a window's rows: in each of its rows of cells, one run of the buckets
        n_runs = last[:, 1] - first[:, 1] + 1
        run_window = np.repeat(np.arange(len(one)), n_runs)
        run_row = _concat_ranges(first[:, 1], n_runs) * nx
        begin = self.cell_start[run_row + first[run_window, 0]]
        end = self.cell_start[run_row + last[run_window, 0] + 1]
        size = np.bincount(run_window, weights=end - begin, minlength=len(one)).astype(np.intp)
        rows = np.append(self.rows_by_cell[_concat_ranges(begin, end - begin)], m)  # m: the pad
        offset = np.cumsum(size) - size

        by_size = np.argsort(size, kind="stable")
        pending = pending[np.lexsort((window, size[window]))]
        n_queries, size, offset = n_queries[by_size], size[by_size], offset[by_size]
        query_offset = np.cumsum(n_queries) - n_queries
        width = np.maximum(size, self.k)
        counts, widths = n_queries.tolist(), width.tolist()  # plain ints: the loop runs once a window
        start = 0
        while start < len(counts):
            most, stop = counts[start], start + 1
            while stop < len(counts):
                grown = max(most, counts[stop])
                # the Gram block, its copy of valid rows and the partition's copy, and the gathered rows
                if 8 * (stop - start + 1) * (3 * grown * widths[stop] + (grown + widths[stop]) * self.w) \
                        > _NEIGHBOR_BLOCK_BYTES:
                    break
                most, stop = grown, stop + 1
            # a window with fewer than `most` queries is padded with other ones, marked invalid by n_queries
            query_idx = pending[np.minimum(query_offset[start:stop, None] + np.arange(most), len(pending) - 1)]
            slot = np.arange(width[stop - 1])
            in_window = slot < size[start:stop, None]
            window_rows = rows[np.minimum(offset[start:stop, None] + slot, len(rows) - 1)]
            yield query_idx, n_queries[start:stop], np.sort(np.where(in_window, window_rows, m), axis=1)
            start = stop

    def gaps(self, q, radius):
        """Projected distance from each query to the cells outside its window
        of the given radius; infinite when the window covers the grid."""
        cells, r, p = self.query_cells[q], radius[:, None], self.queries[q]
        left = np.where(cells - r <= 0, -np.inf, self.lo + (cells - r) * self.side)
        right = np.where(cells + r >= self.shape - 1, np.inf, self.lo + (cells + r + 1) * self.side)
        return np.minimum(p - left, right - p).min(axis=1)

    def radius_reaching(self, q, reach):
        """The least radius whose window's edges lie beyond reach of each
        query's projection, capped where the window covers the grid."""
        cells, p, reach = self.query_cells[q], self.queries[q], reach[:, None]
        left = np.floor(cells - (p - reach - self.lo) / self.side) + 1
        right = np.floor((p + reach - self.lo) / self.side) - cells
        return np.minimum(np.maximum(left, right).max(axis=1), self.shape.max()).astype(np.intp)


def _nearest_in_windows(queries, training, minus_twice_t, train_sq, gram_slack, k, exclude_self,
                        query_idx, n_queries, window_rows):
    """The first k of each query within its window, and its k-th distance.

    query_idx (g, most) holds each window's queries, the first n_queries of
    a row valid; window_rows (g, width) holds each window's training rows
    in ascending order, padded with m. Returns the valid queries, their
    (n, k) neighbours and their k-th distances, infinite when a window
    holds fewer than k rows.
    """
    m = training.shape[0]
    g, most = query_idx.shape
    # |t|^2 - 2 q.t: the Gram distance less |q|^2, which ranks a row the same
    gram = np.matmul(queries[query_idx],
                     np.take(minus_twice_t, window_rows, axis=0, mode="clip").transpose(0, 2, 1))
    gram += np.where(window_rows < m, np.take(train_sq, window_rows, mode="clip"), np.inf)[:, None, :]
    if exclude_self:
        gram[query_idx[:, :, None] == window_rows[:, None, :]] = np.inf
    valid = (np.arange(most) < n_queries[:, None]).ravel()
    gram = gram.reshape(g * most, -1)[valid]
    q = query_idx.ravel()[valid]
    kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
    bound = np.where(np.isfinite(kth), kth + gram_slack[q], -np.inf)
    rows, pos = np.nonzero(gram <= bound[:, None])

    # the re-check: candidates stay in ascending index within a row, so a
    # stable sort of their direct distances breaks ties to the lower index
    cols = window_rows[np.repeat(np.arange(g), n_queries)[rows], pos]
    diff = queries[q[rows]] - training[cols]
    per_row = np.bincount(rows, minlength=len(q))
    slot = np.arange(len(rows)) - (np.cumsum(per_row) - per_row)[rows]
    dist = np.full((len(q), max(k, per_row.max(initial=0))), np.inf)
    dist[rows, slot] = np.sqrt(np.sum(diff * diff, axis=-1))
    index = np.zeros(dist.shape, dtype=np.intp)
    index[rows, slot] = cols
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return q, np.take_along_axis(index, order, axis=1), np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]


def _neighbor_indices(queries, training, k, exclude_self=False):
    """Indices (n, k) of each query's k nearest training rows, nearest first.

    Exact contract: the result equals a stable argsort of every query's
    row of distances sqrt(sum((q - t)**2)), evaluated with exactly that
    expression, cut to its first k entries. Equal distances therefore go
    to the lower training index. With exclude_self, query row i is
    assumed to be training row i and is skipped. k must be smaller than
    the number of training rows, and every feature must be finite.

    The search looks only at the training rows that project near a query.
    The rows are bucketed on a square grid over their projection onto the
    top two principal axes of the centred training features, about k rows
    a cell. An orthonormal projection never makes a distance larger
    (Friedman, Baskett & Shustek, IEEE Trans. Comput. C-24 (1975) 1000), so
    a row whose projection lies farther from the query's than the query's
    k-th distance cannot rank in its first k. Each query is first searched
    among the rows of the 3 x 3 cells around its own. It is accepted when
    its k-th distance there, plus a rounding bound on the projection, is
    below the projected distance to the nearest cell outside that window:
    then every row outside is strictly farther than the k-th, ties
    included. Otherwise it is searched again in a window wide enough for
    that k-th distance. A window covering the whole grid is always
    accepted; it is the search over every row. Queries with the same
    window are searched together, in batches of windows whose arrays stay
    within _NEIGHBOR_BLOCK_BYTES.

    Within a window the search runs in two stages. The Gram expansion
    |q|^2 + |t|^2 - 2 q.t gives every squared distance with one matrix
    product, but its rounding differs from the direct formula, so by
    itself it could swap near-equal neighbours or break a tie the other
    way. It only selects candidates: each row whose Gram value is within a
    rounding bound of the k-th smallest. The bound covers the error of
    both formulas, so every row the direct formula ranks in the first k is
    a candidate. The re-check recomputes the candidates' distances with
    the direct formula and orders them by (distance, index). Distances are
    compared after the square root, as the direct search does: sqrt can
    merge two squared distances one ulp apart into a tie, which then goes
    to the lower index.
    """
    n, w = queries.shape
    m = training.shape[0]
    if k >= m:
        raise InvalidParameterError(f"k={k} must be smaller than the training size {m}")
    if training.shape[1] != w:
        raise InvalidInputError(f"queries have {w} features, the training rows {training.shape[1]}")
    train_sq = np.einsum("ij,ij->i", training, training)
    query_sq = np.einsum("ij,ij->i", queries, queries)
    if not (np.isfinite(train_sq).all() and np.isfinite(query_sq).all()):
        raise InvalidInputError("the neighbour search needs finite features")
    # twice the worst rounding gap between the two formulas, sqrt ties included
    gram_slack = 8.0 * (w + 4) * np.finfo(float).eps * (query_sq + train_sq.max())
    minus_twice_t = -2.0 * training  # exact scaling
    grid = _ProjectionGrid(training, queries, k)

    out = np.empty((n, k), dtype=np.intp)
    pending = np.arange(n)
    radius = np.ones(n, dtype=np.intp)
    while pending.size:
        retry = []
        for query_idx, n_queries, window_rows in grid.window_batches(pending, radius[pending]):
            q, nearest, kth = _nearest_in_windows(queries, training, minus_twice_t, train_sq, gram_slack, k,
                                                  exclude_self, query_idx, n_queries, window_rows)
            reach = kth + grid.slack[q]
            done = reach < grid.gaps(q, radius[q])
            out[q[done]] = nearest[done]
            q, reach = q[~done], reach[~done]
            radius[q] = np.maximum(grid.radius_reaching(q, reach), radius[q] + 1)
            retry.append(q)
        pending = np.concatenate(retry)
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
    """f(x, y_j) for each query row and label, shape (n, l); a ratio past
    the float range (from a tiny smoothing s) is a NumericalDomainError."""
    queries = np.asarray(queries, dtype=float)
    neighbors = _neighbor_indices(queries, clf.features, clf.params.k)
    c = clf.label_flags[neighbors].sum(axis=1)  # (n, l)
    labels_idx = np.arange(c.shape[1])
    numer = clf.prior_pos[None, :] * clf.cond_pos[labels_idx, c]
    denom = clf.prior_neg[None, :] * clf.cond_neg[labels_idx, c]
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return numer / denom
    except FloatingPointError:  # a tiny smoothing s underflows a denominator to 0
        raise NumericalDomainError("posterior ratio is not finite", s=clf.params.s) from None


def predict_batch(clf: TrainedClassifier, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratios (n, l), flags (n, l)) with flags = ratios > t."""
    ratios = posterior_ratios(clf, queries)
    return ratios, ratios > clf.params.t
