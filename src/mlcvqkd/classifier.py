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
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, InvalidParameterError, NumericalDomainError, array, instance, integer,
                     real_number)

_NEIGHBOR_BLOCK_BYTES = 2 * 2**20  # memory of one batch of the neighbour search


@dataclass(frozen=True)
class QmlcParams:
    """k neighbors, Laplace smoothing s, posterior-ratio threshold t; k is
    stored as a Python int, s and t as Python floats."""

    k: int
    s: float = 1.0
    t: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k", integer("k", self.k))
        if self.k < 1:
            raise InvalidParameterError(f"k must be a positive integer, got {self.k!r}")
        for name, what in (("s", "smoothing s"), ("t", "threshold t")):
            value = real_number(what, getattr(self, name))
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{what} must be a finite positive number, got {value!r}")
            object.__setattr__(self, name, value)


class TrainedClassifier:
    """Immutable result of QMLC training.

    Holds the training features and label flags (the kNN index), the
    priors, the raw per-count tables and the smoothed conditionals. The
    checks here serve train, from_json_dict and direct construction alike:
    each prior must lie in [0, 1), and the counts must be finite,
    nonnegative and of finite row sums. A prior of 0 is what train makes of
    an absent label when the smoothing s underflows; one of 1 or more would
    leave P(not H_j) at 0 or below (train raises NumericalDomainError for a
    smoothed prior that rounds to 1).
    """

    def __init__(self, params, features, label_flags, prior_pos, counts_pos, counts_neg):
        instance("params", params, QmlcParams)
        k, s = params.k, params.s
        features = array("features", features, (None, None))
        label_flags = array("label_flags", label_flags, (len(features), None), bool)
        n_labels = label_flags.shape[1]
        counts = [array(name, c, (n_labels, k + 1))
                  for name, c in (("counts_pos", counts_pos), ("counts_neg", counts_neg))]
        if not all(((c >= 0) & (c < math.inf)).all() for c in counts):
            raise InvalidInputError("counts must be finite and nonnegative")
        with np.errstate(over="ignore"):  # a row sum past the float range is inf, and rejected
            sums = [c.sum(axis=1, keepdims=True) for c in counts]
        if not all(np.isfinite(total).all() for total in sums):
            raise InvalidInputError("each row of counts must sum to a finite number")
        prior_pos = array("prior_pos", prior_pos, (n_labels,))
        if not ((prior_pos >= 0) & (prior_pos < 1)).all():  # NaN fails too
            raise InvalidInputError(f"each prior_pos must be in [0, 1), got {prior_pos.tolist()}")
        self.params = params
        self.features = features
        self.label_flags = label_flags
        self.prior_pos = prior_pos                  # P(H_j), shape (l,)
        self.prior_neg = 1.0 - prior_pos            # P(not H_j)
        self.counts_pos, self.counts_neg = counts   # sigma_j[r] and sigma-bar_j[r], shape (l, k+1)
        # smoothed conditionals P(C_j = r | H_j) and P(C_j = r | not H_j)
        self.cond_pos, self.cond_neg = ((s + c) / (s * (k + 1) + total) for c, total in zip(counts, sums))

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
            return cls(params, *(doc[name] for name in ("features", "label_flags", "prior_pos", "counts_pos",
                                                        "counts_neg")))
        except (KeyError, TypeError, ValueError) as exc:  # the constructor's errors are ValueErrors
            raise InvalidInputError(f"classifier document has a missing or mistyped field: {exc}") from None


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
                # per window: the Gram block, its copy of valid rows and the partition's copy (8 bytes an
                # entry each), the exclude-self mask (1 byte an entry), and the gathered query and training
                # rows with their indices
                if (stop - start + 1) * (25 * grown * widths[stop] + 8 * (grown + widths[stop]) * (self.w + 1)) \
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


def _recheck(queries, training, candidates, counts, k):
    """Each query's first k candidates by (direct distance, index), in
    ascending index order, and the k-th of those distances, infinite for a
    query with fewer than k candidates.

    candidates holds the queries' candidate training rows one query after
    another, counts[i] of them for query i, each query's in ascending
    order. They are laid out in one padded (queries x candidates) index, m
    marking no candidate, so a stable sort of their direct distances
    breaks ties to the lower index.
    """
    m = training.shape[0]
    slot = np.arange(len(candidates)) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.full((len(counts), max(k, counts.max())), m, dtype=np.intp)
    index[np.repeat(np.arange(len(counts)), counts), slot] = candidates
    diff = queries[:, None, :] - np.take(training, index, axis=0, mode="clip")
    dist = np.where(index < m, np.sqrt(np.sum(diff * diff, axis=-1)), np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    nearest = np.sort(np.take_along_axis(index, order, axis=1), axis=1)
    return nearest, np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]


def _nearest_in_windows(queries, training, minus_twice_t, train_sq, query_sq, gram_slack, k, exclude_self,
                        query_idx, n_queries, window_rows):
    """The first k of each query within its window, as a set in ascending
    index order, and a bound on its k-th distance.

    query_idx (g, most) holds each window's queries, the first n_queries of
    a row valid; window_rows (g, width) holds each window's training rows
    in ascending order, padded with m. Returns the valid queries, their
    (n, k) neighbours and their reaches: bounds on the direct k-th
    distance, never below it, and infinite when a window holds fewer than
    k rows.

    A query with exactly k Gram candidates takes them as its answer: every
    row that the direct formula ranks in the first k, or ties with its
    k-th, is a candidate, so no other row can be. Its reach is
    sqrt(kth + |q|^2 + gram_slack), kth being its k-th Gram value less
    |q|^2. Each of the k candidates has a Gram value of at most kth, and
    the two formulas' squared distances differ by at most half of
    gram_slack, so the direct k-th squared distance is at most
    kth + |q|^2 + gram_slack / 2. The other half covers the rounding of
    the two sums, and a correctly rounded sqrt is monotone. The other
    queries (a tie within the slack, or a window of fewer than k rows) go
    through _recheck, whose reach is the direct k-th distance itself.
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
    n = len(q)
    kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
    bound = np.where(np.isfinite(kth), kth + gram_slack[q], -np.inf)
    # row-major, so each query's candidates come in the ascending order of its window's rows
    rows, pos = np.divmod(np.flatnonzero(gram <= bound[:, None]), window_rows.shape[1])
    candidates = window_rows[np.repeat(np.arange(g), n_queries)[rows], pos]
    reach = np.sqrt(kth + query_sq[q] + gram_slack[q])
    if len(rows) == n * k and (rows.reshape(n, k) == np.arange(n)[:, None]).all():
        return q, candidates.reshape(n, k), reach

    counts = np.bincount(rows, minlength=n)
    exact = counts == k
    nearest = np.empty((n, k), dtype=np.intp)
    nearest[exact] = candidates[exact[rows]].reshape(-1, k)
    recheck = ~exact
    nearest[recheck], reach[recheck] = _recheck(queries[q[recheck]], training, candidates[recheck[rows]],
                                                counts[recheck], k)
    return q, nearest, reach


def _neighbor_indices(queries, training, k, exclude_self=False):
    """Indices (n, k) of each query's k nearest training rows, as a set:
    each row in ascending index order.

    Exact contract: each row holds the first k entries of a stable argsort
    of the query's distances sqrt(sum((q - t)**2)), evaluated with exactly
    that expression, sorted by index. Equal distances at the k-th
    therefore go to the lower training index. The order of the neighbours
    is not kept, since the callers (train, posterior_ratios) only count
    label carriers among them. With exclude_self, query row i is assumed
    to be training row i and is skipped. k must be smaller than the number
    of training rows, and every feature must be finite.

    The search looks only at the training rows that project near a query.
    The rows are bucketed on a square grid over their projection onto the
    top two principal axes of the centred training features, about k rows
    a cell. An orthonormal projection never makes a distance larger
    (Friedman, Baskett & Shustek, IEEE Trans. Comput. C-24 (1975) 1000), so
    a row whose projection lies farther from the query's than the query's
    k-th distance cannot rank in its first k. Each query is first searched
    among the rows of the 3 x 3 cells around its own. It is accepted when
    its reach there, a bound never below its k-th distance (see
    _nearest_in_windows), plus a rounding bound on the projection, is
    below the projected distance to the nearest cell outside that window:
    then every row outside is strictly farther than the k-th, ties
    included. Otherwise it is searched again in a window wide enough for
    that reach. A window covering the whole grid is always accepted; it is
    the search over every row. Queries with the same window are searched
    together, in batches of windows whose arrays (the Gram block and its
    copies, the exclude-self mask, the gathered rows) stay within
    _NEIGHBOR_BLOCK_BYTES, 2 MB, unless the batch is a single window: a
    window is never split.

    Within a window the search runs in two stages. The Gram expansion
    |q|^2 + |t|^2 - 2 q.t gives every squared distance with one matrix
    product, but its rounding differs from the direct formula, so by
    itself it could break a tie at the k-th the other way. It only selects
    candidates: each row whose Gram value is within a rounding bound of
    the k-th smallest. The bound covers the error of both formulas, so
    every row the direct formula ranks in the first k, or ties with its
    k-th, is a candidate. A query with exactly k candidates therefore has
    its answer; on a default session that is nearly every query. The
    others are re-checked: their candidates' distances are recomputed
    with the direct formula and the first k by (distance, index) kept.
    Distances are compared after the square root, as the direct search
    does: sqrt can merge two squared distances one ulp apart into a tie,
    which then goes to the lower index.
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
            q, nearest, reach = _nearest_in_windows(queries, training, minus_twice_t, train_sq, query_sq,
                                                    gram_slack, k, exclude_self, query_idx, n_queries, window_rows)
            reach += grid.slack[q]
            done = reach < grid.gaps(q, radius[q])
            out[q[done]] = nearest[done]
            q, reach = q[~done], reach[~done]
            radius[q] = np.maximum(grid.radius_reaching(q, reach), radius[q] + 1)
            retry.append(q)
        pending = np.concatenate(retry)
    return out


def train(features: np.ndarray, label_flags: np.ndarray, params: QmlcParams) -> TrainedClassifier:
    """Fit QMLC on (m, w) feature rows with (m, l) boolean label flags."""
    instance("params", params, QmlcParams)
    features = array("features", features, (None, None))
    m = features.shape[0]
    label_flags = array("label_flags", label_flags, (m, None), bool)
    k, s = params.k, params.s

    n_labels = label_flags.shape[1]
    prior_pos = (s + label_flags.sum(axis=0)) / (2.0 * s + m)
    if (prior_pos == 1.0).any():  # a label every row carries, with s below m's rounding: P(not H_j) = 0
        raise NumericalDomainError("a smoothed prior rounds to 1", s=s)

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
    instance("clf", clf, TrainedClassifier)
    queries = array("queries", queries, (None, None))
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
