import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcvqkd import classifier
from mlcvqkd.channel import RandomSource
from mlcvqkd.classifier import (
    QmlcParams,
    TrainedClassifier,
    _neighbor_indices,
    posterior_ratios,
    predict_batch,
    train,
)
from mlcvqkd.errors import InvalidInputError, InvalidParameterError, NumericalDomainError
from mlcvqkd.features import extract_batch
from mlcvqkd.protocol import SessionConfig, state_learning
from mlcvqkd.statespace import ModulationKind, build_scheme
from oracles import BruteForceMultiLabelKnn, stable_argsort_neighbors


def label_set(flag_row):
    return frozenset(int(j + 1) for j in np.flatnonzero(flag_row))


def flags_from_sets(labelsets, n_labels=4):
    out = np.zeros((len(labelsets), n_labels), dtype=bool)
    for i, ls in enumerate(labelsets):
        for j in ls:
            out[i, j - 1] = True
    return out


def three_cluster_fixture():
    """Twelve samples in three tight squares; every sample's three nearest
    neighbors are exactly its own cluster mates, so all count tables are
    predictable by hand."""
    corners = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]
    points, labelsets = [], []
    for shift, labels in [(0.0, {1}), (1.0, {1, 2}), (2.0, {2})]:
        for cx, cy in corners:
            points.append((cx + shift, cy))
            labelsets.append(labels)
    return np.array(points), labelsets


def drawn_search(seed, w, m, kind):
    """(queries, training, k) drawn from one of four fixture kinds: integer
    lattices, the same 1e4 away, duplicated normal rows, and rows 1e-3
    apart at 1e4."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    k = int(rng.integers(1, m))
    if kind in ("lattice", "offset"):
        # small integer coordinates: many exact ties across the k boundary
        training = rng.integers(-2, 3, size=(m, w)).astype(float)
        queries = rng.integers(-2, 3, size=(n, w)).astype(float)
        if kind == "offset":
            # a common offset makes |q|^2 + |t|^2 - 2 q.t cancel badly
            training += 1e4
            queries += 1e4
    elif kind == "duplicates":
        training = rng.normal(size=(m, w))
        training[rng.integers(0, m, size=m // 2)] = training[rng.integers(0, m, size=m // 2)]
        queries = training[rng.integers(0, m, size=n)]
    else:
        # distinct points 1e-3 apart at 1e4: rounding noise near the gaps
        training = 1e4 + 1e-3 * rng.normal(size=(m, w))
        queries = training[rng.integers(0, m, size=n)] + 1e-12 * rng.normal(size=(n, w))
    return queries, training, k


DRAWN_SEARCHES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    w=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=2, max_value=60),
    kind=st.sampled_from(["lattice", "offset", "duplicates", "offset-cluster"]),
)


@functools.cache
def default_session_search():
    """(queries, training, k) of the query search of a default session:
    10 000 testing rows against 5000 training rows, k 9."""
    config = SessionConfig()
    outcome = state_learning(config, RandomSource(20240901))
    testing = extract_batch(outcome.test_received, config.scheme.points)
    return testing, outcome.classifier.features, config.qmlc.k


def nearest(x, training, k):
    """The k training indices nearest to one point x, as a set in ascending
    index order."""
    return _neighbor_indices(np.array([x], dtype=float), np.array(training, dtype=float), k)[0].tolist()


class TestNeighborSearch:
    def test_nearest_first(self):
        # the two nearest, rows 2 then 1, come as a set in index order
        assert nearest([0.0, 0.0], [[3.0, 0.0], [2.0, 0.0], [1.0, 0.0]], 2) == [1, 2]

    def test_tie_goes_to_lower_index(self):
        training = [[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]]
        assert nearest([0.0, 0.0], training, 1) == [0]
        assert nearest([0.0, 0.0], training, 2) == [0, 1]

    def test_tie_after_the_square_root_goes_to_lower_index(self):
        # row 0's squared distance is one ulp above row 1's, and sqrt merges
        # the two, so the direct formula sees a tie
        training = [[np.nextafter(1.0, 2.0), 1.0], [1.0, 1.0], [5.0, 5.0]]
        assert nearest([0.0, 0.0], training, 2) == [0, 1]

    def test_k_must_be_below_training_size(self):
        with pytest.raises(InvalidParameterError):
            nearest([0.0, 0.0], np.ones((3, 2)), 3)

    def test_query_on_training_point_finds_itself(self):
        assert nearest([0.0, 0.0], [[0.0, 0.0], [9.0, 9.0], [9.0, -9.0]], 1) == [0]

    def test_feature_widths_must_agree(self):
        with pytest.raises(InvalidInputError):
            _neighbor_indices(np.zeros((2, 3)), np.ones((5, 2)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        training = np.arange(10.0).reshape(5, 2)
        with pytest.raises(InvalidInputError):
            nearest([bad, 0.0], training, 1)
        training[3, 1] = bad
        with pytest.raises(InvalidInputError):
            nearest([0.0, 0.0], training, 1)

    def test_chunked_search_matches_unchunked(self, monkeypatch):
        # a 256-query block budget, so the 600 queries run in several blocks
        monkeypatch.setattr(classifier, "_NEIGHBOR_BLOCK_BYTES", 256 * 40 * 8)
        rng = np.random.default_rng(3)
        training = rng.normal(size=(40, 2))
        queries = rng.normal(size=(600, 2))
        flags = rng.random((40, 4)) < 0.4
        clf = train(training, flags, QmlcParams(k=3))
        whole = posterior_ratios(clf, queries)
        parts = np.vstack([posterior_ratios(clf, queries[i : i + 97]) for i in range(0, 600, 97)])
        np.testing.assert_array_equal(whole, parts)


class TestNeighborSearchIsExact:
    """The candidate-and-re-check search returns exactly the set of the
    first k of a stable argsort over every distance, each row in index
    order: which rows win a tie at the k-th distance is checked exactly."""

    @staticmethod
    def _assert_matches_oracle(queries, training, k):
        np.testing.assert_array_equal(
            _neighbor_indices(queries, training, k), np.sort(stable_argsort_neighbors(queries, training, k), axis=1)
        )
        np.testing.assert_array_equal(
            _neighbor_indices(training, training, k, exclude_self=True),
            np.sort(stable_argsort_neighbors(training, training, k, exclude_self=True), axis=1),
        )

    @given(**DRAWN_SEARCHES, block_bytes=st.sampled_from([1, 200, 4096, 2**23]))
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort(self, seed, w, m, kind, block_bytes):
        # small byte budgets split the queries into many blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "_NEIGHBOR_BLOCK_BYTES", block_bytes)
            self._assert_matches_oracle(*drawn_search(seed, w, m, kind))

    @given(**DRAWN_SEARCHES)
    @settings(max_examples=100, deadline=None)
    def test_reach_is_never_below_the_kth_distance(self, seed, w, m, kind):
        # a window is accepted on the reach, so a reach below the direct k-th distance of the rows it
        # returned could accept a window that misses a nearer row
        queries, training, k = drawn_search(seed, w, m, kind)
        search = classifier._nearest_in_windows
        checked = []

        def checking(queries, training, *args):
            q, nearest, reach = search(queries, training, *args)
            found = np.isfinite(reach)  # infinite: a window of fewer than k rows, whose rows are no answer
            diff = queries[q[found]][:, None, :] - training[nearest[found]]
            assert (reach[found] >= np.sqrt(np.sum(diff * diff, axis=-1)).max(axis=1)).all()
            checked.append(int(found.sum()))
            return q, nearest, reach

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "_nearest_in_windows", checking)
            _neighbor_indices(queries, training, k)
            _neighbor_indices(training, training, k, exclude_self=True)
        assert sum(checked) >= len(queries) + len(training)

    def test_a_tie_at_the_kth_distance_is_re_checked(self, monkeypatch):
        # rows 0, 2 and 4 are one point, all at the second distance from the query: three Gram
        # candidates for one place, so the query goes through the re-check, which keeps row 0
        training = np.array([[2.0, 0.0], [9.0, 9.0], [2.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        recheck = classifier._recheck
        rechecked = []

        def counting(queries, *args):
            rechecked.append(len(queries))
            return recheck(queries, *args)

        monkeypatch.setattr(classifier, "_recheck", counting)
        assert _neighbor_indices(np.zeros((1, 2)), training, 2).tolist() == [[0, 3]]
        assert rechecked == [1]

    def test_a_query_unaccepted_at_a_window_covering_the_grid_raises(self, monkeypatch):
        # infinite reaches are never accepted; the retry loop once searched such a query forever
        search = classifier._nearest_in_windows

        def unreachable(*args):
            q, nearest, reach = search(*args)
            return q, nearest, np.full_like(reach, np.inf)

        monkeypatch.setattr(classifier, "_nearest_in_windows", unreachable)
        queries, training, k = drawn_search(0, 3, 60, "duplicates")
        with pytest.raises(RuntimeError, match="covers the grid"):
            _neighbor_indices(queries, training, k)

    def test_matches_stable_argsort_on_a_default_session(self):
        self._assert_matches_oracle(*default_session_search())

    def test_default_query_search_peaks_under_6_mb(self):
        # the 2 MB batch budget; with 8 MB batches this search peaked at 8.9 MB
        queries, training, k = default_session_search()
        tracemalloc.start()
        try:
            _neighbor_indices(queries, training, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestNeighborSearchOnAGrid:
    """Training sets large enough for the projection grid to prune: each
    case must still match the stable argsort over every distance, for the
    query search and the self-search alike."""

    M = 2000
    _assert_matches_oracle = staticmethod(TestNeighborSearchIsExact._assert_matches_oracle)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_lattice_ties_and_duplicates_across_cells(self, offset):
        # 2000 rows on 30 x 30 x 3 lattice points: duplicates in every cell
        # and equal distances across the k boundary; the offset makes
        # |q|^2 + |t|^2 - 2 q.t cancel badly
        rng = np.random.default_rng(11)
        training = rng.integers(0, [30, 30, 3], size=(self.M, 3)).astype(float) + offset
        queries = np.vstack([training[rng.integers(0, self.M, size=150)],
                             rng.integers(0, [30, 30, 3], size=(150, 3)) + 0.5 + offset])
        for k in (1, 9, 40):
            self._assert_matches_oracle(queries, training, k)

    @pytest.mark.parametrize("value", [0.0, 0.1])
    def test_all_equal_features(self, value):
        # zero singular values: the projection has no area, and every
        # distance from a query on the point ties
        training = np.full((self.M, 4), value)
        rng = np.random.default_rng(12)
        queries = np.vstack([training[:50], value + rng.normal(size=(50, 4))])
        self._assert_matches_oracle(queries, training, 9)

    def test_one_feature(self):
        rng = np.random.default_rng(13)
        training = np.round(rng.normal(size=(self.M, 1)), 2)  # rounded: many duplicates
        queries = np.vstack([training[:100], rng.normal(scale=2.0, size=(100, 1))])
        self._assert_matches_oracle(queries, training, 9)

    def test_collinear_references(self):
        # distances to references on one line, from points on that line past
        # them: every feature is the position plus a constant, a rank-1 set
        rng = np.random.default_rng(14)
        references = np.array([-10.0, -9.0, -7.5, -6.0, -6.0])
        positions = rng.uniform(0.0, 5.0, size=self.M)
        training = np.abs(positions[:, None] - references)
        queries = np.abs(rng.uniform(-1.0, 6.0, size=200)[:, None] - references)
        self._assert_matches_oracle(queries, training, 9)

    def test_queries_outside_the_projected_hull(self, monkeypatch):
        # a flat square cloud, queries near its rows and on its edges, far
        # outside it in the projection, and above it along an axis the
        # projection drops
        rng = np.random.default_rng(15)
        training = rng.uniform(-10.0, 10.0, size=(self.M, 5)) * [1.0, 1.0, 0.01, 0.01, 0.01]
        inside = training[rng.integers(0, self.M, size=200)] + rng.normal(scale=0.05, size=(200, 5))
        far = np.array([[500.0, 0, 0, 0, 0], [-80.0, 90.0, 0, 0, 0], [0, -45.0, 0, 0, 0]])
        above = inside[:20] + [0, 0, 30.0, 0, 0]
        queries = np.vstack([inside, far, above])

        looked_at = []
        search = classifier._nearest_in_windows

        def counting(*args):
            query_idx, n_queries, window_rows = args[-3:]
            looked_at.append(int(n_queries.sum()) * window_rows.shape[1])
            return search(*args)

        monkeypatch.setattr(classifier, "_nearest_in_windows", counting)
        self._assert_matches_oracle(queries, training, 9)
        # the grid pruned: all queries of both searches together looked at
        # fewer than a tenth of the rows a full search reads
        assert sum(looked_at) < 0.1 * (len(queries) + self.M) * self.M


class TestLabelCounts:
    """C_j from label flags packed into uint64 lanes equals the plain sum of
    the neighbours' flags, across the 8 -> 16-bit lane at k = 256 and
    across words (eight 8-bit lanes a word)."""

    @given(k=st.integers(1, 300), n_labels=st.integers(0, 10), n=st.integers(0, 50), m=st.integers(1, 40),
           carried=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equal_the_sums_of_the_neighbours_flags(self, k, n_labels, n, m, carried, seed):
        rng = np.random.default_rng(seed)
        flags = rng.random((m, n_labels)) < carried
        neighbors = rng.integers(0, m, size=(n, k))
        counts = classifier._label_counts(flags, neighbors)
        assert counts.dtype == np.intp
        np.testing.assert_array_equal(counts, flags[neighbors].sum(axis=1))

    @pytest.mark.parametrize("k", [255, 256, 2**16])
    def test_full_lanes_do_not_carry(self, k):
        flags = np.ones((3, 10), dtype=bool)
        assert classifier._label_counts(flags, np.zeros((2, k), dtype=np.intp)).tolist() == [[k] * 10] * 2


class TestTraining:
    def test_priors_are_smoothed_carrier_fractions(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        np.testing.assert_allclose(clf.prior_pos, [9 / 14, 9 / 14, 1 / 14, 1 / 14])
        np.testing.assert_allclose(clf.prior_neg, [5 / 14, 5 / 14, 13 / 14, 13 / 14])

    def test_count_tables_from_hand_worked_clusters(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        # label 1: eight carriers each see three carrier neighbors, four
        # non-carriers see none; label 2 mirrors it; labels 3/4 are empty
        np.testing.assert_array_equal(clf.counts_pos[0], [0, 0, 0, 8])
        np.testing.assert_array_equal(clf.counts_neg[0], [4, 0, 0, 0])
        np.testing.assert_array_equal(clf.counts_pos[1], [0, 0, 0, 8])
        np.testing.assert_array_equal(clf.counts_neg[1], [4, 0, 0, 0])
        np.testing.assert_array_equal(clf.counts_pos[2], [0, 0, 0, 0])
        np.testing.assert_array_equal(clf.counts_neg[2], [12, 0, 0, 0])

    def test_conditionals_from_hand_worked_clusters(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        np.testing.assert_allclose(clf.cond_pos[0], [1 / 12, 1 / 12, 1 / 12, 9 / 12])
        np.testing.assert_allclose(clf.cond_neg[0], [5 / 8, 1 / 8, 1 / 8, 1 / 8])
        np.testing.assert_allclose(clf.cond_pos[2], [1 / 4, 1 / 4, 1 / 4, 1 / 4])
        np.testing.assert_allclose(clf.cond_neg[2], [13 / 16, 1 / 16, 1 / 16, 1 / 16])

    def test_conditionals_normalize(self):
        rng = np.random.default_rng(17)
        features = rng.normal(size=(60, 3))
        flags = rng.random((60, 4)) < 0.5
        clf = train(features, flags, QmlcParams(k=5))
        np.testing.assert_allclose(clf.cond_pos.sum(axis=1), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(clf.cond_neg.sum(axis=1), np.ones(4), atol=1e-12)

    def test_smoothing_keeps_probabilities_strictly_interior(self):
        # even with empty or saturated count rows, no stored probability
        # may reach 0 or 1
        rng = np.random.default_rng(23)
        features = rng.normal(size=(50, 2))
        flags = np.zeros((50, 4), dtype=bool)
        flags[:, 0] = True  # label 1 universal, label 4 absent: extreme priors
        flags[:, 1:3] = rng.random((50, 2)) < 0.5
        clf = train(features, flags, QmlcParams(k=4))
        for table in (clf.prior_pos, clf.prior_neg, clf.cond_pos, clf.cond_neg):
            assert np.all(table > 0.0)
            assert np.all(table < 1.0)

    def test_own_sample_excluded_from_its_neighborhood(self):
        # each sample's nearest *other* point carries the opposite label, so
        # every carrier sees zero carrier neighbors; counting the sample
        # itself would flip the table
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        flags = flags_from_sets([{1}, {2}, {1}, {2}])
        clf = train(points, flags, QmlcParams(k=1))
        np.testing.assert_array_equal(clf.counts_pos[0], [2, 0])
        np.testing.assert_array_equal(clf.counts_pos[1], [2, 0])

    def test_training_size_must_exceed_k(self):
        with pytest.raises(InvalidParameterError):
            train(np.ones((3, 2)), np.ones((3, 4), dtype=bool), QmlcParams(k=3))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            train(np.ones((5, 2)), np.ones((4, 4), dtype=bool), QmlcParams(k=2))

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            QmlcParams(k=0)
        with pytest.raises(InvalidParameterError):
            QmlcParams(k=3, s=0.0)
        with pytest.raises(InvalidParameterError):
            QmlcParams(k=3, t=-1.0)

    @pytest.mark.parametrize("params", [
        {"k": 9.5},
        {"k": 9.0},
        {"k": True},
        {"k": "9"},
        {"k": 3, "s": float("inf")},
        {"k": 3, "s": float("nan")},
        {"k": 3, "t": -1.0},
        {"k": 3, "t": float("nan")},
        {"k": 3, "t": float("inf")},
        {"k": 3, "t": True},
    ])
    def test_non_integer_k_and_non_finite_s_t_rejected(self, params):
        with pytest.raises(InvalidParameterError):
            QmlcParams(**params)

    def test_integer_k_of_any_integer_type_is_a_plain_int(self):
        params = QmlcParams(k=np.int64(9), s=2, t=np.float64(0.5))
        assert params.k == 9 and type(params.k) is int
        # and s, t of any real type are plain floats, which a JSON writer can take
        for value in (np.float32(0.5), np.float64(0.5), Fraction(1, 2)):
            params = QmlcParams(k=9, s=value, t=value)
            assert params.s == params.t == 0.5 and type(params.s) is type(params.t) is float


class TestPrediction:
    def test_hand_worked_ratios_in_shared_cluster(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        # query at the middle cluster: three carrier neighbors for both
        # labels 1 and 2 -> f = (9/14 * 9/12) / (5/14 * 1/8) = 10.8
        ratios, flags = predict_batch(clf, np.array([[1.05, 0.05]]))
        assert ratios[0, 0] == pytest.approx(10.8)
        assert ratios[0, 1] == pytest.approx(10.8)
        assert ratios[0, 2] == pytest.approx(4 / 169)
        assert flags[0].tolist() == [True, True, False, False]

    def test_hand_worked_ratios_in_single_label_cluster(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        # query at the left cluster: f_1 = 10.8 again, while label 2 sees
        # zero carriers -> f_2 = (9/14 * 1/12) / (5/14 * 5/8) = 0.24
        ratios, flags = predict_batch(clf, np.array([[0.05, 0.05]]))
        assert ratios[0, 0] == pytest.approx(10.8)
        assert ratios[0, 1] == pytest.approx(0.24)
        assert flags[0].tolist() == [True, False, False, False]

    def test_each_cluster_center_recovers_its_label_set(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        _, flags = predict_batch(clf, np.array([[0.05, 0.05], [1.05, 0.05], [2.05, 0.05]]))
        assert [label_set(row) for row in flags] == [{1}, {1, 2}, {2}]

    def test_wider_neighborhood_matches_reference(self):
        # k spanning beyond one cluster changes every count table; the
        # reference implementation must still agree ratio for ratio
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=7))
        oracle = BruteForceMultiLabelKnn(points, labelsets, 7)
        queries = [[0.5, 0.0], [1.5, 0.05], [0.05, 0.05], [3.0, -1.0]]
        ratios, flags = predict_batch(clf, np.array(queries))
        for query, ratio_row, flag_row in zip(queries, ratios, flags):
            want_ratios, want_labels = oracle.predict(query)
            assert label_set(flag_row) == frozenset(want_labels)
            for j in range(1, 5):
                assert ratio_row[j - 1] == pytest.approx(want_ratios[j], rel=1e-12)

    def test_ratio_past_the_float_range_raises(self):
        # at the middle cluster no non-carrier of label 1 has a carrier neighbour, so its smoothed
        # conditional is s / (4 s + 4): 0.0 at the smallest s, where numpy once warned and returned inf
        points, labelsets = three_cluster_fixture()
        query = np.array([[1.05, 0.05]])
        tiny = train(points, flags_from_sets(labelsets), QmlcParams(k=3, s=5e-324))
        with pytest.raises(NumericalDomainError, match=r"posterior ratio is not finite \(s=5e-324\)"):
            predict_batch(tiny, query)
        small = train(points, flags_from_sets(labelsets), QmlcParams(k=3, s=1e-300))
        assert np.isfinite(posterior_ratios(small, query)).all()

    def test_prior_that_rounds_to_one_raises(self):
        # every row carries label 1 and s is below the rounding of m = 12, so P(not H_1) would be 0;
        # the constructor would blame prior_pos, which the caller never gave
        points, labelsets = three_cluster_fixture()
        flags = flags_from_sets(labelsets)
        flags[:, 0] = True
        with pytest.raises(NumericalDomainError, match=r"a smoothed prior rounds to 1 \(s=1e-20\)"):
            train(points, flags, QmlcParams(k=3, s=1e-20))

    def test_threshold_above_map_shrinks_the_label_set(self):
        points, labelsets = three_cluster_fixture()
        strict = train(points, flags_from_sets(labelsets), QmlcParams(k=3, t=11.0))
        _, flags = predict_batch(strict, np.array([[1.05, 0.05]]))
        assert label_set(flags[0]) == frozenset()

    def test_prediction_with_scheme_decodes_state(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        _, flags = predict_batch(clf, np.array([[1.05, 0.05]]))
        assert label_set(flags[0]) == frozenset({1, 2})
        assert build_scheme(ModulationKind.PSK8, 2.0).decode(flags).tolist() == [2]

    def test_prediction_of_an_erasure_decodes_to_none(self):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        _, flags = predict_batch(clf, np.array([[1.05, 0.05]]))
        assert label_set(flags[0]) == frozenset({1, 2})
        assert build_scheme(ModulationKind.QPSK, 2.0).decode(flags).tolist() == [0]  # no state

    def test_scaling_all_features_preserves_predictions(self):
        rng = np.random.default_rng(23)
        features = rng.normal(size=(50, 4))
        flags = rng.random((50, 4)) < 0.4
        queries = rng.normal(size=(20, 4))
        base = train(features, flags, QmlcParams(k=4))
        scaled = train(features * 37.0, flags, QmlcParams(k=4))
        np.testing.assert_allclose(
            posterior_ratios(base, queries), posterior_ratios(scaled, queries * 37.0)
        )

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_label_set_is_exactly_the_ratios_above_threshold(self, t):
        rng = np.random.default_rng(29)
        features = rng.normal(size=(40, 3))
        flags = rng.random((40, 4)) < 0.5
        clf = train(features, flags, QmlcParams(k=4, t=t))
        queries = rng.normal(size=(25, 3))
        ratios, batch_flags = predict_batch(clf, queries)
        np.testing.assert_array_equal(batch_flags, ratios > t)
        for i in range(len(queries)):  # each row as a batch of its own gives the same result
            one_ratios, one_flags = predict_batch(clf, queries[i:i + 1])
            np.testing.assert_array_equal(one_ratios[0], ratios[i])
            np.testing.assert_array_equal(one_flags[0], batch_flags[i])


class TestDecodeState:
    """Predicted label sets through the scheme's decode table; 0 is an erasure."""

    def test_singletons_decode_to_quadrant_interiors(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme.decode(flags_from_sets([{1}, {3}])).tolist() == [1, 5]

    def test_adjacent_pairs_decode_to_axis_states(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme.decode(flags_from_sets([{1, 2}, {4, 1}])).tolist() == [2, 8]

    def test_invalid_sets_are_erasures(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme.decode(flags_from_sets([set(), {1, 3}, {1, 2, 3}])).tolist() == [0, 0, 0]

    def test_qpsk_only_accepts_singletons(self):
        scheme = build_scheme(ModulationKind.QPSK, 2.0)
        assert scheme.decode(flags_from_sets([{2}, {1, 2}])).tolist() == [2, 0]


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(30, 8))
        flags = rng.random((30, 4)) < 0.5
        clf = train(features, flags, QmlcParams(k=3, s=2.0, t=1.5))
        clone = TrainedClassifier.from_json_dict(clf.to_json_dict())
        queries = rng.normal(size=(10, 8))
        np.testing.assert_array_equal(posterior_ratios(clf, queries), posterior_ratios(clone, queries))
        assert clone.params == clf.params

    def test_foreign_document_rejected(self):
        with pytest.raises(InvalidInputError):
            TrainedClassifier.from_json_dict({"format": "something-else"})

    @pytest.mark.parametrize("field, value", [
        ("params", None),
        ("params", {"k": 3, "x": 1}),
        ("params", {"k": 3.5}),
        ("features", "abc"),
        ("features", [1.0, 2.0]),
        ("label_flags", [[1, 0], [0]]),
        ("label_flags", [[1, 0, 0, 0]]),
        ("prior_pos", [0.5]),
        ("counts_pos", [1.0, 2.0]),
        ("counts_neg", [[1.0] * 5] * 4),
    ])
    def test_missing_or_mistyped_field_rejected(self, field, value):
        points, labelsets = three_cluster_fixture()
        doc = train(points, flags_from_sets(labelsets), QmlcParams(k=3)).to_json_dict()
        del doc[field]
        with pytest.raises(InvalidInputError, match="missing or mistyped field"):
            TrainedClassifier.from_json_dict(doc)
        doc[field] = value
        with pytest.raises(InvalidInputError, match="missing or mistyped field"):
            TrainedClassifier.from_json_dict(doc)

    @pytest.mark.parametrize("prior_pos", [
        [2.0, -1.0, 0.5, 0.5],  # once loaded, and predict_batch returned negative ratios
        [1.0, 0.5, 0.5, 0.5],  # once loaded, and predict_batch blamed the smoothing
        [-0.0001, 0.5, 0.5, 0.5],
        [float("nan"), 0.5, 0.5, 0.5],
    ])
    def test_prior_outside_zero_to_one_rejected(self, prior_pos):
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3))
        message = r"each prior_pos must be in \[0, 1\), got \["
        with pytest.raises(InvalidInputError, match=message):
            TrainedClassifier(clf.params, clf.features, clf.label_flags, prior_pos, clf.counts_pos, clf.counts_neg)
        with pytest.raises(InvalidInputError, match=message):
            TrainedClassifier.from_json_dict({**clf.to_json_dict(), "prior_pos": prior_pos})

    def test_zero_prior_of_an_absent_label_loads(self):
        # labels 3 and 4 are absent, and the smallest smoothing s underflows their priors to 0
        points, labelsets = three_cluster_fixture()
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=3, s=5e-324))
        assert clf.prior_pos.tolist()[2:] == [0.0, 0.0]
        assert TrainedClassifier.from_json_dict(clf.to_json_dict()).prior_pos.tolist() == clf.prior_pos.tolist()


class TestAgainstBruteForce:
    def _random_fixture(self, rng):
        # integer coordinates make distance ties exact, so the stable
        # lower-index tie rule fully determines the neighbor sets and
        # exact agreement with the reference is well-posed
        m = int(rng.integers(8, 41))
        k = int(rng.integers(1, 6))
        points = rng.integers(0, 12, size=(m, 2)).astype(float)
        labelsets = []
        for _ in range(m):
            ls = {int(j) for j in range(1, 5) if rng.random() < 0.45}
            labelsets.append(ls)
        return points, labelsets, k

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            points, labelsets, k = self._random_fixture(rng)
            clf = train(points, flags_from_sets(labelsets), QmlcParams(k=k))
            oracle = BruteForceMultiLabelKnn(points, labelsets, k)
            queries = rng.integers(0, 12, size=(10, 2)).astype(float)
            ratios, flags = predict_batch(clf, queries)
            for q, ratio_row, flag_row in zip(queries, ratios, flags):
                want_ratios, want_labels = oracle.predict(q)
                for j in range(1, 5):
                    assert ratio_row[j - 1] == pytest.approx(want_ratios[j], rel=1e-12)
                got_labels = {j for j in range(1, 5) if flag_row[j - 1]}
                assert got_labels == want_labels

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_on_generated_seeds(self, seed):
        rng = np.random.default_rng(seed)
        points, labelsets, k = self._random_fixture(rng)
        clf = train(points, flags_from_sets(labelsets), QmlcParams(k=k))
        oracle = BruteForceMultiLabelKnn(points, labelsets, k)
        query = rng.integers(0, 12, size=2).astype(float)
        ratios, flags = predict_batch(clf, query[None, :])
        want_ratios, want_labels = oracle.predict(query)
        assert label_set(flags[0]) == frozenset(want_labels)
        for j in range(1, 5):
            assert ratios[0, j - 1] == pytest.approx(want_ratios[j], rel=1e-12)
