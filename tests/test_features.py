import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlcvqkd.errors import InvalidInputError, InvalidParameterError
from mlcvqkd.features import extract_batch, filter_features, resolve_threshold
from mlcvqkd.statespace import ModulationKind, build_scheme
from oracles import difference_array_features


def square_refs():
    return np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def distance(a, b) -> float:
    """The feature of point a against the single reference b."""
    return extract_batch([a], [b])[0, 0]


class TestEuclidean:
    def test_three_four_five(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_zero_for_identical_points(self):
        assert distance((1.2, -0.7), (1.2, -0.7)) == 0.0

    def test_symmetric(self):
        a, b = (0.3, 2.0), (-1.0, 0.5)
        assert distance(a, b) == distance(b, a)


class TestExtract:
    def test_center_of_square_is_equidistant(self):
        d = extract_batch([[0.0, 0.0]], square_refs())[0]
        np.testing.assert_allclose(d, np.ones(4))

    def test_on_reference_gives_zero_entry(self):
        d = extract_batch([[1.0, 0.0]], square_refs())[0]
        assert d[0] == 0.0
        assert d[1] == pytest.approx(math.sqrt(2))
        assert d[2] == 2.0

    def test_feature_order_follows_reference_order(self):
        refs = square_refs()
        d = extract_batch([[0.5, 0.0]], refs)[0]
        expected = [math.hypot(0.5 - q, 0.0 - p) for q, p in refs]
        np.testing.assert_allclose(d, expected)

    def test_default_references_are_the_constellation(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        d = extract_batch(scheme.points[2:3], scheme.points)[0]  # state 3
        assert d.shape == (8,)
        assert d[2] == pytest.approx(0.0, abs=1e-15)

    def test_batch_matches_single(self):
        refs = square_refs()
        points = np.array([[0.2, 0.4], [-1.0, 1.0], [3.0, -2.0]])
        batch = extract_batch(points, refs)
        assert batch.shape == (3, 4)
        for i, row in enumerate(batch):
            np.testing.assert_array_equal(row, extract_batch(points[i:i + 1], refs)[0])

    def test_empty_batch(self):
        assert extract_batch(np.empty((0, 2)), square_refs()).shape == (0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_batch(np.ones((3, 5)), square_refs())

    def test_empty_reference_set_rejected(self):
        for refs in (np.empty((0, 2)), [], np.ones((2, 3)), np.ones(2)):
            with pytest.raises(InvalidInputError):
                extract_batch([[0.0, 0.0]], refs)

    def test_shifting_point_and_references_together_changes_nothing(self):
        point = np.array([0.7, -0.3])
        shift = np.array([4.5, -2.25])
        base = extract_batch([point], square_refs())[0]
        moved = extract_batch([point + shift], square_refs() + shift)[0]
        np.testing.assert_allclose(moved, base, rtol=1e-12)

    @given(
        points=st.integers(0, 30).flatmap(lambda n: arrays(np.float64, (n, 2), elements=st.floats(-4.0, 4.0))),
        refs=st.integers(1, 9).flatmap(lambda w: arrays(np.float64, (w, 2), elements=st.floats(-4.0, 4.0))),
        exponent=st.integers(-300, 150),
    )
    @example(points=np.empty((0, 2)), refs=np.ones((1, 2)), exponent=0)
    @example(points=np.array([[3.0, -1.0], [0.5, 4.0]]), refs=np.array([[-2.0, 1.5]]), exponent=-300)
    @example(points=np.array([[4.0, -4.0]]), refs=np.array([[-4.0, 4.0], [0.0, 0.0]]), exponent=150)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_difference_array_form_bit_for_bit(self, points, refs, exponent):
        points, refs = points * 10.0**exponent, refs * 10.0**exponent
        points_before, refs_before = points.copy(), refs.copy()
        got, want = extract_batch(points, refs), difference_array_features(points, refs)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(points, points_before, strict=True)
        np.testing.assert_array_equal(refs, refs_before, strict=True)

    @pytest.mark.parametrize("point", [[1e200, 0.0], [0.0, -1.7e308], [1e155, 1e155], [math.inf, 0.0],
                                       [0.0, math.nan]])
    def test_a_distance_past_the_float_range_is_an_input_error(self, point):
        with pytest.raises(InvalidInputError, match="points must be finite"):
            extract_batch([[0.0, 0.0], point], square_refs())

    @pytest.mark.parametrize("angle", [0.3, math.pi / 2, 2.0, -1.1])
    def test_nearest_reference_survives_global_rotation(self, angle):
        point = np.array([0.8, 0.25])  # clearly nearest to the first reference
        c, s = math.cos(angle), math.sin(angle)
        turn = np.array([[c, s], [-s, c]])  # row vectors times this rotate by angle

        refs = square_refs()
        assert np.argmin(extract_batch([point], refs)[0]) == 0
        assert np.argmin(extract_batch([point @ turn], refs @ turn)[0]) == 0


class TestThreshold:
    def test_absolute_threshold_passes_through(self):
        assert resolve_threshold(np.ones((3, 2)), threshold=5.5) == 5.5

    def test_quantile_of_max_entries(self):
        # per-sample maxima: 1, 2, 3, 4 -> median 2.5
        features = np.array([[1.0, 0.5], [2.0, 0.1], [0.2, 3.0], [4.0, 4.0]])
        assert resolve_threshold(features, quantile=0.5) == pytest.approx(2.5)

    def test_full_quantile_keeps_everything(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(0, 10, size=(100, 4))
        cap = resolve_threshold(features, quantile=1.0)
        kept, discarded = filter_features(features, cap)
        assert len(discarded) == 0
        assert len(kept) == 100

    def test_both_or_neither_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_threshold(np.ones((2, 2)))
        with pytest.raises(InvalidParameterError):
            resolve_threshold(np.ones((2, 2)), threshold=1.0, quantile=0.5)

    def test_bad_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_threshold(np.ones((2, 2)), threshold=0.0)
        with pytest.raises(InvalidParameterError):
            resolve_threshold(np.ones((2, 2)), quantile=1.5)
        for value in ("abc", True):
            with pytest.raises(InvalidParameterError, match="threshold must be a real number"):
                resolve_threshold(np.ones((2, 2)), threshold=value)
            with pytest.raises(InvalidParameterError, match="quantile must be a real number"):
                resolve_threshold(np.ones((2, 2)), quantile=value)
        for value in ("abc", None):
            with pytest.raises(InvalidParameterError, match="threshold must be a real number"):
                filter_features(np.ones((2, 2)), value)

    @pytest.mark.parametrize("value", [math.nan, -1.0, 0.0])
    def test_filter_features_takes_resolve_threshold_s_rule(self, value):
        # a NaN cap once kept every row, and -1.0 discarded every row
        with pytest.raises(InvalidParameterError, match="threshold must be positive"):
            filter_features(np.ones((2, 2)), value)


class TestFilter:
    def test_discards_iff_any_entry_exceeds_cap(self):
        features = np.array([
            [1.0, 1.0],  # keep
            [1.0, 2.1],  # discard: one entry over
            [2.0, 2.0],  # keep: at the cap is not over
            [9.0, 9.0],  # discard
        ])
        kept, discarded = filter_features(features, 2.0)
        assert kept.tolist() == [0, 2]
        assert discarded.tolist() == [1, 3]

    def test_order_preserved(self):
        features = np.array([[3.0], [1.0], [3.0], [1.0], [0.5]])
        kept, discarded = filter_features(features, 2.0)
        assert kept.tolist() == [1, 3, 4]
        assert discarded.tolist() == [0, 2]

    def test_empty_input(self):
        kept, discarded = filter_features(np.empty((0, 4)), 1.0)
        assert kept.size == 0 and discarded.size == 0

    @pytest.mark.parametrize("row", [[math.nan, 0.5], [0.5, math.nan], [math.nan, 9.0]])
    def test_nan_feature_rejected(self, row):
        # NaN > cap is false, so a NaN row was once kept as if it were near every reference
        with pytest.raises(InvalidInputError, match="features must not be NaN"):
            filter_features(np.array([row, [0.2, 0.3]]), 1.0)

    @pytest.mark.parametrize("row", [[-1.0, 0.5], [-math.inf, 0.5], [0.5, -5e-324]])
    def test_negative_feature_rejected(self, row):
        # a feature is a distance; -inf or -1.0 is never over the cap, so such a row was once kept
        with pytest.raises(InvalidInputError, match="features must not be NaN or negative"):
            filter_features(np.array([row, [0.2, 0.3]]), 1.0)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_filtering_is_idempotent(self, n, seed):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0, 10, size=(n, 4))
        cap = resolve_threshold(features, quantile=0.8)
        kept, _ = filter_features(features, cap)
        kept_again, discarded_again = filter_features(features[kept], cap)
        assert discarded_again.size == 0
        assert kept_again.tolist() == list(range(len(kept)))

