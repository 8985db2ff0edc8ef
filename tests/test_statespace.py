import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcvqkd.errors import InvalidInputError, InvalidParameterError
from mlcvqkd.statespace import (
    NAMED_RULES,
    EncodingRule,
    ModulationKind,
    build_scheme,
    encode,
    quadrant_flags,
)
from oracles import labels_of, scan_state_for_flags


def flagged(row) -> frozenset[int]:
    """The labels L1..L4 set in a flag row."""
    return frozenset(int(j) + 1 for j in np.flatnonzero(row))


def label_set(q: float, p: float) -> frozenset[int]:
    return flagged(quadrant_flags(np.array([[q, p]]))[0])


def angle(point) -> float:
    return math.atan2(point[1], point[0]) % (2 * math.pi)


class TestBuildScheme:
    def test_8psk_axis_state_at_unit_amplitude(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        point = scheme.points[1]  # state 2
        assert math.hypot(*point) == pytest.approx(1.0)
        assert angle(point) == pytest.approx(math.pi / 2)
        assert tuple(point) == (0.0, 1.0)
        assert flagged(scheme.label_flags[1]) == frozenset({1, 2})

    def test_qpsk_states_sit_in_quadrant_interiors(self):
        scheme = build_scheme(ModulationKind.QPSK, 2.0)
        assert scheme.n_states == 4
        expected_angles = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        for point, row, want in zip(scheme.points, scheme.label_flags, expected_angles):
            assert angle(point) == pytest.approx(want)
            assert row.sum() == 1

    def test_large_variance_amplitude(self):
        scheme = build_scheme(ModulationKind.PSK8, 50.0)
        q, p = scheme.points[0]  # state 1
        assert math.hypot(q, p) == pytest.approx(5.0)
        assert q == pytest.approx(5.0 * math.cos(math.pi / 4))
        assert p == pytest.approx(5.0 * math.sin(math.pi / 4))

    def test_all_states_on_the_ring(self):
        for kind in ModulationKind:
            scheme = build_scheme(kind, 7.3)
            np.testing.assert_allclose(np.hypot(*scheme.points.T), math.sqrt(7.3 / 2), rtol=1e-15)

    def test_8psk_label_counts_alternate_around_the_circle(self):
        scheme = build_scheme(ModulationKind.PSK8, 4.0)
        assert scheme.label_flags.sum(axis=1).tolist() == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_stored_labels_match_quadrant_rule(self):
        for kind in ModulationKind:
            for vm in (0.5, 2.0, 50.0):
                scheme = build_scheme(kind, vm)
                for point, row in zip(scheme.points, scheme.label_flags):
                    assert labels_of(point) == flagged(row)

    @given(st.sampled_from(list(ModulationKind)), st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=50, deadline=None)
    def test_points_are_the_scalar_radius_times_the_octant_table(self, kind, vm):
        # the per-state products of the earlier object model, bit for bit
        radius = math.sqrt(vm / 2.0)
        h = math.sqrt(2.0) / 2.0
        octants = [(h, h), (0.0, 1.0), (-h, h), (-1.0, 0.0), (-h, -h), (0.0, -1.0), (h, -h), (1.0, 0.0)]
        if kind is ModulationKind.QPSK:
            octants = octants[::2]
        want = [[radius * c, radius * s] for c, s in octants]
        assert build_scheme(kind, vm).points.tolist() == want

    @pytest.mark.parametrize("vm", [0.0, -1.0, float("nan")])
    def test_rejects_bad_variance(self, vm):
        with pytest.raises(InvalidParameterError):
            build_scheme(ModulationKind.QPSK, vm)

    def test_rejects_unknown_kind(self):
        # the unguarded enum conversion once raised a raw ValueError
        with pytest.raises(InvalidParameterError, match="unknown modulation kind '16qam'"):
            build_scheme("16qam", 50.0)

    @pytest.mark.parametrize("vm", [True, "50", None])
    def test_rejects_non_real_variance(self, vm):
        # True once built a V_m 1 scheme, and "50" was a raw TypeError
        with pytest.raises(InvalidParameterError, match="modulation_variance must be a real number"):
            build_scheme("8psk", vm)

    def test_variance_is_a_plain_float(self):
        scheme = build_scheme("8psk", np.int64(50))
        assert type(scheme.modulation_variance) is float
        assert scheme == build_scheme("8psk", 50.0)

    def test_scheme_fields(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme.kind.value == "8psk"
        assert scheme.n_states == 8
        assert scheme.points.shape == (8, 2)
        assert scheme.label_flags[1].tolist() == [True, True, False, False]

    def test_scheme_stays_frozen_and_hashable(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert hash(scheme) == hash(build_scheme("8psk", 2.0))
        assert scheme == build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme != build_scheme(ModulationKind.PSK8, 3.0)
        with pytest.raises(AttributeError):
            scheme.modulation_variance = 3.0
        with pytest.raises(ValueError):
            scheme.points[0, 0] = 0.0
        with pytest.raises(ValueError):
            scheme.label_flags[0, 0] = False


class TestDecodeTable:
    @pytest.mark.parametrize("kind", list(ModulationKind))
    def test_matches_the_label_set_scan_on_every_flag_pattern(self, kind):
        scheme = build_scheme(kind, 2.0)
        patterns = np.array(list(itertools.product([False, True], repeat=4)))
        assert len(patterns) == 16
        want = [scan_state_for_flags(scheme, row) for row in patterns]
        assert scheme.decode(patterns).tolist() == want
        assert sorted(set(want)) == list(range(scheme.n_states + 1))

    @pytest.mark.parametrize("kind", list(ModulationKind))
    def test_label_flags_are_the_label_sets_in_state_order(self, kind):
        scheme = build_scheme(kind, 2.0)
        assert scheme.label_flags.shape == (scheme.n_states, 4)
        for point, row in zip(scheme.points, scheme.label_flags):
            assert flagged(row) == labels_of(point)
        assert scheme.decode(scheme.label_flags).tolist() == list(range(1, scheme.n_states + 1))

    def test_empty_batch_and_single_row(self):
        scheme = build_scheme(ModulationKind.QPSK, 2.0)
        assert scheme.decode(np.zeros((0, 4), dtype=bool)).shape == (0,)
        assert scheme.decode(np.array([[0, 0, 1, 0]], dtype=bool)).tolist() == [3]
        with pytest.raises(InvalidInputError, match=r"flags must have shape \(any, 4\)"):
            scheme.decode(np.array([0, 0, 1, 0], dtype=bool))  # one row is a (1, 4) array


# the origin, the four half-axes and the four quadrant interiors
NINE_CASES = [(q, p) for q in (-1.0, 0.0, 1.0) for p in (-1.0, 0.0, 1.0)]


class TestLabelsOf:
    """quadrant_flags on the points of the earlier per-point label rule."""

    def test_first_quadrant_interior(self):
        assert label_set(1.0, 1.0) == frozenset({1})

    def test_positive_p_axis(self):
        assert label_set(0.0, 1.0) == frozenset({1, 2})

    def test_origin_carries_all_labels(self):
        assert label_set(0.0, 0.0) == frozenset({1, 2, 3, 4})

    def test_remaining_quadrants_and_axes(self):
        assert label_set(-1.0, 1.0) == frozenset({2})
        assert label_set(-1.0, -1.0) == frozenset({3})
        assert label_set(1.0, -1.0) == frozenset({4})
        assert label_set(-1.0, 0.0) == frozenset({2, 3})
        assert label_set(0.0, -1.0) == frozenset({3, 4})
        assert label_set(1.0, 0.0) == frozenset({4, 1})

    def test_quadrant_flags_agree_with_the_per_point_rule_on_the_nine_cases(self):
        flags = quadrant_flags(np.array(NINE_CASES))
        assert flags.shape == (9, 4)
        assert [flagged(row) for row in flags] == [labels_of(point) for point in NINE_CASES]

    @given(st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
    ), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_quadrant_flags_agree_with_the_per_point_rule_on_drawn_points(self, points):
        flags = quadrant_flags(np.array(points))
        assert [flagged(row) for row in flags] == [labels_of(point) for point in points]


class TestEncodingRules:
    def test_public_rule_lookup(self):
        assert encode(NAMED_RULES["rule1"], 4) == "011"

    def test_first_private_rule_lookup(self):
        assert encode(NAMED_RULES["rule2"], 4) == "100"

    def test_variable_length_rule_lookup(self):
        assert encode(NAMED_RULES["rule3"], 2) == "10101"

    def test_unknown_state_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            encode(NAMED_RULES["rule1"], 9)

    @pytest.mark.parametrize("index", [[1], {}, np.ones(2)])
    def test_unhashable_state_index_rejected(self, index):
        # once a raw TypeError (unhashable type)
        with pytest.raises(InvalidParameterError, match="has no entry for state index"):
            encode(NAMED_RULES["rule1"], index)

    @pytest.mark.parametrize("rule_id", [5, None, b"rule1"])
    def test_rejects_a_rule_id_that_is_not_a_str(self, rule_id):
        with pytest.raises(InvalidParameterError, match="rule_id must be a str"):
            EncodingRule(rule_id=rule_id, mapping={1: "0"})

    def test_rejects_non_bit_strings(self):
        for bits in ("0x1", 101, b"01"):
            with pytest.raises(InvalidParameterError, match="non-bit-string"):
                EncodingRule(rule_id="bad", mapping={1: bits})

    @pytest.mark.parametrize("mapping", [None, [(1, "0")], {1: "0"}.items()])
    def test_rejects_a_mapping_that_is_not_a_mapping(self, mapping):
        # None was once a raw AttributeError ('NoneType' object has no attribute 'items')
        with pytest.raises(InvalidParameterError, match="mapping must be a Mapping"):
            EncodingRule(rule_id="bad", mapping=mapping)

    def test_rejects_two_states_with_the_same_bits(self):
        # distinct bits per state make bit agreement the same as state agreement
        with pytest.raises(InvalidParameterError, match="states 1 and 3 both map to '01'"):
            EncodingRule(rule_id="bad", mapping={1: "01", 2: "10", 3: "01"})

    def test_rule_fields(self):
        rule = NAMED_RULES["rule3"]
        assert rule.rule_id == "rule3"
        assert encode(rule, 2) == "10101"
        assert [len(encode(rule, k)) for k in range(1, 9)] == [2, 5, 2, 1, 4, 2, 4, 3]
