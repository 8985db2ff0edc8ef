import itertools
import math

import numpy as np
import pytest

from mlcvqkd.errors import InvalidParameterError
from mlcvqkd.statespace import (
    NAMED_RULES,
    EncodingRule,
    ModulationKind,
    PhasePoint,
    RuleVisibility,
    build_scheme,
    encode,
    labels_of,
)
from oracles import scan_state_for_flags


class TestBuildScheme:
    def test_8psk_axis_state_at_unit_amplitude(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme.alpha == pytest.approx(1.0)
        state = scheme.state(2)
        assert state.angle == pytest.approx(math.pi / 2)
        assert (state.point.q, state.point.p) == (0.0, 1.0)
        assert state.labels == frozenset({1, 2})

    def test_qpsk_states_sit_in_quadrant_interiors(self):
        scheme = build_scheme(ModulationKind.QPSK, 2.0)
        assert scheme.n_states == 4
        expected_angles = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        for state, angle in zip(scheme.states, expected_angles):
            assert state.angle == pytest.approx(angle)
            assert len(state.labels) == 1

    def test_large_variance_amplitude(self):
        scheme = build_scheme(ModulationKind.PSK8, 50.0)
        assert scheme.alpha == pytest.approx(5.0)
        state = scheme.state(1)
        assert state.point.q == pytest.approx(5.0 * math.cos(math.pi / 4))
        assert state.point.p == pytest.approx(5.0 * math.sin(math.pi / 4))

    def test_all_states_on_the_ring(self):
        for kind in ModulationKind:
            scheme = build_scheme(kind, 7.3)
            for state in scheme.states:
                assert math.hypot(state.point.q, state.point.p) == pytest.approx(scheme.alpha)

    def test_8psk_label_counts_alternate_around_the_circle(self):
        scheme = build_scheme(ModulationKind.PSK8, 4.0)
        sizes = [len(s.labels) for s in scheme.states]
        assert sizes == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_stored_labels_match_quadrant_rule(self):
        for kind in ModulationKind:
            for vm in (0.5, 2.0, 50.0):
                scheme = build_scheme(kind, vm)
                for state in scheme.states:
                    assert labels_of(state.point) == state.labels

    @pytest.mark.parametrize("vm", [0.0, -1.0, float("nan")])
    def test_rejects_bad_variance(self, vm):
        with pytest.raises(InvalidParameterError):
            build_scheme(ModulationKind.QPSK, vm)

    def test_scheme_fields(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert scheme.kind.value == "8psk"
        assert scheme.n_states == 8
        assert scheme.states[1].labels == frozenset({1, 2})
        assert scheme.label_flags[1].tolist() == [True, True, False, False]

    def test_scheme_stays_frozen_and_hashable(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        assert hash(scheme) == hash(build_scheme(ModulationKind.PSK8, 2.0))
        assert scheme == build_scheme(ModulationKind.PSK8, 2.0)
        with pytest.raises(AttributeError):
            scheme.alpha = 2.0
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
        for state, row in zip(scheme.states, scheme.label_flags):
            assert {j + 1 for j in np.flatnonzero(row)} == state.labels
        assert scheme.decode(scheme.label_flags).tolist() == [s.index for s in scheme.states]

    def test_empty_batch_and_single_row(self):
        scheme = build_scheme(ModulationKind.QPSK, 2.0)
        assert scheme.decode(np.zeros((0, 4), dtype=bool)).shape == (0,)
        assert scheme.decode(np.array([0, 0, 1, 0], dtype=bool)) == 3


class TestLabelsOf:
    def test_first_quadrant_interior(self):
        assert labels_of(PhasePoint(1.0, 1.0)) == frozenset({1})

    def test_positive_p_axis(self):
        assert labels_of(PhasePoint(0.0, 1.0)) == frozenset({1, 2})

    def test_origin_carries_all_labels(self):
        assert labels_of(PhasePoint(0.0, 0.0)) == frozenset({1, 2, 3, 4})

    def test_remaining_quadrants_and_axes(self):
        assert labels_of(PhasePoint(-1.0, 1.0)) == frozenset({2})
        assert labels_of(PhasePoint(-1.0, -1.0)) == frozenset({3})
        assert labels_of(PhasePoint(1.0, -1.0)) == frozenset({4})
        assert labels_of(PhasePoint(-1.0, 0.0)) == frozenset({2, 3})
        assert labels_of(PhasePoint(0.0, -1.0)) == frozenset({3, 4})
        assert labels_of(PhasePoint(1.0, 0.0)) == frozenset({4, 1})

    def test_rejects_non_finite_points(self):
        with pytest.raises(InvalidParameterError):
            PhasePoint(float("inf"), 0.0)


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

    def test_rejects_non_bit_strings(self):
        with pytest.raises(InvalidParameterError):
            EncodingRule(rule_id="bad", visibility=RuleVisibility.PUBLIC, mapping={1: "0x1"})

    def test_rule_fields(self):
        rule = NAMED_RULES["rule3"]
        assert rule.visibility.value == "private"
        assert encode(rule, 2) == "10101"
        assert [len(encode(rule, k)) for k in range(1, 9)] == [2, 5, 2, 1, 4, 2, 4, 3]
