import dataclasses

import numpy as np
import pytest

from mlcvqkd import protocol
from mlcvqkd.channel import ChannelParams, RandomSource, transmit_batch
from mlcvqkd.classifier import QmlcParams
from mlcvqkd.errors import InvalidParameterError, LearningRejectedError
from mlcvqkd.protocol import (
    DEMO_SENT_STATES,
    SessionConfig,
    _generate_population,
    format_attack_table,
    intercept_resend_demo,
    state_learning,
    state_prediction,
)
from mlcvqkd.statespace import NAMED_RULES, ModulationKind, build_scheme, encode
from oracles import labels_of, per_symbol_transcript_keys

QUIET = 1e-18


def quiet_config(**kw):
    """Shot-noise-free short-channel session small enough for unit tests."""
    defaults = dict(
        kind=ModulationKind.PSK8,
        vm=2.0,
        channel=ChannelParams(distance_km=0.0, excess_noise=0.0, shot_noise=QUIET),
        qmlc=QmlcParams(k=5),
        training_size=300,
        testing_size=300,
        prediction_block=400,
        rule_id="rule2",
    )
    defaults.update(kw)
    return SessionConfig(**defaults)


class TestInterceptResendDemo:
    def test_default_sent_states(self):
        assert DEMO_SENT_STATES == (4, 7, 2)

    def test_public_rule_scenario_leaks_the_key(self):
        sc = intercept_resend_demo()[0]
        assert sc.alice == ("011", "110", "001")
        assert sc.eve == ("011", "110", "001")
        assert sc.bob == ("011", "110", "001")

    def test_private_rule_scenario_defeats_eve(self):
        sc = intercept_resend_demo()[1]
        assert sc.alice == ("100", "001", "110")
        assert sc.eve == ("011", "110", "001")
        assert sc.bob == ("100", "001", "110")

    def test_refreshed_rule_scenario_defeats_eve_again(self):
        sc = intercept_resend_demo()[2]
        assert sc.alice == ("1", "1011", "10101")
        assert sc.eve == ("100", "001", "110")
        assert sc.bob == ("1", "1011", "10101")

    def test_bob_always_agrees_with_alice(self):
        # Eve's perfect measure-and-resend leaves the states intact, so
        # only the decoding rule separates the parties
        for sc in intercept_resend_demo():
            assert sc.bob == sc.alice

    def test_eve_only_wins_under_the_public_rule(self):
        scenarios = intercept_resend_demo()
        assert scenarios[0].eve == scenarios[0].alice
        assert scenarios[1].eve != scenarios[1].alice
        assert scenarios[2].eve != scenarios[2].alice

    def test_table_contains_every_string(self):
        table = format_attack_table(intercept_resend_demo())
        for token in ("a4  a7  a2", "011 110 001", "100 001 110", "1 1011 10101"):
            assert token in table
        assert table.count("\n") == 4  # two header lines, three scenarios


class TestGeneratePopulation:
    def test_indices_flags_and_shapes(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        channel = ChannelParams(distance_km=10.0, excess_noise=0.01)
        indices, flags, sent, received = _generate_population(scheme, 500, channel, RandomSource(7))
        assert indices.shape == (500,) and flags.shape == (500, 4)
        assert sent.shape == (500, 2) and received.shape == (500, 2)
        assert indices.min() >= 1 and indices.max() <= 8
        for idx, flag_row, point in zip(indices, flags, sent):
            assert (point == scheme.points[idx - 1]).all()
            assert {j + 1 for j in np.flatnonzero(flag_row)} == labels_of(point)

    def test_all_states_drawn(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        channel = ChannelParams(distance_km=0.0)
        indices, _, _, _ = _generate_population(scheme, 2000, channel, RandomSource(1))
        assert set(indices.tolist()) == set(range(1, 9))

    def test_states_and_noise_come_from_two_streams_split_from_the_source(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        channel = ChannelParams(distance_km=10.0, excess_noise=0.01)
        indices, _, sent, received = _generate_population(scheme, 300, channel, RandomSource(5))
        rng_states, rng_channel = RandomSource(5).split(2)
        np.testing.assert_array_equal(indices, rng_states.generator.integers(0, 8, 300) + 1)
        np.testing.assert_array_equal(received, transmit_batch(sent, channel, rng_channel))


class TestErasureMask:
    """Erasures are the flag rows the scheme's decode table maps to 0."""

    def test_valid_and_invalid_rows(self):
        scheme = build_scheme(ModulationKind.PSK8, 2.0)
        rows = np.array([
            [1, 0, 0, 0],  # {1}: interior state
            [1, 1, 0, 0],  # {1, 2}: axis state
            [0, 0, 0, 0],  # empty: erased
            [1, 0, 1, 0],  # opposite quadrants: erased
            [1, 1, 1, 0],  # three labels: erased
        ], dtype=bool)
        np.testing.assert_array_equal(scheme.decode(rows) == 0, [False, False, True, True, True])

    def test_qpsk_rejects_pairs(self):
        scheme = build_scheme(ModulationKind.QPSK, 2.0)
        rows = np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=bool)
        np.testing.assert_array_equal(scheme.decode(rows) == 0, [False, True])


class TestStateLearning:
    def test_quiet_channel_learns_perfectly(self):
        outcome = state_learning(quiet_config(), RandomSource(42))
        report = outcome.report
        assert report.average_auc == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.average_precision == 1.0
        assert report.n_erasures == 0
        assert outcome.classifier.n_training == 300

    def test_quantile_filter_discards_a_sliver(self):
        outcome = state_learning(quiet_config(), RandomSource(42))
        assert outcome.n_discarded > 0
        assert 0.0 < outcome.discard_rate < 0.02

    def test_absolute_filter_threshold_respected(self):
        config = quiet_config(filter_quantile=None, filter_threshold=100.0)
        outcome = state_learning(config, RandomSource(42))
        assert outcome.filter_threshold == 100.0
        assert outcome.n_discarded == 0

    def test_overtight_filter_rejected(self):
        config = quiet_config(filter_quantile=None, filter_threshold=1e-6)
        with pytest.raises(InvalidParameterError):
            state_learning(config, RandomSource(42))

    def test_deterministic_under_seed(self):
        a = state_learning(quiet_config(), RandomSource(11))
        b = state_learning(quiet_config(), RandomSource(11))
        assert a.report.to_json_dict() == b.report.to_json_dict()
        np.testing.assert_array_equal(a.classifier.features, b.classifier.features)

    def test_noisy_channel_below_threshold_is_rejected(self):
        config = quiet_config(
            vm=0.5,
            channel=ChannelParams(distance_km=50.0, excess_noise=0.05),
            training_size=200,
            testing_size=200,
            auc_threshold=0.95,
        )
        with pytest.raises(LearningRejectedError) as err:
            state_learning(config, RandomSource(3))
        assert err.value.exit_code == 4
        assert err.value.report.average_auc < 0.95


class TestStatePrediction:
    def _accepted(self, config, seed=42):
        return state_learning(config, RandomSource(seed)).classifier

    def test_quiet_channel_agrees_perfectly(self):
        config = quiet_config()
        clf = self._accepted(config)
        transcript = state_prediction(clf, config, RandomSource(17))
        assert transcript.agreement_rate == 1.0
        assert transcript.n_erased == 0
        assert transcript.n_sent == 400
        assert transcript.alice_key == transcript.bob_key
        np.testing.assert_array_equal(transcript.sent_states, transcript.predicted_states)

    def test_symbol_streams_align_after_erasure_removal(self):
        config = quiet_config(
            vm=8.0,
            channel=ChannelParams(distance_km=25.0, excess_noise=0.02),
            auc_threshold=0.6,
        )
        clf = self._accepted(config)
        transcript = state_prediction(clf, config, RandomSource(17))
        kept = transcript.predicted_states > 0
        assert kept.sum() == transcript.n_sent - transcript.n_erased
        rule = NAMED_RULES["rule2"]  # three bits a state
        assert len(transcript.alice_key) == len(transcript.bob_key) == 3 * kept.sum()
        assert transcript.alice_key == "".join(encode(rule, k) for k in transcript.sent_states[kept])
        assert transcript.bob_key == "".join(encode(rule, k) for k in transcript.predicted_states[kept])
        matches = (transcript.sent_states == transcript.predicted_states)[kept].sum()
        assert transcript.agreement_rate == matches / kept.sum()

    def test_variable_length_rule_round_trips(self):
        config = quiet_config(rule_id="rule3")
        clf = self._accepted(config)
        transcript = state_prediction(clf, config, RandomSource(5))
        assert transcript.rule_id == "rule3"
        assert transcript.agreement_rate == 1.0
        symbols = [encode(NAMED_RULES["rule3"], k) for k in transcript.sent_states]
        assert transcript.alice_key == transcript.bob_key == "".join(symbols)
        assert {len(s) for s in symbols} == {1, 2, 3, 4, 5}  # rule 3 mixes symbol lengths

    @pytest.mark.parametrize("k,vm,rule_id", [(3, 1.0, "rule1"), (7, 6.0, "rule2"), (9, 12.0, "rule3")])
    def test_any_quiet_session_agrees_perfectly(self, k, vm, rule_id):
        config = quiet_config(vm=vm, qmlc=QmlcParams(k=k), rule_id=rule_id)
        clf = self._accepted(config)
        transcript = state_prediction(clf, config, RandomSource(8))
        assert transcript.agreement_rate == 1.0
        assert transcript.n_erased == 0

    def test_refreshing_the_rule_changes_bits_but_not_agreement(self):
        # classification happens on states; the bit mapping applied
        # afterwards cannot move the symbol agreement rate
        noisy = dict(
            vm=8.0,
            channel=ChannelParams(distance_km=25.0, excess_noise=0.02),
            auc_threshold=0.6,
        )
        before = quiet_config(**noisy)
        after = quiet_config(**noisy, rule_id="rule3")
        clf = self._accepted(before)
        t_before = state_prediction(clf, before, RandomSource(17))
        t_after = state_prediction(clf, after, RandomSource(17))
        assert t_before.agreement_rate < 1.0  # the channel really does corrupt symbols
        assert t_after.agreement_rate == t_before.agreement_rate
        np.testing.assert_array_equal(t_after.predicted_states, t_before.predicted_states)
        assert t_after.alice_key != t_before.alice_key

    def test_deterministic_under_seed(self):
        config = quiet_config()
        clf = self._accepted(config)
        t1 = state_prediction(clf, config, RandomSource(123))
        t2 = state_prediction(clf, config, RandomSource(123))
        assert t1.to_json_dict() == t2.to_json_dict()
        t3 = state_prediction(clf, config, RandomSource(124))
        assert t3.alice_key != t1.alice_key

    def test_transcript_serializes(self):
        import json

        config = quiet_config()
        clf = self._accepted(config)
        doc = state_prediction(clf, config, RandomSource(9)).to_json_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["n_sent"] == 400
        assert parsed["agreement_rate"] == 1.0
        assert set(parsed["alice_key"]) <= {"0", "1"}


class TestTranscriptAgainstThePerSymbolLoop:
    """The keys from one lookup per state and the agreement counted on
    states equal what one encode call per symbol and agreement on bit
    strings give."""

    def _check(self, config, learn_seed, predict_seed):
        clf = state_learning(config, RandomSource(learn_seed)).classifier
        transcript = state_prediction(clf, config, RandomSource(predict_seed))
        want = per_symbol_transcript_keys(config.rule, transcript.sent_states, transcript.predicted_states)
        assert (transcript.alice_key, transcript.bob_key, transcript.agreement_rate) == want
        assert type(transcript.agreement_rate) is float
        return transcript

    def test_noisy_qpsk_session_with_erasures_and_a_variable_length_rule(self):
        config = quiet_config(
            kind=ModulationKind.QPSK, vm=6.0, channel=ChannelParams(distance_km=20.0, excess_noise=0.05),
            rule_id="rule3", training_size=1000, testing_size=1000, prediction_block=3000, auc_threshold=0.6,
        )
        transcript = self._check(config, learn_seed=3, predict_seed=4)
        assert transcript.n_erased > 0
        assert 0.0 < transcript.agreement_rate < 1.0
        assert len(transcript.alice_key) != len(transcript.bob_key)  # misread states carry other lengths

    def test_default_session(self):
        self._check(SessionConfig(), learn_seed=7, predict_seed=8)


class TestSessionConfig:
    def test_defaults_describe_the_reference_session(self):
        config = SessionConfig()
        assert config.kind is ModulationKind.PSK8
        assert config.vm == 50.0
        assert config.channel.distance_km == 20.0
        assert config.qmlc.k == 9
        assert config.training_size == 5000
        assert config.testing_size == 10_000

    def test_training_size_must_exceed_k(self):
        with pytest.raises(InvalidParameterError):
            quiet_config(training_size=5, qmlc=QmlcParams(k=5))

    def test_unknown_rule_rejected(self):
        with pytest.raises(InvalidParameterError):
            quiet_config(rule_id="rule9")

    def test_auc_threshold_range(self):
        with pytest.raises(InvalidParameterError):
            quiet_config(auc_threshold=0.4)
        with pytest.raises(InvalidParameterError):
            quiet_config(auc_threshold=1.2)
        assert quiet_config(auc_threshold=1.0).auc_threshold == 1.0

    @pytest.mark.parametrize("name", ["training_size", "testing_size", "prediction_block"])
    @pytest.mark.parametrize("value", [300.5, 300.0, True, "300"])
    def test_sizes_must_be_integers(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
            quiet_config(**{name: value})

    def test_integer_size_of_any_integer_type_is_a_plain_int(self):
        config = quiet_config(training_size=np.int64(300))
        assert config.training_size == 300 and type(config.training_size) is int

    @pytest.mark.parametrize("vm", [float("nan"), float("inf"), 0.0, -1.0])
    def test_modulation_variance_must_be_finite_and_positive(self, vm):
        with pytest.raises(InvalidParameterError, match="modulation variance"):
            quiet_config(vm=vm)

    @pytest.mark.parametrize("name", ["vm", "auc_threshold", "filter_quantile", "filter_threshold"])
    @pytest.mark.parametrize("value", [True, "x"])
    def test_float_fields_must_be_real_numbers(self, name, value):
        # a bool once passed as 1, a string was a raw TypeError or, for the filter, passed until learning
        with pytest.raises(InvalidParameterError, match=f"{name} must be a real number"):
            quiet_config(**{name: value})

    def test_float_fields_are_plain_floats(self):
        config = quiet_config(vm=np.int64(50), auc_threshold=np.float32(0.5) + 0.25, filter_quantile=1)
        assert (config.vm, config.auc_threshold, config.filter_quantile) == (50.0, 0.75, 1.0)
        assert all(type(v) is float for v in (config.vm, config.auc_threshold, config.filter_quantile))
        assert config.filter_threshold is None

    def test_qmlc_must_be_qmlc_params(self):
        # None once raised a raw AttributeError at the k check
        with pytest.raises(InvalidParameterError, match="qmlc must be a QmlcParams, got None"):
            quiet_config(qmlc=None)

    def test_rule_id_must_be_a_string(self):
        # a list once raised a raw TypeError at the rule lookup
        with pytest.raises(InvalidParameterError, match=r"rule_id must be a str, got \['x'\]"):
            quiet_config(rule_id=["x"])

    def test_channel_must_be_channel_params(self):
        # None was once accepted and failed only when learning ran
        with pytest.raises(InvalidParameterError, match="channel must be a ChannelParams, got None"):
            quiet_config(channel=None)

    def test_kind_is_coerced_to_the_enum(self):
        assert quiet_config(kind="qpsk").kind is ModulationKind.QPSK
        with pytest.raises(InvalidParameterError, match="unknown modulation kind"):
            quiet_config(kind="16qam")

    def test_scheme_and_rule_are_built_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(protocol, "build_scheme", lambda *args: built.append(args) or build_scheme(*args))
        config = SessionConfig(kind="qpsk", vm=3.0, rule_id="rule3")
        assert config.scheme is config.scheme
        assert built == [("qpsk", 3.0)]
        assert (config.scheme.kind, config.scheme.modulation_variance) == (ModulationKind.QPSK, 3.0)
        assert config.rule is NAMED_RULES["rule3"]

    def test_scheme_and_rule_stay_out_of_eq_repr_and_asdict(self):
        config = SessionConfig()
        names = {f.name for f in dataclasses.fields(SessionConfig)}
        assert "scheme" not in names and "rule" not in names
        assert set(dataclasses.asdict(config)) == names
        assert "scheme=" not in repr(config) and "rule=" not in repr(config)
        other = SessionConfig()
        assert other.scheme is not config.scheme and other == config
