import csv
import inspect
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcvqkd.channel import transmittance_from_distance
from mlcvqkd.classifier import QmlcParams, TrainedClassifier, train
from mlcvqkd.cli import (
    DEFAULT_CONFIG,
    _keyrate_params,
    _session_config,
    _stage_rng,
    _write_compact_json,
    _write_csv,
    build_parser,
    load_config,
    main,
)
from mlcvqkd.errors import MlcvqkdError
from mlcvqkd.keyrate import KeyRateParams, Protocol, optimize_vm, rate_asymptotic
from mlcvqkd.protocol import SessionConfig, _generate_population, state_learning, state_prediction
from mlcvqkd.statespace import build_scheme
from oracles import csv_writer_table, per_point_optimize_vm, per_row_keyrate_rows

QUIET_SESSION = {
    "seed": 7,
    "scheme": {"kind": "8psk", "vm": 2.0},
    "channel": {"distance_km": 0.0, "excess_noise": 0.0, "shot_noise": 1e-18},
    "classifier": {"k": 5},
    "session": {"training_size": 300, "testing_size": 300, "prediction_block": 200},
    "simulate": {"population": 50},
}


def write_config(tmp_path, override, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(override))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def with_value(key, value, base=QUIET_SESSION):
    """A copy of base with the dotted config key set to value."""
    config = json.loads(json.dumps(base))
    *sections, name = key.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    return config


class TestConfigLoading:
    def test_defaults_when_no_file(self):
        config = load_config(None, None)
        assert config == DEFAULT_CONFIG
        assert config is not DEFAULT_CONFIG  # caller gets a private copy

    def test_override_merges_into_defaults(self, tmp_path):
        path = write_config(tmp_path, {"scheme": {"vm": 3.5}})
        config = load_config(path, None)
        assert config["scheme"]["vm"] == 3.5
        assert config["scheme"]["kind"] == "8psk"
        assert config["channel"]["distance_km"] == 20.0

    def test_seed_flag_wins(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        assert load_config(path, 99)["seed"] == 99

    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"typo_section": {}})
        code = main(["--config", path, "--out", str(tmp_path), "simulate"])
        assert code == 2
        assert "unknown config key: typo_section" in capsys.readouterr().err

    def test_eps_pe_is_an_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"keyrate": {"eps_pe": 0.5}})
        code = main(["--config", path, "--out", str(tmp_path), "keyrate"])
        assert code == 2
        assert "unknown config key: keyrate.eps_pe" in capsys.readouterr().err

    def test_missing_file_is_a_config_error(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "simulate"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["--config", str(bad), "--out", str(tmp_path), "simulate"])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("make, message", [
        (lambda path: path.mkdir(), "cannot be read: Is a directory"),
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "is not valid JSON: 'utf-8' codec can't decode"),
        (lambda path: path.write_text('{"seed": 1' + "0" * 5000 + "}"), "is not valid JSON: Exceeds the limit"),
    ])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, make, message):
        # each once escaped as an IsADirectoryError, a UnicodeDecodeError or a ValueError, exit 1
        make(tmp_path / "config")
        code = main(["--config", str(tmp_path / "config"), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 2
        assert f"error: config file {tmp_path / 'config'} {message}" in capsys.readouterr().err

    def test_directory_classifier_is_a_config_error(self, tmp_path, capsys):
        # once an IsADirectoryError, exit 1
        code = main(["--out", str(tmp_path / "out"), "predict", "--classifier", str(tmp_path)])
        assert code == 2
        assert f"error: classifier file {tmp_path} cannot be read: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("out, reason", [("taken", "File exists"), ("taken/sub", "Not a directory")])
    def test_output_directory_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys, out, reason):
        # a file in the way once raised a FileExistsError or NotADirectoryError, exit 1
        (tmp_path / "taken").write_text("")
        code = main(["--out", str(tmp_path / out), "keyrate"])
        assert code == 2
        assert f"error: cannot make output directory {tmp_path / out}: {reason}" in capsys.readouterr().err

    def test_format_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "csv", "--out", str(tmp_path), "simulate"])
        assert exc.value.code == 2


class TestParser:
    """The parser is built once per process and reused by every main call."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_keeps_help_and_usage_errors(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            with pytest.raises(SystemExit) as exc:
                main(["--out", str(tmp_path), "predict", "--bogus"])
            assert exc.value.code == 2
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "keyrate" in outputs[0].out and "unrecognized arguments: --bogus" in outputs[0].err
        # an option one call set is not left behind for the next
        assert main(["--out", str(tmp_path), "predict", "--classifier", "missing.json"]) == 2
        assert main(["--out", str(tmp_path), "predict"]) == 2
        assert "predict needs --classifier" in capsys.readouterr().err


class TestDefaultsAgree:
    """DEFAULT_CONFIG and the dataclass defaults describe the same run."""

    def test_session_defaults(self):
        assert _session_config(load_config(None, None)) == SessionConfig()

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_keyrate_defaults(self, protocol):
        got = _keyrate_params({**DEFAULT_CONFIG["keyrate"], "protocol": protocol.value}, transmittance=0.4)
        assert got == KeyRateParams(vm=0.35, transmittance=0.4, protocol=protocol)

    def test_optimize_bounds(self):
        defaults = inspect.signature(optimize_vm).parameters
        for name in ("v_lo", "v_hi"):
            assert DEFAULT_CONFIG["optimize"][name] == defaults[name].default


# dotted key, an integer value that runs, the command that reads the key
INTEGER_KEYS = [
    ("seed", 7, "simulate"),
    ("session.training_size", 300, "simulate"),
    ("session.testing_size", 300, "simulate"),
    ("session.prediction_block", 200, "simulate"),
    ("simulate.population", 50, "simulate"),
    ("keyrate.N", 1_000_000, "keyrate"),
]


def integer_config(key, value):
    """The quiet session with key set, and a finite-size keyrate section,
    the only one that reads keyrate.N."""
    config = with_value(key, value)
    config["keyrate"] = {**config.get("keyrate", {}), "finite": True, "distances_km": [10]}
    return config


class TestConfigValues:
    @pytest.mark.parametrize("key, value, command", INTEGER_KEYS)
    @pytest.mark.parametrize("bad", ["fraction", "bool"])
    def test_non_integer_is_a_config_error(self, tmp_path, capsys, key, value, command, bad):
        config = integer_config(key, value + 0.7 if bad == "fraction" else True)
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path), command])
        assert code == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command", INTEGER_KEYS)
    def test_integral_float_runs_as_the_integer(self, tmp_path, key, value, command):
        written = {"simulate": "samples.csv", "keyrate": "keyrate.csv"}[command]
        outputs, sessions = [], []
        for given in (value, float(value)):
            path = write_config(tmp_path, integer_config(key, given))
            out = tmp_path / repr(given)
            assert main(["--config", path, "--out", str(out), command]) == 0
            outputs.append((out / written).read_bytes())
            sessions.append(_session_config(load_config(path, None)))
        assert outputs[0] == outputs[1]
        assert sessions[0] == sessions[1]
        for name in ("training_size", "testing_size", "prediction_block"):
            assert type(getattr(sessions[1], name)) is int

    def test_phase_drift_rad_sets_phase_drift(self):
        config = load_config(None, None)
        config["channel"]["phase_drift_rad"] = 0.3
        session = _session_config(config)
        assert session.channel.phase_drift == 0.3
        assert session.channel.distance_km == 20.0

    def test_negative_population_is_a_config_error(self, tmp_path, capsys):
        config = with_value("simulate.population", -5)
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path), "simulate"])
        assert code == 2
        assert "simulate.population must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["keyrate", "optimize"])
    @pytest.mark.parametrize("finite", ["no", 1, None])
    def test_non_boolean_finite_is_a_config_error(self, tmp_path, capsys, command, finite):
        override = {"keyrate": {"finite": finite, "distances_km": [10]}, "optimize": {"distances_km": [10]}}
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path), command])
        assert code == 2
        assert "keyrate.finite must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command, message", [
        ("scheme.kind", "16qam", "learn", "unknown modulation kind '16qam'"),
        ("keyrate.protocol", "bb84", "keyrate", "unknown protocol 'bb84'"),
        ("optimize.protocol", "bb84", "optimize", "unknown protocol 'bb84'"),
        ("session.rule_id", 5, "learn", "rule_id must be a str, got 5"),
        ("channel.excess_noise", None, "simulate", "channel.excess_noise must be a real number, got None"),
        ("keyrate.excess_noise", None, "keyrate", "keyrate.excess_noise must be a real number, got None"),
        ("keyrate.distances_km", [10, None], "keyrate", "keyrate.distances_km must be a real number, got None"),
        ("optimize.v_lo", None, "optimize", "optimize.v_lo must be a real number, got None"),
        ("evaluate.vm_grid", [None], "evaluate", "evaluate.vm_grid must be a real number, got None"),
        ("evaluate.distance_grid", [10.0, "far"], "evaluate",
         "evaluate.distance_grid must be a real number, got 'far'"),
        ("session.filter_quantile", "abc", "learn", "session.filter_quantile must be a real number, got 'abc'"),
        ("session.filter_threshold", "abc", "learn", "session.filter_threshold must be a real number, got 'abc'"),
    ])
    def test_unknown_member_or_null_is_a_config_error(self, tmp_path, capsys, key, value, command, message):
        config = with_value(key, value)
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path), command])
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command, build", [
        ("keyrate.protocol", "bogus", "keyrate", lambda v: KeyRateParams(vm=1.0, transmittance=0.5, protocol=v)),
        ("optimize.protocol", "bogus", "optimize", lambda v: KeyRateParams(vm=1.0, transmittance=0.5, protocol=v)),
        ("keyrate.protocol", ["ml"], "keyrate", lambda v: KeyRateParams(vm=1.0, transmittance=0.5, protocol=v)),
        ("scheme.kind", "16qam", "simulate", lambda v: build_scheme(v, 2.0)),
        ("scheme.kind", {}, "simulate", lambda v: build_scheme(v, 2.0)),
        ("session.rule_id", 5, "learn", lambda v: SessionConfig(rule_id=v)),
    ])
    def test_enum_or_str_value_prints_the_library_message(self, tmp_path, capsys, key, value, command, build):
        # the value reaches the dataclass unchanged, so its own check speaks
        with pytest.raises(MlcvqkdError) as caught:
            build(value)
        code = main(["--config", write_config(tmp_path, with_value(key, value)), "--out", str(tmp_path), command])
        assert code == caught.value.exit_code == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    @pytest.mark.parametrize("key, value, command, message", [
        ("keyrate.excess_noise", True, "keyrate", "keyrate.excess_noise must be a real number, got True"),
        ("keyrate.eta", "0.6", "keyrate", "keyrate.eta must be a real number, got '0.6'"),
        ("keyrate.vm", "0.35", "keyrate", "keyrate.vm must be a real number, got '0.35'"),
        ("channel.distance_km", True, "simulate", "channel.distance_km must be a real number, got True"),
        ("optimize.v_hi", "20", "optimize", "optimize.v_hi must be a real number, got '20'"),
        ("keyrate.distances_km", "25", "keyrate", "keyrate.distances_km must be an array"),
        ("keyrate.distances_km", [10, True], "keyrate", "keyrate.distances_km must be a real number, got True"),
        ("optimize.distances_km", "25", "optimize", "optimize.distances_km must be an array"),
        ("optimize.distances_km", {"25": 1}, "optimize", "optimize.distances_km must be an array"),
        ("evaluate.vm_grid", "50", "evaluate", "evaluate.vm_grid must be an array"),
        ("evaluate.distance_grid", {"10": 20}, "evaluate", "evaluate.distance_grid must be an array"),
    ])
    def test_bool_or_string_number_and_non_array_list_are_config_errors(self, tmp_path, capsys, key,
                                                                         value, command, message):
        config = with_value(key, value)
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path), command])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_bool_or_string_n_fraction_is_a_config_error(self, tmp_path, capsys, value):
        config = integer_config("keyrate.n_fraction", value)
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path), "keyrate"])
        assert code == 2
        assert f"keyrate.n_fraction must be a real number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes, command, message", [
        ({"session.training_size": 2**70}, "learn", "training_size must be at most"),
        ({"session.testing_size": 1e300}, "learn", "testing_size must be at most"),
        ({"session.prediction_block": 2**70}, "learn", "prediction_block must be at most"),
        ({"session.training_size": 2**62, "session.testing_size": 2**62}, "learn", "samples together"),
        ({"simulate.population": 2**70}, "simulate", "simulate.population must be nonnegative and at most"),
        ({"simulate.population": 1e300}, "simulate", "simulate.population must be nonnegative and at most"),
    ])
    def test_size_past_the_index_range_is_a_config_error(self, tmp_path, capsys, sizes, command, message):
        config = QUIET_SESSION
        for key, value in sizes.items():
            config = with_value(key, value, config)
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path), command])
        assert code == 2
        assert message in capsys.readouterr().err


class TestClassifierConfig:
    @pytest.mark.parametrize("k", [9.5, 0.5, True, "9"])
    def test_non_integer_k_is_a_config_error(self, tmp_path, capsys, k):
        session = json.loads(json.dumps(QUIET_SESSION))
        session["classifier"]["k"] = k
        code = main(["--config", write_config(tmp_path, session), "--out", str(tmp_path), "learn"])
        assert code == 2
        assert "classifier.k must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["s", "t"])
    def test_non_finite_smoothing_or_threshold_is_a_config_error(self, tmp_path, capsys, field):
        session = json.loads(json.dumps(QUIET_SESSION))
        session["classifier"][field] = float("inf")
        code = main(["--config", write_config(tmp_path, session), "--out", str(tmp_path), "learn"])
        assert code == 2
        assert "finite positive" in capsys.readouterr().err

    def test_null_quantile_with_a_threshold_runs(self, tmp_path):
        session = with_value("session.filter_threshold", 1e6)
        session["session"]["filter_quantile"] = None
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, session), "--out", str(out), "learn"]) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["filter_threshold"] == 1e6 and report["discard_rate"] == 0.0

    def test_integral_float_k_is_accepted(self, tmp_path):
        session = json.loads(json.dumps(QUIET_SESSION))
        session["classifier"]["k"] = 5.0
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, session), "--out", str(out), "learn"]) == 0
        params = json.loads((out / "classifier.json").read_text())["params"]
        assert params["k"] == 5 and isinstance(params["k"], int)


class TestSimulate:
    def test_writes_samples_and_effective_config(self, tmp_path):
        path = write_config(tmp_path, QUIET_SESSION)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "simulate"]) == 0

        rows = read_csv(out / "samples.csv")
        assert rows[0] == ["true_state", "q_in", "p_in", "q_out", "p_out"]
        assert len(rows) == 51
        assert all(1 <= int(r[0]) <= 8 for r in rows[1:])

        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["simulate"]["population"] == 50
        assert effective["session"]["rule_id"] == "rule2"  # default merged in

    def test_same_seed_reproduces_bytes(self, tmp_path):
        path = write_config(tmp_path, QUIET_SESSION)
        main(["--config", path, "--out", str(tmp_path / "a"), "simulate"])
        main(["--config", path, "--out", str(tmp_path / "b"), "simulate"])
        main(["--config", path, "--seed", "8", "--out", str(tmp_path / "c"), "simulate"])
        a = (tmp_path / "a" / "samples.csv").read_bytes()
        b = (tmp_path / "b" / "samples.csv").read_bytes()
        c = (tmp_path / "c" / "samples.csv").read_bytes()
        assert a == b
        assert a != c

    def test_effective_config_reingests_to_the_same_run(self, tmp_path):
        path = write_config(tmp_path, QUIET_SESSION)
        first = tmp_path / "first"
        assert main(["--config", path, "--out", str(first), "simulate"]) == 0
        replay = tmp_path / "replay"
        assert main([
            "--config", str(first / "effective_config.json"),
            "--out", str(replay), "simulate",
        ]) == 0
        assert (replay / "samples.csv").read_bytes() == (first / "samples.csv").read_bytes()
        assert (replay / "effective_config.json").read_text() == (first / "effective_config.json").read_text()

    def test_rows_are_the_generated_population(self, tmp_path):
        path = write_config(tmp_path, QUIET_SESSION)
        assert main(["--config", path, "--out", str(tmp_path), "simulate"]) == 0
        config = load_config(path, None)
        session = _session_config(config)
        indices, _, sent, received = _generate_population(
            session.scheme, 50, session.channel, _stage_rng(config, "simulate")
        )
        rows = np.array(read_csv(tmp_path / "samples.csv")[1:], dtype=float)
        np.testing.assert_array_equal(rows[:, 0], indices)
        np.testing.assert_array_equal(rows[:, 1:3], sent)
        np.testing.assert_array_equal(rows[:, 3:], received)


def plain_values(doc):
    """doc with each numpy array as its .tolist(): the values stdlib json reads back."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in doc.items()}


class TestLearnPredict:
    def test_learn_then_predict_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, QUIET_SESSION)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "learn"]) == 0
        assert "average AUC 1.0000" in capsys.readouterr().out

        evaluation = json.loads((out / "evaluation.json").read_text())
        assert evaluation["average_auc"] == 1.0
        assert evaluation["macro_precision"] == 1.0
        assert "filter_threshold" in evaluation
        assert 0.0 < evaluation["discard_rate"] < 0.02

        classifier = out / "classifier.json"
        assert json.loads(classifier.read_text())["format"] == "qmlc-classifier"

        code = main([
            "--config", path, "--out", str(out),
            "predict", "--classifier", str(classifier),
        ])
        assert code == 0
        transcript = json.loads((out / "transcript.json").read_text())
        assert transcript["n_sent"] == 200
        assert transcript["agreement_rate"] == 1.0
        assert transcript["alice_key"] == transcript["bob_key"]

    def test_documents_hold_the_in_memory_values(self, tmp_path):
        # classifier.json and transcript.json are written by orjson; stdlib json must read back every value,
        # each float bit for bit (repr tells -0.0 from 0.0 and 1 from 1.0, which == does not)
        path = write_config(tmp_path, QUIET_SESSION)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "learn"]) == 0
        config = load_config(path, None)
        clf = state_learning(_session_config(config), _stage_rng(config, "learn")).classifier
        text = (out / "classifier.json").read_text()
        assert text.endswith("}\n")
        doc, want = json.loads(text), plain_values(clf.to_json_dict())
        assert doc == want and repr(doc) == repr(want)

        code = main(["--config", path, "--out", str(out), "predict", "--classifier", str(out / "classifier.json")])
        assert code == 0
        text = (out / "transcript.json").read_text()
        assert text.endswith("}\n")
        doc = json.loads(text)
        want = state_prediction(clf, _session_config(config), _stage_rng(config, "predict")).to_json_dict()
        assert doc == want and repr(doc) == repr(want)

    def test_predict_without_classifier_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, QUIET_SESSION)
        code = main(["--config", path, "--out", str(tmp_path), "predict"])
        assert code == 2
        assert "--classifier" in capsys.readouterr().err

    def test_predict_with_missing_classifier_file(self, tmp_path, capsys):
        path = write_config(tmp_path, QUIET_SESSION)
        code = main([
            "--config", path, "--out", str(tmp_path),
            "predict", "--classifier", str(tmp_path / "gone.json"),
        ])
        assert code == 2
        assert "classifier file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{not json", "is not valid JSON"),
        ('{"format": "qmlc-classifier", "version": 1}', "missing or mistyped field: 'params'"),
        ('[1, 2]', "not a version-1 classifier document"),
    ])
    def test_unreadable_classifier_file_is_a_config_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "classifier.json"
        bad.write_text(text)
        code = main([
            "--config", write_config(tmp_path, QUIET_SESSION), "--out", str(tmp_path),
            "predict", "--classifier", str(bad),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_classifier_of_another_feature_width_is_a_config_error(self, tmp_path, capsys):
        qpsk = json.loads(json.dumps(QUIET_SESSION))
        qpsk["scheme"]["kind"] = "qpsk"
        learned = tmp_path / "qpsk"
        assert main(["--config", write_config(tmp_path, qpsk, "qpsk.json"), "--out", str(learned), "learn"]) == 0
        code = main([
            "--config", write_config(tmp_path, QUIET_SESSION), "--out", str(tmp_path / "run"),
            "predict", "--classifier", str(learned / "classifier.json"),
        ])
        assert code == 2
        assert "queries have 8 features, the training rows 4" in capsys.readouterr().err

    @pytest.mark.parametrize("s", [5e-324, 2.2250738585072014e-308])
    def test_ratio_past_the_float_range_exits_three(self, tmp_path, capsys, s):
        # a tiny smoothing s once let numpy's divide warning escape and wrote infinite ratios
        path = write_config(tmp_path, with_value("classifier.s", s))
        assert main(["--config", path, "--out", str(tmp_path / "run"), "learn"]) == 3
        assert f"posterior ratio is not finite (s={s!r})" in capsys.readouterr().err

    def test_rejected_learning_exits_four(self, tmp_path, capsys):
        noisy = json.loads(json.dumps(QUIET_SESSION))
        noisy["scheme"]["vm"] = 0.5
        noisy["channel"] = {"distance_km": 50.0, "excess_noise": 0.05, "shot_noise": 1.0}
        noisy["session"] = {"training_size": 200, "testing_size": 200, "auc_threshold": 0.95}
        path = write_config(tmp_path, noisy)
        code = main(["--config", path, "--out", str(tmp_path), "learn"])
        assert code == 4
        assert "below acceptance threshold" in capsys.readouterr().err


class TestEvaluate:
    def test_grid_sweep(self, tmp_path):
        override = json.loads(json.dumps(QUIET_SESSION))
        override["evaluate"] = {"vm_grid": [2.0, 4.0], "distance_grid": [0.0]}
        path = write_config(tmp_path, override)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "evaluate"]) == 0
        rows = read_csv(out / "metric_sweep.csv")
        assert rows[0][:3] == ["vm", "distance_km", "macro_precision"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert float(row[6]) == 1.0  # average_auc on the quiet channel


class TestKeyrate:
    def test_asymptotic_table_matches_library(self, tmp_path):
        override = {"keyrate": {"distances_km": [10, 20]}}
        path = write_config(tmp_path, override)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "keyrate"]) == 0
        rows = read_csv(out / "keyrate.csv")
        assert len(rows) == 3
        want = rate_asymptotic(KeyRateParams(vm=0.35, transmittance=transmittance_from_distance(20.0),
                                             protocol=Protocol.EIGHT_STATE))
        got = dict(zip(rows[0], rows[2]))
        assert float(got["key_rate"]) == pytest.approx(want.key_rate, rel=1e-15)
        assert float(got["holevo_term"]) == pytest.approx(want.holevo_term, rel=1e-15)
        assert got["protocol"] == "eight-state"

    def test_finite_size_ml_table(self, tmp_path):
        override = {
            "keyrate": {
                "protocol": "ml",
                "finite": True,
                "distances_km": [10],
                "N": 1_000_000,
                "n_fraction": 0.5,
            }
        }
        path = write_config(tmp_path, override)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "keyrate"]) == 0
        rows = read_csv(out / "keyrate.csv")
        got = dict(zip(rows[0], rows[1]))
        want = rate_finite_reference()
        assert float(got["key_rate"]) == pytest.approx(want, rel=1e-15)
        assert float(got["delta_n"]) > 0

    def test_unphysical_noise_is_a_config_error(self, tmp_path, capsys):
        override = {"keyrate": {"excess_noise": -0.5}}
        path = write_config(tmp_path, override)
        code = main(["--config", path, "--out", str(tmp_path), "keyrate"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("excess_noise", float("nan"), "finite"), ("v_el", float("inf"), "finite"),
        ("ml_eve_term", float("nan"), "finite"), ("vm", float("inf"), "finite"),
        ("excess_noise", -0.5, "nonnegative"),
    ])
    def test_bad_value_is_a_config_error_even_without_distances(self, tmp_path, capsys, key, value,
                                                                 message):
        # the section is converted once per table, before the first row
        override = {"keyrate": {"protocol": "ml", "distances_km": [], key: value}}
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path), "keyrate"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("distance, text", [(math.nan, "NaN"), (math.inf, "Infinity")])
    def test_non_finite_distance_is_a_config_error(self, tmp_path, capsys, distance, text):
        # the error once came later and named the transmittance (nan, or 0.0 for an infinite distance)
        path = write_config(tmp_path, {"keyrate": {"distances_km": [10, distance]}})
        assert text in Path(path).read_text()
        code = main(["--config", path, "--out", str(tmp_path / "run"), "keyrate"])
        assert code == 2
        assert f"distance and loss must be finite, got {distance} km at 0.2 dB/km" in capsys.readouterr().err
        assert not (tmp_path / "run" / "keyrate.csv").exists()

    @pytest.mark.parametrize("distances, code, message", [
        ([0.0, 10.0, -1.0], 3, "key rate is not finite"),
        ([-1.0, 10.0], 2, "distance and loss must be nonnegative, got -1.0 km at 0.2 dB/km"),
    ])
    def test_rows_before_a_bad_distance_are_rated_first(self, tmp_path, capsys, distances, code, message):
        # the table is one kernel call, but its errors come in row order, as the per-row loop raised them
        override = {"keyrate": {"eta": 5e-324, "distances_km": distances}}
        path = write_config(tmp_path, override)
        assert main(["--config", path, "--out", str(tmp_path / "run"), "keyrate"]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "keyrate.csv").exists()

    @pytest.mark.parametrize("command", ["keyrate", "optimize"])
    def test_distance_with_no_transmittance_is_a_config_error(self, tmp_path, capsys, command):
        # 20 000 km once gave T = 0.0, and the error named the transmittance
        override = {command: {"distances_km": [10, 20000]}}
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path / "run"), command])
        assert code == 2
        assert "20000.0 km at 0.2 dB/km transmits nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction, message", [
        (math.inf, "keyrate.n_fraction must be in (0, 1], got inf"),
        (math.nan, "keyrate.n_fraction must be in (0, 1], got nan"),
        (0, "keyrate.n_fraction must be in (0, 1], got 0.0"),
        (1.5, "keyrate.n_fraction must be in (0, 1], got 1.5"),
        ("half", "keyrate.n_fraction must be a real number, got 'half'"),
    ])
    def test_bad_n_fraction_is_a_config_error(self, tmp_path, capsys, fraction, message):
        override = {"keyrate": {"finite": True, "n_fraction": fraction, "distances_km": [10]}}
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path), "keyrate"])
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_block_length_past_the_float_range_is_a_config_error(self, tmp_path, capsys):
        # n = n_fraction * N is a float product; an N past the float range once escaped as an OverflowError
        override = {"keyrate": {"finite": True, "N": 10**400, "distances_km": [10]}}
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path), "keyrate"])
        assert code == 2
        assert f"keyrate.N must be finite, got {10**400}" in capsys.readouterr().err

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", [p.value for p in Protocol])
    def test_table_equals_the_per_row_loop(self, tmp_path, protocol, finite):
        section = {**DEFAULT_CONFIG["keyrate"], "protocol": protocol, "finite": finite,
                   "distances_km": list(range(0, 151))}
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, {"keyrate": section}), "--out", str(out),
                     "keyrate"]) == 0
        got = (out / "keyrate.csv").read_bytes()
        want = per_row_keyrate_rows(section)
        csv_writer_table(tmp_path / "want.csv", got.decode().splitlines()[0].split(","), want)
        assert got == (tmp_path / "want.csv").read_bytes()
        if finite:  # the finite-size rows cross the positivity edge inside 150 km
            assert min(row[6] for row in want) <= 0 < max(row[6] for row in want)


class TestOptimize:
    def test_optimal_vm_table(self, tmp_path):
        override = {"optimize": {"distances_km": [50], "v_lo": 0.05, "v_hi": 20.0}}
        path = write_config(tmp_path, override)
        out = tmp_path / "run"
        assert main(["--config", path, "--out", str(out), "optimize"]) == 0
        rows = read_csv(out / "optimal_vm.csv")
        assert rows[0] == ["distance_km", "optimal_vm", "key_rate", "no_positive_rate"]
        assert len(rows) == 2
        assert float(rows[1][2]) > 0
        assert rows[1][3] == "0"

    @pytest.mark.parametrize("key, value", [
        ("v_hi", "Infinity"), ("v_hi", float("inf")), ("v_lo", float("nan")),
    ])
    def test_non_finite_bound_is_a_config_error(self, tmp_path, capsys, key, value):
        override = {"optimize": {"distances_km": [50], key: value}}
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path), "optimize"])
        assert code == 2
        # a string is not a number, whatever float() would make of it
        want = (f"optimize.{key} must be a real number, got {value!r}" if isinstance(value, str)
                else "finite 0 < v_lo < v_hi")
        assert want in capsys.readouterr().err

    def test_finite_follows_keyrate_finite(self, tmp_path):
        tables = {}
        for finite in (False, True):
            override = {"keyrate": {"finite": finite}, "optimize": {"distances_km": [20, 60]}}
            out = tmp_path / str(finite)
            assert main(["--config", write_config(tmp_path, override), "--out", str(out), "optimize"]) == 0
            tables[finite] = (out / "optimal_vm.csv").read_bytes()
        base = KeyRateParams(vm=1.0, transmittance=0.5, n=500_000, big_n=1_000_000)
        want = optimize_vm([20.0, 60.0], base)
        csv_writer_table(tmp_path / "want.csv", ["distance_km", "optimal_vm", "key_rate", "no_positive_rate"],
                         [[r.distance_km, r.vm, r.key_rate, int(r.no_positive_rate)] for r in want])
        assert tables[True] == (tmp_path / "want.csv").read_bytes()
        assert tables[True] != tables[False]

    @pytest.mark.parametrize("override, command, message", [
        ({"keyrate": {"vm": 5000, "protocol": "four-state"}}, "keyrate", "constellation weights overflow"),
        ({"keyrate": {"vm": 5000, "protocol": "eight-state"}}, "keyrate", "constellation weights overflow"),
        ({"optimize": {"v_hi": 5000}}, "optimize", "constellation weights overflow"),
        ({"keyrate": {"eta": 1e-300}}, "keyrate", "covariance terms overflow"),
        ({"keyrate": {"eta": 5e-324}}, "optimize", "key rate is not finite"),
    ])
    def test_rate_past_the_float_range_exits_three(self, tmp_path, capsys, override, command, message):
        code = main(["--config", write_config(tmp_path, override), "--out", str(tmp_path), command])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_rate_past_the_float_range_prints_no_numpy_warning(self, tmp_path):
        # numpy scalars in the optimize grid once printed three RuntimeWarning lines before the error
        result = subprocess.run(
            [sys.executable, "-m", "mlcvqkd.cli", "--config", write_config(tmp_path, {"keyrate": {"eta": 5e-324}}),
             "--out", str(tmp_path / "out"), "optimize"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 3
        assert "key rate is not finite" in result.stderr
        assert "RuntimeWarning" not in result.stderr


KEYRATE_HEADER = ["distance_km", "transmittance", "vm", "mutual_information", "holevo_term", "delta_n",
                  "key_rate", "protocol"]
OPTIMAL_VM_HEADER = ["distance_km", "optimal_vm", "key_rate", "no_positive_rate"]


class TestSweepBytes:
    """A small key-rate sweep: every table the CLI writes equals, byte for
    byte, the one the reference loops and the csv.writer writer make."""

    @pytest.mark.parametrize("vm", [0.2, 1.0])
    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", [p.value for p in Protocol])
    def test_keyrate_table(self, tmp_path, protocol, finite, vm):
        section = {**DEFAULT_CONFIG["keyrate"], "protocol": protocol, "vm": vm, "finite": finite,
                   "distances_km": list(range(0, 151, 10))}
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, {"keyrate": section}), "--out", str(out),
                     "keyrate"]) == 0
        csv_writer_table(tmp_path / "want.csv", KEYRATE_HEADER, per_row_keyrate_rows(section))
        assert (out / "keyrate.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("protocol", ["gaussian", "four-state", "eight-state"])
    def test_optimal_vm_curve(self, tmp_path, protocol):
        distances = list(range(10, 151, 20))
        override = {"optimize": {"protocol": protocol, "distances_km": distances}}
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, override), "--out", str(out), "optimize"]) == 0
        want = per_point_optimize_vm(Protocol(protocol), [float(d) for d in distances],
                                     KeyRateParams(vm=1.0, transmittance=0.5))
        csv_writer_table(tmp_path / "want.csv", OPTIMAL_VM_HEADER,
                         [[r.distance_km, r.vm, r.key_rate, int(r.no_positive_rate)] for r in want])
        assert (out / "optimal_vm.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, 2.0**53 + 2]


class TestWriteCsv:
    """_write_csv formats each row with one format string; the bytes are
    those of the csv.writer writer it replaced."""

    def check(self, tmp_path, header, rows):
        _write_csv(tmp_path / "got.csv", header, rows)
        csv_writer_table(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_edge_floats_ints_and_strings(self, tmp_path):
        names = [p.value for p in Protocol]
        rows = [[x, np.float64(x), i, np.int64(-i), names[i % len(names)]] for i, x in enumerate(EDGE_FLOATS)]
        self.check(tmp_path, ["a", "b", "c", "d", "e"], rows)
        # a numpy float in the first row formats the column as a float too
        self.check(tmp_path, ["a", "b"], [[np.float64(0.1), 7], [0.2, 8]])

    def test_empty_table_is_the_header(self, tmp_path):
        self.check(tmp_path, ["distance_km", "key_rate"], [])
        assert (tmp_path / "got.csv").read_bytes() == b"distance_km,key_rate\r\n"

    @given(rows=st.lists(st.tuples(st.floats(), st.integers(), st.text(alphabet="abc-.0123456789", min_size=1)),
                         max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_drawn_rows(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), ["x", "n", "s"], [list(row) for row in rows])


class TestWriteCompactJson:
    @given(floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50),
           ints=st.lists(st.integers(-2**63, 2**64 - 1), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_json_reads_back_every_finite_float_and_64_bit_integer(self, floats, ints):
        doc = {"floats": floats, "ints": ints, "rows": [floats, ints]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            _write_compact_json(path, doc)
            assert repr(json.loads(path.read_text())) == repr(doc)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e16, 1.7976931348623157e308]), max_size=60),
           columns=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_numpy_arrays_are_written_as_their_lists(self, values, columns):
        one = np.array(values, dtype=float)
        two = one[: len(one) // columns * columns].reshape(-1, columns)
        for array in (one, two):
            assert orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY) == orjson.dumps(array.tolist())

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_a_classifier_trained_on_non_contiguous_features_is_written(self, tmp_path, layout):
        # orjson refuses a non-contiguous array, and train keeps a float64 view as it is
        rng = np.random.default_rng(6)
        if layout == "strided":
            features, flags = rng.normal(size=(30, 16))[:, ::2], rng.random((30, 4)) < 0.5
        else:
            features, flags = np.asfortranarray(rng.normal(size=(30, 8))), np.asfortranarray(rng.random((30, 4)) < 0.5)
        clf = train(features, flags, QmlcParams(k=3))
        assert not clf.features.flags.c_contiguous
        path = tmp_path / "classifier.json"
        _write_compact_json(path, clf.to_json_dict())
        doc = json.loads(path.read_text())
        assert doc["features"] == features.tolist() and doc["label_flags"] == flags.astype(int).tolist()
        assert doc == plain_values(clf.to_json_dict())

    def test_a_classifier_trained_with_numpy_s_and_t_reads_back_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        params = QmlcParams(k=3, s=np.float32(0.5), t=np.float32(1.5))
        clf = train(rng.normal(size=(30, 8)), rng.random((30, 4)) < 0.5, params)
        path = tmp_path / "classifier.json"
        _write_compact_json(path, clf.to_json_dict())
        doc = json.loads(path.read_text())
        assert doc == plain_values(clf.to_json_dict())
        assert TrainedClassifier.from_json_dict(doc).params == params


# a default run's effective_config.json, as indent=2 JSON of this compact text
DEFAULT_EFFECTIVE_CONFIG = (
    '{"seed": 20240901, "scheme": {"kind": "8psk", "vm": 50.0}, '
    '"channel": {"distance_km": 20.0, "loss_db_per_km": 0.2, "excess_noise": 0.01, '
    '"phase_drift_rad": 0.0, "shot_noise": 1.0}, '
    '"classifier": {"k": 9, "s": 1.0, "t": 1.0}, '
    '"session": {"training_size": 5000, "testing_size": 10000, "prediction_block": 10000, '
    '"rule_id": "rule2", "auc_threshold": 0.9, "filter_quantile": 0.995, "filter_threshold": null}, '
    '"simulate": {"population": 10000}, '
    '"keyrate": {"protocol": "eight-state", "vm": 0.35, "distances_km": [0, 5, 10, 20, 40, 60, 80, 100], '
    '"excess_noise": 0.01, "eta": 0.6, "v_el": 0.05, "beta": 0.98, "lam": 0.927, "finite": false, '
    '"N": 1000000, "n_fraction": 0.5, "eps_bar": 1e-10, "eps_pa": 1e-10, '
    '"ml_eve_term": 0.0}, '
    '"optimize": {"protocol": "eight-state", "distances_km": [20, 40, 60, 80, 100], '
    '"v_lo": 0.05, "v_hi": 20.0}, '
    '"evaluate": {"vm_grid": [30.0, 50.0], "distance_grid": [10.0, 20.0]}}'
)


def leaves(config, prefix=""):
    """Dotted keys of every non-object value in config."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


# the commands that read each section
READERS = {
    "seed": ("simulate",), "scheme": ("learn",), "channel": ("learn",), "classifier": ("learn",),
    "session": ("learn",), "simulate": ("simulate",), "keyrate": ("keyrate", "optimize"),
    "optimize": ("optimize",), "evaluate": ("evaluate",),
}
CONFIG_LEAVES = sorted(leaves(DEFAULT_CONFIG))
# a wrong type, an unknown enum member, null, non-finite, negative, and the same inside a list
MUTATIONS = [
    "bogus", True, None, {"x": 1}, math.nan, math.inf, -math.inf, -1, -0.5,
    ["bogus"], [None], [math.nan], [math.inf], [-1],
]
# any JSON value, with numbers kept small enough that a valid one runs in a moment
SCALARS = (st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats(-1e3, 1e3)
           | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=4))
JSON_VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)


def value_at(config, key):
    for name in key.split("."):
        config = config[name]
    return config


# leaves holding a number, and leaves holding a list of numbers
NUMBER_LEAVES = [k for k in CONFIG_LEAVES if type(value_at(DEFAULT_CONFIG, k)) in (int, float)]
LIST_LEAVES = [k for k in CONFIG_LEAVES if isinstance(value_at(DEFAULT_CONFIG, k), list)]
# the quiet session with finite-size key rates, so that keyrate.N and n_fraction are read
FINITE_SESSION = with_value("keyrate.finite", True)


def exit_code(key, value, command, base=QUIET_SESSION):
    """main's exit code on the base session with key set to value, or the
    exception that escaped it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), with_value(key, value, base))
        try:
            return main(["--config", path, "--out", tmp, command])
        except Exception as exc:
            return repr(exc)


class TestConfigFuzz:
    def test_default_effective_config_bytes(self, tmp_path):
        assert main(["--out", str(tmp_path), "keyrate"]) == 0
        want = json.dumps(json.loads(DEFAULT_EFFECTIVE_CONFIG), indent=2) + "\n"
        assert (tmp_path / "effective_config.json").read_text() == want

    def test_every_leaf_mutation_ends_in_a_documented_exit_code(self):
        failures = []
        for key in CONFIG_LEAVES:
            for value in MUTATIONS:
                for command in READERS[key.split(".")[0]]:
                    code = exit_code(key, value, command)
                    if code not in {0, 2, 3, 4}:
                        failures.append((key, value, command, code))
        assert failures == []

    def test_bool_or_string_number_and_string_or_object_list_exit_two(self):
        # the first reader of each section reads every leaf of it
        cases = [(key, value) for key in NUMBER_LEAVES for value in (True, "1")]
        cases += [(key, value) for key in LIST_LEAVES for value in ("25", {"25": 1})]
        failures = []
        for key, value in cases:
            command = READERS[key.split(".")[0]][0]
            code = exit_code(key, value, command, FINITE_SESSION)
            if code != 2:
                failures.append((key, value, command, code))
        assert len(NUMBER_LEAVES) > 20 and len(LIST_LEAVES) == 4
        assert failures == []

    @given(st.sampled_from(CONFIG_LEAVES), JSON_VALUES, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_leaf_value_ends_in_a_documented_exit_code(self, key, value, data):
        command = data.draw(st.sampled_from(READERS[key.split(".")[0]]))
        assert exit_code(key, value, command) in {0, 2, 3, 4}


class TestEffectiveConfig:
    @pytest.mark.parametrize("command", ["simulate", "learn", "evaluate", "keyrate", "optimize"])
    def test_written_once_a_command_returns(self, tmp_path, command):
        override = {**QUIET_SESSION, "evaluate": {"vm_grid": [2.0], "distance_grid": [0.0]},
                    "keyrate": {"distances_km": [10]}, "optimize": {"distances_km": [10]}}
        path = write_config(tmp_path, override)
        assert main(["--config", path, "--out", str(tmp_path / "out"), command]) == 0
        assert json.loads((tmp_path / "out" / "effective_config.json").read_text()) == load_config(path, None)

    def test_holds_integers_past_64_bits_and_nan_of_unread_sections(self, tmp_path):
        # why the file stays on stdlib json: orjson raises on these integers and writes NaN as null
        big = 10**23
        path = write_config(tmp_path, {"simulate": {"population": big}, "evaluate": {"vm_grid": [math.nan]},
                                       "keyrate": {"distances_km": [10]}})
        assert main(["--config", path, "--seed", str(big), "--out", str(tmp_path / "out"), "keyrate"]) == 0
        effective = json.loads((tmp_path / "out" / "effective_config.json").read_text())
        assert effective["seed"] == big and effective["simulate"]["population"] == big
        assert math.isnan(effective["evaluate"]["vm_grid"][0])

    def test_not_written_when_a_command_fails(self, tmp_path):
        path = write_config(tmp_path, {"keyrate": {"vm": 5000, "protocol": "four-state"}})
        assert main(["--config", path, "--out", str(tmp_path / "out"), "keyrate"]) == 3
        assert list((tmp_path / "out").iterdir()) == []


class TestAttackDemo:
    def test_writes_no_file(self, tmp_path):
        assert main(["--out", str(tmp_path / "out"), "attack-demo"]) == 0
        assert not (tmp_path / "out").exists()

    def test_prints_all_nine_strings(self, capsys):
        assert main(["attack-demo"]) == 0
        out = capsys.readouterr().out
        assert "011 110 001" in out
        assert "100 001 110" in out
        assert "1 1011 10101" in out

    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "mlcvqkd.cli", "attack-demo"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "011 110 001" in result.stdout


def rate_finite_reference() -> float:
    from mlcvqkd.keyrate import rate_finite

    params = KeyRateParams(
        vm=0.35, transmittance=transmittance_from_distance(10.0), protocol=Protocol.ML, lam=0.927,
        n=500_000, big_n=1_000_000,
    )
    return rate_finite(params).key_rate
