"""Command-line pipeline driver.

Subcommands: simulate | learn | predict | evaluate | keyrate | optimize |
attack-demo. Every run takes a JSON config (--config), an optional master
seed override (--seed) and an output directory (--out). The effective
configuration, defaults merged in, is written next to the results so a
run can be reproduced exactly by re-ingesting that file.

Determinism: the master seed is split through numpy's SeedSequence spawn
tree into one child stream per pipeline stage (simulate, learn, predict,
evaluate), so changing one stage's workload never perturbs another
stage's draws.

Exit codes: 0 success, 2 configuration error, 3 numerical-domain error,
4 learning rejected by the AUC gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import sys
import typing
from enum import Enum
from pathlib import Path

import orjson

from . import classifier as qmlc
from .channel import ChannelParams, RandomSource, transmittance_from_distance
from .errors import InvalidInputError, InvalidParameterError, LearningRejectedError, MlcvqkdError, integer, real_number
from .keyrate import KeyRateParams, _rate_columns, delta_n, optimize_vm
from .protocol import (
    MAX_SAMPLES,
    SessionConfig,
    _generate_population,
    format_attack_table,
    intercept_resend_demo,
    state_learning,
    state_prediction,
)

# stage index of each subcommand in the master seed's spawn order
_STAGE = {"simulate": 0, "learn": 1, "predict": 2, "evaluate": 3}
_N_STAGES = 4

# config key -> dataclass field, where the two names differ
_FIELD_NAMES = {"phase_drift_rad": "phase_drift"}


def _defaults(values: dict, keys: str) -> dict:
    """Config entries for the space-separated keys, valued from a dataclass's
    field values; an enum member is written as its value."""
    entries = {}
    for key in keys.split():
        value = values[_FIELD_NAMES.get(key, key)]
        entries[key] = value.value if isinstance(value, Enum) else value
    return entries


_SESSION = dataclasses.asdict(SessionConfig())
_KEYRATE = {f.name: f.default for f in dataclasses.fields(KeyRateParams)}
_OPTIMIZE = {name: p.default for name, p in inspect.signature(optimize_vm).parameters.items()}

# Every value a dataclass field or optimize_vm also has comes from there;
# the literals are the commands' own inputs.
DEFAULT_CONFIG = {
    "seed": 20240901,
    "scheme": _defaults(_SESSION, "kind vm"),
    "channel": _defaults(_SESSION["channel"], "distance_km loss_db_per_km excess_noise phase_drift_rad shot_noise"),
    "classifier": _defaults(_SESSION["qmlc"], "k s t"),
    "session": _defaults(_SESSION, "training_size testing_size prediction_block rule_id auc_threshold "
                                   "filter_quantile filter_threshold"),
    "simulate": {"population": 10_000},
    "keyrate": {
        **_defaults(_KEYRATE, "protocol"),
        "vm": 0.35,
        "distances_km": [0, 5, 10, 20, 40, 60, 80, 100],
        **_defaults(_KEYRATE, "excess_noise eta v_el beta lam"),
        "finite": False,
        "N": 1_000_000,
        "n_fraction": 0.5,
        **_defaults(_KEYRATE, "eps_bar eps_pa ml_eve_term"),
    },
    "optimize": {
        "protocol": "eight-state",
        "distances_km": [20, 40, 60, 80, 100],
        **_defaults(_OPTIMIZE, "v_lo v_hi"),
    },
    "evaluate": {
        "vm_grid": [30.0, 50.0],
        "distance_grid": [10.0, 20.0],
    },
}


def _merge(defaults, override, path=""):
    """Recursive dict merge; scalar overrides replace, unknown keys rejected."""
    if not isinstance(override, dict):
        raise InvalidInputError(f"config section {path or '<root>'} must be an object")
    merged = dict(defaults)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise InvalidInputError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, here)
        else:
            merged[key] = value
    return merged


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"{what} file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise InvalidInputError(f"{what} file {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past Python's digit limit
        raise InvalidInputError(f"{what} file {path} is not valid JSON: {exc}") from None


def load_config(path: str | None, seed_override: int | None) -> dict:
    if path is not None:
        config = _merge(DEFAULT_CONFIG, _read_json(path, "config"))
    else:
        config = json.loads(json.dumps(DEFAULT_CONFIG))
    if seed_override is not None:
        config["seed"] = seed_override
    return config


def _stage_rng(config: dict, stage: str) -> RandomSource:
    master = RandomSource(_integer(config["seed"], "seed"))
    return master.split(_N_STAGES)[_STAGE[stage]]


def _integer(value, name: str) -> int:
    """An integer config value: 9 and 9.0 pass, 9.5 and true do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return integer(name, value)


def _reals(value, name: str) -> list[float]:
    """A JSON array of real config values."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{name} must be an array, got {value!r}")
    return [real_number(name, v) for v in value]


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _convert(tp, value, name: str):
    """A config value for a field of type tp: int through _integer, float
    through real_number, and T | None passes null. Any other value (an enum
    or a str) passes unchanged, for the dataclass to check."""
    if typing.get_args(tp):  # T | None
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    if tp is int:
        return _integer(value, name)
    return real_number(name, value) if tp is float else value


def _from_sections(cls, sections: dict, **given):
    """An instance of the dataclass cls. Each entry of the named config
    sections that sets a field not in `given` is converted by that field's
    type; entries that set no field are the commands' own inputs."""
    types = _field_types(cls)
    for section_name, section in sections.items():
        for key, value in section.items():
            name = _FIELD_NAMES.get(key, key)
            if name in types and name not in given:
                given[name] = _convert(types[name], value, f"{section_name}.{key}")
    return cls(**given)


def _session_config(config: dict) -> SessionConfig:
    return _from_sections(
        SessionConfig, {"scheme": config["scheme"], "session": config["session"]},
        channel=_from_sections(ChannelParams, {"channel": config["channel"]}),
        qmlc=_from_sections(qmlc.QmlcParams, {"classifier": config["classifier"]}),
    )


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """The bytes csv.writer would write: the header joined by commas, each
    row through one format built from the first row, %.17g for a float, %s
    otherwise. A column must hold one type, and neither the header nor a
    row may hold a string that csv.writer would quote (one with a comma, a
    quote or a line break, or an empty string alone on its row)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if rows:
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\r\n"
            fh.writelines(line % tuple(row) for row in rows)


def _write_json(path: Path, doc) -> None:
    """doc as indented stdlib JSON: it may hold what orjson cannot write
    faithfully, such as an integer past 64 bits in a config section no
    command reads, or an undefined (NaN) AUC, which orjson writes as null."""
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_compact_json(path: Path, doc) -> None:
    """doc as compact JSON through orjson, for the large documents of finite
    floats and 64-bit integers (classifier.json, transcript.json); it
    formats floats an order of magnitude faster than json.dumps, and json
    reads back the same values. A C-contiguous numpy array in doc is
    written as its .tolist() would be, without building the list."""
    path.write_bytes(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY) + b"\n")


def cmd_simulate(config: dict, out_dir: Path) -> int:
    session = _session_config(config)
    population = _integer(config["simulate"]["population"], "simulate.population")
    if not 0 <= population <= MAX_SAMPLES:
        raise InvalidParameterError(
            f"simulate.population must be nonnegative and at most {MAX_SAMPLES}, got {population}")
    indices, _, sent, received = _generate_population(
        session.scheme, population, session.channel, _stage_rng(config, "simulate")
    )
    rows = [
        [int(k), float(q), float(p), float(q2), float(p2)]
        for k, (q, p), (q2, p2) in zip(indices, sent, received)
    ]
    _write_csv(out_dir / "samples.csv", ["true_state", "q_in", "p_in", "q_out", "p_out"], rows)
    print(f"simulate: wrote {population} rows to {out_dir / 'samples.csv'}")
    return 0


def cmd_learn(config: dict, out_dir: Path) -> int:
    session = _session_config(config)
    outcome = state_learning(session, _stage_rng(config, "learn"))
    _write_compact_json(out_dir / "classifier.json", outcome.classifier.to_json_dict())
    report = outcome.report.to_json_dict()
    report["filter_threshold"] = outcome.filter_threshold
    report["discard_rate"] = outcome.discard_rate
    _write_json(out_dir / "evaluation.json", report)
    print(
        f"learn: average AUC {outcome.report.average_auc:.4f}, "
        f"macro precision {outcome.report.macro_precision:.4f}, "
        f"macro recall {outcome.report.macro_recall:.4f}"
    )
    return 0


def cmd_predict(config: dict, out_dir: Path, classifier_path: str | None) -> int:
    if classifier_path is None:
        raise InvalidInputError("predict needs --classifier <classifier.json> from a learn run")
    clf = qmlc.TrainedClassifier.from_json_dict(_read_json(classifier_path, "classifier"))
    session = _session_config(config)
    transcript = state_prediction(clf, session, _stage_rng(config, "predict"))
    _write_compact_json(out_dir / "transcript.json", transcript.to_json_dict())
    print(
        f"predict: {transcript.n_sent} symbols, {transcript.n_erased} erased, "
        f"agreement rate {transcript.agreement_rate:.4f}"
    )
    return 0


def cmd_evaluate(config: dict, out_dir: Path) -> int:
    rows = []
    vm_grid = _reals(config["evaluate"]["vm_grid"], "evaluate.vm_grid")
    distance_grid = _reals(config["evaluate"]["distance_grid"], "evaluate.distance_grid")
    cells = [(vm, d) for vm in vm_grid for d in distance_grid]
    rngs = _stage_rng(config, "evaluate").split(len(cells))
    for (vm, distance), rng in zip(cells, rngs):
        session = _session_config({**config, "scheme": {**config["scheme"], "vm": vm},
                                   "channel": {**config["channel"], "distance_km": distance}})
        try:
            outcome = state_learning(session, rng)
            report = outcome.report
        except LearningRejectedError as exc:
            report = exc.report
        rows.append([
            vm, distance,
            report.macro_precision, report.macro_recall, report.macro_fpr,
            report.average_precision, report.average_auc, report.erasure_rate,
        ])
    _write_csv(
        out_dir / "metric_sweep.csv",
        ["vm", "distance_km", "macro_precision", "macro_recall", "macro_fpr",
         "average_precision", "average_auc", "erasure_rate"],
        rows,
    )
    print(f"evaluate: wrote {len(rows)} grid cells to {out_dir / 'metric_sweep.csv'}")
    return 0


def _keyrate_params(section: dict, **given) -> KeyRateParams:
    """The KeyRateParams of a keyrate config section; a field in `given` is
    not read from the section (the transmittance, which it lacks, or a
    command's own vm and protocol)."""
    if not isinstance(section["finite"], bool):
        raise InvalidParameterError(f"keyrate.finite must be true or false, got {section['finite']!r}")
    n = big_n = None
    if section["finite"]:
        big_n = _integer(section["N"], "keyrate.N")
        fraction = real_number("keyrate.n_fraction", section["n_fraction"])
        if not 0 < fraction <= 1:
            raise InvalidParameterError(f"keyrate.n_fraction must be in (0, 1], got {fraction}")
        n = round(fraction * real_number("keyrate.N", big_n))  # an N past the float range fails here
    return _from_sections(KeyRateParams, {"keyrate": section}, n=n, big_n=big_n, **given)


def cmd_keyrate(config: dict, out_dir: Path) -> int:
    section = config["keyrate"]
    distances = _reals(section["distances_km"], "keyrate.distances_km")
    # the section is converted once per table; rows differ in T only
    base = _keyrate_params(section, transmittance=1.0)
    transmittances, bad_distance = [], None
    for distance in distances:
        try:
            transmittances.append(transmittance_from_distance(distance))
        except InvalidParameterError as exc:  # raised after the rows before it are rated, as in row order
            bad_distance = exc
            break
    keys, i_ab, eve = _rate_columns(base, [base.vm] * len(transmittances), transmittances)
    if bad_distance is not None:
        raise bad_distance
    d = 0.0 if base.n is None else delta_n(base)
    name = base.protocol.value
    rows = [[distance, t, base.vm, i, e, d, key, name]
            for distance, t, i, e, key in zip(distances, transmittances, i_ab.tolist(), eve.tolist(), keys.tolist())]
    _write_csv(
        out_dir / "keyrate.csv",
        ["distance_km", "transmittance", "vm", "mutual_information", "holevo_term",
         "delta_n", "key_rate", "protocol"],
        rows,
    )
    print(f"keyrate: wrote {len(rows)} distances to {out_dir / 'keyrate.csv'}")
    return 0


def cmd_optimize(config: dict, out_dir: Path) -> int:
    section = config["optimize"]
    distances = _reals(section["distances_km"], "optimize.distances_km")
    v_lo = real_number("optimize.v_lo", section["v_lo"])
    v_hi = real_number("optimize.v_hi", section["v_hi"])
    base = _keyrate_params(config["keyrate"], vm=1.0, transmittance=0.5, protocol=section["protocol"])
    results = optimize_vm(distances, base, v_lo=v_lo, v_hi=v_hi)
    rows = [
        [r.distance_km, r.vm, r.key_rate, int(r.no_positive_rate)]
        for r in results
    ]
    _write_csv(
        out_dir / "optimal_vm.csv",
        ["distance_km", "optimal_vm", "key_rate", "no_positive_rate"],
        rows,
    )
    print(f"optimize: wrote {len(rows)} distances to {out_dir / 'optimal_vm.csv'}")
    return 0


# the subcommands in --help order; attack-demo (None) reads no config. A cmd_*
# name is looked up when its command runs, so a wrapper bound to it is called.
_COMMANDS = {
    "simulate": lambda config, out_dir, args: cmd_simulate(config, out_dir),
    "learn": lambda config, out_dir, args: cmd_learn(config, out_dir),
    "evaluate": lambda config, out_dir, args: cmd_evaluate(config, out_dir),
    "keyrate": lambda config, out_dir, args: cmd_keyrate(config, out_dir),
    "optimize": lambda config, out_dir, args: cmd_optimize(config, out_dir),
    "attack-demo": None,
    "predict": lambda config, out_dir, args: cmd_predict(config, out_dir, args.classifier),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="mlcvqkd",
        description="Multi-label-learning CVQKD pipeline: simulation, classification, key rates.",
    )
    parser.add_argument("--config", help="JSON config file; defaults cover every key")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    sub.choices["predict"].add_argument("--classifier", help="classifier.json produced by the learn subcommand")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _COMMANDS[args.command]
    try:
        if run is None:
            print(format_attack_table(intercept_resend_demo()))
            return 0
        config = load_config(args.config, args.seed)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, say
            raise InvalidInputError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
        code = run(config, out_dir, args)
        _write_json(out_dir / "effective_config.json", config)
        return code
    except MlcvqkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
