"""The benchmark's workloads: set-up, the CLI calls of one op, and the check
of the op's outputs.

Every op goes through the public entry point ``mlcvqkd.cli.main(argv)``,
looked up on the module at call time so the tracer's patch is seen. The
check returns the op's *digest payload*, the named output values that must
stay bit-identical under the seed, and its quality guards. It reads values
by name, so fields or columns added later do not change the payload.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    """An op's outputs are missing, malformed or out of range."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _finite(values, name: str) -> None:
    _require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
             f"{name} holds a non-finite value")


def _check_effective_config(op_dir: Path, op_seed: int) -> None:
    config = _read_json(op_dir / "effective_config.json")
    _require(config["seed"] == op_seed, f"effective config seed {config['seed']} != {op_seed}")


# the evaluation values under the digest: the query search and the metrics
# decide them, so a search that finds other neighbours or breaks ties otherwise
# changes them even where the training outputs above stay the same
EVALUATION_DIGESTED = ("n_erasures", "per_label_precision", "per_label_recall", "per_label_fpr",
                       "macro_precision", "macro_recall", "macro_fpr", "average_precision",
                       "per_label_auc", "average_auc", "filter_threshold", "discard_rate")


def check_learn(op_dir: Path, op_seed: int, training_size: int, testing_size: int,
                width: int, k: int) -> tuple[dict, dict]:
    """Check a ``learn`` run; returns (digest payload, quality guards).

    The payload is the classifier's priors, count tables and features, and
    the evaluation values named in EVALUATION_DIGESTED.
    """
    clf = _read_json(op_dir / "classifier.json")
    prior = clf["prior_pos"]
    counts_pos, counts_neg = clf["counts_pos"], clf["counts_neg"]
    features = clf["features"]
    _require(len(prior) == 4 and all(0 < p < 1 for p in prior), "priors outside (0, 1)")
    _require(len(counts_pos) == len(counts_neg) == 4, "count tables need one row per label")
    for pos, neg in zip(counts_pos, counts_neg):
        _require(len(pos) == len(neg) == k + 1, "count table rows need k + 1 entries")
        _require(min(pos + neg) >= 0, "negative neighbour count")
        _require(sum(pos) + sum(neg) == training_size, "count tables do not cover the training set")
    _require(len(features) == training_size, f"{len(features)} training rows, expected {training_size}")
    _require(all(len(row) == width for row in features), f"feature rows must have width {width}")
    _finite([v for row in features for v in row], "features")

    report = _read_json(op_dir / "evaluation.json")
    _require(report["n_samples"] == testing_size, "evaluation covers the wrong number of samples")
    guards = {name: report[name] for name in ("average_auc", "macro_precision", "macro_recall")}
    _finite(guards.values(), "evaluation")
    _require(0.5 < guards["average_auc"] <= 1.0, f"average AUC {guards['average_auc']} outside (0.5, 1]")
    _require(0 <= guards["macro_precision"] <= 1 and 0 <= guards["macro_recall"] <= 1,
             "macro precision or recall outside [0, 1]")
    _check_effective_config(op_dir, op_seed)
    payload = {"prior_pos": prior, "counts_pos": counts_pos, "counts_neg": counts_neg,
               "features": features,
               "evaluation": {name: report[name] for name in EVALUATION_DIGESTED}}
    return payload, guards


class LearnDefault:
    """``learn`` at the paper's operating point: 8PSK, V_m = 50, 20 km."""

    name = "learn-default"
    item = "labelled samples"

    def __init__(self, training_size: int = 5000, testing_size: int = 10_000):
        self.training_size = training_size
        self.testing_size = testing_size
        self.items_per_op = training_size + testing_size
        self.config_path = None

    def setup(self, setup_dir: Path, seed: int) -> None:
        doc = {
            "scheme": {"kind": "8psk", "vm": 50.0},
            "channel": {"distance_km": 20.0, "excess_noise": 0.01},
            "classifier": {"k": 9},
            "session": {"training_size": self.training_size, "testing_size": self.testing_size},
        }
        self.config_path = _write_json(setup_dir / "config.json", doc)

    def argvs(self, op_dir: Path, op_seed: int) -> list[list[str]]:
        return [["--config", str(self.config_path), "--seed", str(op_seed), "--out", str(op_dir), "learn"]]

    def check(self, op_dir: Path, op_seed: int) -> tuple[dict, dict]:
        return check_learn(op_dir, op_seed, self.training_size, self.testing_size, width=8, k=9)

    def digest_key(self, seed: int, index: int) -> str:
        # the outputs depend on the op's seed only
        return str(seed + index)


KEYRATE_PROTOCOLS = ("gaussian", "four-state", "eight-state", "ml")
OPTIMIZE_PROTOCOLS = ("gaussian", "four-state", "eight-state")
KEYRATE_VMS = (0.2, 0.35, 0.5, 1.0)


class KeyrateSweep:
    """The paper's key-rate tables and optimal-V_m curves; no classifier."""

    name = "keyrate-sweep"
    item = "distance rows"

    def __init__(self, distances=range(0, 151), optimize_distances=range(10, 151)):
        self.distances = [float(d) for d in distances]
        self.optimize_distances = [float(d) for d in optimize_distances]
        self.tables = [(p, vm, finite) for p in KEYRATE_PROTOCOLS for vm in KEYRATE_VMS
                       for finite in (False, True)]
        self.items_per_op = (len(self.tables) * len(self.distances)
                             + len(OPTIMIZE_PROTOCOLS) * len(self.optimize_distances))
        self.configs: list[tuple[str, Path, str, float | None]] = []

    def setup(self, setup_dir: Path, seed: int) -> None:
        configs = []
        for protocol, vm, finite in self.tables:
            label = f"keyrate-{protocol}-vm{vm}-{'finite' if finite else 'asymptotic'}"
            doc = {"keyrate": {"protocol": protocol, "vm": vm, "finite": finite,
                               "distances_km": self.distances}}
            configs.append((label, _write_json(setup_dir / f"{label}.json", doc), "keyrate", vm))
        for protocol in OPTIMIZE_PROTOCOLS:
            label = f"optimize-{protocol}"
            doc = {"optimize": {"protocol": protocol, "distances_km": self.optimize_distances}}
            configs.append((label, _write_json(setup_dir / f"{label}.json", doc), "optimize", None))
        self.configs = configs

    def argvs(self, op_dir: Path, op_seed: int) -> list[list[str]]:
        return [["--config", str(path), "--seed", str(op_seed), "--out", str(op_dir / label), command]
                for label, path, command, _ in self.configs]

    @staticmethod
    def _columns(path: Path) -> dict[str, list[str]]:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {key: [row[key] for row in rows] for key in (rows[0] if rows else {})}

    def check(self, op_dir: Path, op_seed: int) -> tuple[dict, dict]:
        payload = {}
        for label, _, command, vm in self.configs:
            out = op_dir / label
            _check_effective_config(out, op_seed)
            if command == "keyrate":
                cols = self._columns(out / "keyrate.csv")
                _require([float(d) for d in cols["distance_km"]] == self.distances,
                         f"{label}: wrong distance rows")
                _require(all(float(v) == vm for v in cols["vm"]), f"{label}: V_m column is not {vm}")
                rates = [float(v) for v in cols["key_rate"]]
                _finite(rates, f"{label} key_rate")
                payload[label] = {"key_rate": rates}
            else:
                cols = self._columns(out / "optimal_vm.csv")
                _require([float(d) for d in cols["distance_km"]] == self.optimize_distances,
                         f"{label}: wrong distance rows")
                vms = [float(v) for v in cols["optimal_vm"]]
                rates = [float(v) for v in cols["key_rate"]]
                _finite(vms + rates, label)
                _require(all(0.05 <= v <= 20.0 for v in vms), f"{label}: optimal V_m outside [0.05, 20]")
                payload[label] = {"optimal_vm": vms, "key_rate": rates}
        return payload, {}

    def digest_key(self, seed: int, index: int) -> str:
        # key rates draw no random numbers: one digest holds for every seed
        return "any"


WORKLOADS = {w.name: w for w in (LearnDefault, KeyrateSweep)}
