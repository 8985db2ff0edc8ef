"""Smoke test of the benchmark at tiny sizes.

Run from the root of a source checkout (about half a minute):

    python3 -m pytest perfbench/test_smoke.py -q

It shows that every workload runs traced and untraced and reports every
metric BENCHMARK.json names, that a corrupted output counts as a failed op
instead of passing, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run


@pytest.fixture(scope="module")
def wl():
    run.bootstrap()
    import workloads

    return workloads


TINY = {
    "learn-default": lambda wl: wl.LearnDefault(training_size=500, testing_size=500),
    "keyrate-sweep": lambda wl: wl.KeyrateSweep(distances=range(0, 150, 15), optimize_distances=(10, 80, 150)),
}


def one_op(workload, tmp_path, trace=False, digests=None, seed=3):
    # a zero-second window runs exactly one op, or one untraced/traced pair
    return run.run_workload(workload, seed, 0.0, trace, digests or {}, tmp_path / "work")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_runs_and_reports_every_metric(wl, tmp_path, name, trace):
    summary = one_op(TINY[name](wl), tmp_path, trace)
    assert summary["attempted"] == (2 if trace else 1)
    assert summary["failed"] == 0, [op["error"] for op in summary["ops"]]
    defs = run.load_spec()["per_layer" if trace else "end_to_end"]
    for d in defs:
        assert math.isfinite(summary["metrics"][d["name"]]), d["name"]
    if not trace:
        assert all(summary["metrics"][d["name"]] > 0 for d in defs)
    assert not (tmp_path / "work").exists()


def test_trace_puts_each_workload_in_its_layers(wl, tmp_path):
    learn = one_op(TINY["learn-default"](wl), tmp_path, trace=True)["metrics"]
    assert learn["classifier.train_s"] > 0 and learn["metrics.evaluate_s"] > 0
    assert learn["classifier.training_rows"] == 500 and learn["classifier.query_rows"] == 500
    assert learn["keyrate.rate_calls"] == 0
    keyrate = one_op(TINY["keyrate-sweep"](wl), tmp_path, trace=True)["metrics"]
    assert keyrate["classifier.self_s"] == 0 and keyrate["protocol.self_s"] == 0
    assert keyrate["keyrate.rate_calls"] > 32 * 10 and keyrate["keyrate.optimize_s"] > 0


def test_moved_neighbour_count_is_a_failed_op(wl, tmp_path):
    class Moved(wl.LearnDefault):
        def check(self, op_dir, op_seed):
            path = op_dir / "classifier.json"
            doc = json.loads(path.read_text())
            doc["counts_pos"][0][0] += 1
            path.write_text(json.dumps(doc))
            return super().check(op_dir, op_seed)

    summary = one_op(Moved(training_size=500, testing_size=500), tmp_path)
    assert summary["failed"] == summary["attempted"] == 1
    assert "check failed" in summary["ops"][0]["error"]


def test_a_one_ulp_change_fails_only_the_digest(wl, tmp_path):
    class Nudged(wl.KeyrateSweep):
        def check(self, op_dir, op_seed):
            path = next(op_dir.glob("keyrate-*/keyrate.csv"))
            lines = path.read_text().splitlines()
            header, cells = lines[0].split(","), lines[1].split(",")
            col = header.index("key_rate")
            cells[col] = repr(math.nextafter(float(cells[col]), math.inf))
            path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
            return super().check(op_dir, op_seed)

    clean = one_op(TINY["keyrate-sweep"](wl), tmp_path)
    recorded = {"keyrate-sweep": {"any": clean["ops"][0]["digest"]}}
    assert one_op(TINY["keyrate-sweep"](wl), tmp_path, digests=recorded)["ops"][0]["digest_checked"]
    nudged = one_op(Nudged(range(0, 150, 15), (10, 80, 150)), tmp_path, digests=recorded)
    assert nudged["failed"] == 1 and "digest" in nudged["ops"][0]["error"]


def test_a_changed_evaluation_fails_the_learn_digest(wl, tmp_path):
    class Nudged(wl.LearnDefault):
        def check(self, op_dir, op_seed):
            path = op_dir / "evaluation.json"
            doc = json.loads(path.read_text())
            doc["average_precision"] = math.nextafter(doc["average_precision"], 0.0)
            path.write_text(json.dumps(doc))
            return super().check(op_dir, op_seed)

    clean = one_op(TINY["learn-default"](wl), tmp_path)
    recorded = {"learn-default": {"3": clean["ops"][0]["digest"]}}
    nudged = one_op(Nudged(training_size=500, testing_size=500), tmp_path, digests=recorded)
    assert nudged["failed"] == 1 and "digest" in nudged["ops"][0]["error"]


def test_full_keyrate_sweep_matches_the_recorded_digest(wl, tmp_path):
    summary = one_op(wl.KeyrateSweep(), tmp_path, digests=run.load_digests())
    assert summary["ops"][0]["digest_checked"] and summary["failed"] == 0


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyrate-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
