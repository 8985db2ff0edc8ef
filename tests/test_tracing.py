"""The benchmark's tracer still finds the functions it times.

perfbench/tracing.py wraps public mlcvqkd functions by name; a rename or a
dispatch that bypasses the module attribute would silently drop a layer's
spans, so its figures would read zero or fold into another layer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import mlcvqkd.cli
import mlcvqkd.keyrate
from mlcvqkd.keyrate import KeyRateParams

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the decode table replaced this method; the tracer still lists it
KNOWN_STALE = {"statespace.state_for_labels"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    with tracing.Tracer().active(0) as tracer:
        pass
    assert tracer.missing <= KNOWN_STALE


@pytest.mark.parametrize("command, spans", [
    ("keyrate", {"cli.main", "cli.load_config", "cli.cmd_keyrate"}),
    ("optimize", {"cli.main", "cli.load_config", "cli.cmd_optimize", "keyrate.optimize_vm"}),
])
def test_a_traced_command_records_its_spans(tracing, tmp_path, command, spans):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keyrate": {"distances_km": [10]}, "optimize": {"distances_km": [10]}}))
    tracer = tracing.Tracer()
    with tracer.active(0):
        assert mlcvqkd.cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0
    assert spans <= {span[0] for span in tracer.spans}
    assert mlcvqkd.cli.main.__name__ == "main" and not hasattr(mlcvqkd.cli.main, "__wrapped__")


@pytest.mark.parametrize("finite, name, other", [
    (False, "keyrate.rate_asymptotic", "keyrate.rate_finite"),
    (True, "keyrate.rate_finite", "keyrate.rate_asymptotic"),
])
def test_a_public_rate_records_one_rate_span_a_point(tracing, finite, name, other):
    # one public rate calling the other would count each point twice in keyrate.rate_calls and rate_s
    block = {"n": 500_000, "big_n": 1_000_000} if finite else {}
    points = [KeyRateParams(vm=0.35, transmittance=t, **block) for t in (1.0, 0.5, 0.1, 0.01)]
    tracer = tracing.Tracer()
    with tracer.active(0):
        rate = getattr(mlcvqkd.keyrate, name.split(".")[1])
        for p in points:
            rate(p)
    names = [span[0] for span in tracer.spans]
    assert names.count(name) == len(points)
    assert other not in names
    assert tracing.op_metrics(tracer.spans, 0)["keyrate.rate_calls"] == len(points)


def test_a_keyrate_table_records_no_rate_span(tracing, tmp_path):
    # the table is one private kernel evaluation, so the tracer, which counts public scalar calls,
    # reads keyrate.rate_calls as 0 however many rows are rated
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keyrate": {"distances_km": [0, 5, 10, 20, 40, 80, 150]}}))
    tracer = tracing.Tracer()
    with tracer.active(0):
        assert mlcvqkd.cli.main(["--config", str(config), "--out", str(tmp_path), "keyrate"]) == 0
    assert "cli.cmd_keyrate" in {span[0] for span in tracer.spans}
    assert tracing.op_metrics(tracer.spans, 0)["keyrate.rate_calls"] == 0
