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
    ("keyrate", {"cli.main", "cli.load_config", "cli.cmd_keyrate", "keyrate.rate_asymptotic"}),
    ("optimize", {"cli.main", "cli.load_config", "cli.cmd_optimize", "keyrate.optimize_vm",
                  "keyrate.rate_asymptotic"}),
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
def test_a_keyrate_table_records_one_rate_span_a_distance(tracing, tmp_path, finite, name, other):
    # one public rate calling the other would count each point twice in keyrate.rate_calls and rate_s
    distances = [0, 5, 10, 20, 40, 80, 150]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keyrate": {"distances_km": distances, "finite": finite}}))
    tracer = tracing.Tracer()
    with tracer.active(0):
        assert mlcvqkd.cli.main(["--config", str(config), "--out", str(tmp_path), "keyrate"]) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count(name) == len(distances)
    assert other not in names
    assert tracing.op_metrics(tracer.spans, 0)["keyrate.rate_calls"] == len(distances)
