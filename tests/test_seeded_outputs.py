"""Every file that simulate, learn, predict and evaluate write at a fixed
seed keeps its bytes.

Each seed in SEEDS runs, at the default sizes, simulate, learn, predict on
that learn's classifier, a QPSK learn and predict (a session that erases
symbols) and evaluate on the default 2 x 2 grid, and the sha256 of every
file written is compared with seeded_output_digests.json. The key-rate
tables and optimal-V_m curves are pinned by test_cli.TestSweepBytes.

A change that means to alter these outputs re-records the file, from the
root of a source checkout:

    PYTHONPATH=src python tests/test_seeded_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mlcvqkd.cli import main

SEEDS = (7, 20240901)
DIGESTS = Path(__file__).with_name("seeded_output_digests.json")
QPSK = {"scheme": {"kind": "qpsk"}}


def run_commands(seed: int, root: Path) -> dict[str, str]:
    """The sha256 of every file the commands write at seed, keyed by
    '<run>/<file>'; a command that exits nonzero fails the run."""
    (root / "qpsk.json").write_text(json.dumps(QPSK))
    qpsk = ["--config", str(root / "qpsk.json")]
    runs = {
        "simulate": ["simulate"],
        "learn": ["learn"],
        "predict": ["predict", "--classifier", str(root / "learn" / "classifier.json")],
        "qpsk-learn": [*qpsk, "learn"],
        "qpsk-predict": [*qpsk, "predict", "--classifier", str(root / "qpsk-learn" / "classifier.json")],
        "evaluate": ["evaluate"],
    }
    digests = {}
    for name, args in runs.items():
        out = root / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--seed", str(seed), "--out", str(out), *args])
        assert code == 0, f"{name} at seed {seed} exited {code}"
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_outputs_keep_their_bytes(tmp_path, seed):
    recorded = json.loads(DIGESTS.read_text())
    got = run_commands(seed, tmp_path)
    want = recorded["digests"][str(seed)]
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"outputs moved at seed {seed}: {moved}; recorded with {recorded['versions']}, " \
                      f"running {versions()}"
    # the QPSK session is there for its erasures
    assert json.loads((tmp_path / "qpsk-predict" / "transcript.json").read_text())["n_erased"] > 0


def record() -> None:
    """Write DIGESTS from the outputs of the code in this checkout."""
    digests = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[str(seed)] = run_commands(seed, Path(tmp))
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
