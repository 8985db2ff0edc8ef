"""Record the output digests that later runs must reproduce bit for bit.

Usage, from the root of a source checkout, at the commit whose outputs are
the reference:

    python3 perfbench/record_digests.py

For every workload and every workload seed in run.DIGEST_SEEDS it sets the
workload up, runs the first run.DIGEST_OPS ops, checks them, and writes each
op's digest to digests.json under the op's digest key, replacing the file.
An op whose key is already recorded in this invocation is skipped, so
keyrate-sweep, which draws no random numbers, runs once. The recorded ranges
are:

- learn-default: op seeds 0-51 (the outputs depend on the op seed only);
- keyrate-sweep: every seed.

Re-record only in a change that means to alter outputs. On a 2-vCPU machine
a recording takes about 15 minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run import DIGEST_OPS, DIGEST_SEEDS, HERE, WORK, bootstrap, run_op, set_up


def main() -> int:
    bootstrap()
    from workloads import WORKLOADS

    path = HERE / "digests.json"
    table = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        recorded = table.setdefault(name, {})
        for seed in DIGEST_SEEDS:
            keys = {}
            for index in range(DIGEST_OPS):
                key = workload.digest_key(seed, index)
                if key not in recorded:
                    keys.setdefault(key, index)
            if not keys:
                continue
            work = WORK / f"record-{name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                set_up(workload, work, seed, 0)
                for key, index in keys.items():
                    with contextlib.redirect_stdout(io.StringIO()):
                        op = run_op(workload, work, seed, index, {})
                    if not op["ok"]:
                        sys.exit(f"{name} seed {seed} op {index}: {op['error']}")
                    recorded[key] = op["digest"]
                    print(f"{name} {key}: {op['digest']}", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
