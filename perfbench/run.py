"""Benchmark of the mlcvqkd pipeline through its CLI entry point.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload learn-default --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: op i
starts when op i - 1 has finished and runs ``mlcvqkd.cli.main`` in process
with seed = workload seed + i. An op starts only while the window of
``--seconds`` still holds half of the median op so far, so a run measures
about ``--seconds`` however long an op takes. Every op's outputs are
checked (see workloads.py) and, where a digest is recorded in digests.json
for the op's seed, compared bit for bit.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json. With ``--trace 1`` the run
alternates untraced and traced ops of the same seed and reports the
per-layer metrics instead; the spans go to ``.perfbench_work/results/``.
Metric names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# the ops digests.json records: ops 0 to DIGEST_OPS - 1 of each workload seed
# in DIGEST_SEEDS (see record_digests.py)
DIGEST_SEEDS = range(0, 13)
DIGEST_OPS = 40
# set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bootstrap() -> None:
    """Cap BLAS threads at nproc and import the package from this checkout.

    Must run before numpy is imported. Raises ImportError when the checkout
    has no importable ``src/mlcvqkd``.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mlcvqkd

    if Path(mlcvqkd.__file__).resolve().parent != SRC / "mlcvqkd":
        raise ImportError(f"mlcvqkd imported from {mlcvqkd.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def results_path(workload: str, seed: int, trace: int) -> Path:
    return WORK / "results" / f"{workload}-s{seed}-t{trace}.json"


def digest(payload) -> str:
    """sha256 of the named output values; floats are written exactly."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def environment(seed: int, trace: int) -> dict:
    """What a later comparison needs to tell machine drift from a code change."""
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "mlcvqkd").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload_seed": seed,
        "trace": trace,
    }


def import_in_fresh_interpreter() -> None:
    """Start an interpreter that imports the CLI, as a user of the command does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import mlcvqkd.cli"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def reference_seconds() -> dict[str, float]:
    """Times of the fixed reference kernels in reference.py, from a child interpreter."""
    done = subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def set_up(workload, work: Path, seed: int, repetition: int) -> float:
    """Set the workload up once; the seconds it took.

    Set-up is starting an interpreter that imports the CLI, writing the
    configs and any preparation. Ops use the latest repetition.
    """
    start = perf_counter()
    import_in_fresh_interpreter()
    with contextlib.redirect_stdout(io.StringIO()):
        workload.setup(work / f"setup-{repetition}", seed)
    return perf_counter() - start


def output_bytes(op_dir: Path) -> int:
    return sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file())


def run_op(workload, work: Path, seed: int, index: int, digests: dict, tracer=None, op_id=None) -> dict:
    """One op: its CLI calls, then the check of what they wrote."""
    # imported late: bootstrap() must first put the checkout's src on sys.path
    import mlcvqkd.cli
    from workloads import CheckFailed

    op_seed = seed + index
    op_dir = work / f"op-{op_id if op_id is not None else index}"
    error = None
    traced = tracer.active(op_id) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        try:
            with traced:
                for argv in workload.argvs(op_dir, op_seed):
                    code = mlcvqkd.cli.main(argv)
                    if code != 0:
                        error = f"exit code {code} from {' '.join(argv)}"
                        break
        except (Exception, SystemExit) as exc:  # a raise is a failed op, not a failed benchmark
            error = f"raised {exc!r}"
        seconds = perf_counter() - start

    record = {"index": index, "seed": op_seed, "seconds": seconds, "traced": tracer is not None,
              "error": error, "digest": None, "digest_checked": False, "guards": {}}
    if error is None:
        try:
            payload, record["guards"] = workload.check(op_dir, op_seed)
            record["digest"] = digest(payload)
            expected = digests.get(workload.name, {}).get(workload.digest_key(seed, index))
            if expected is not None:
                record["digest_checked"] = True
                if expected != record["digest"]:
                    raise CheckFailed(f"output digest {record['digest'][:12]} != recorded {expected[:12]}")
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            record["error"] = f"check failed: {exc}"
    record["ok"] = record["error"] is None
    record["items"] = workload.items_per_op if record["ok"] else 0
    record["output_bytes"] = output_bytes(op_dir) if op_dir.exists() else 0
    shutil.rmtree(op_dir, ignore_errors=True)
    return record


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the highest percentile with ten ops beyond it."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run_workload(workload, seed: int, seconds: float, trace: bool, digests: dict, work: Path) -> dict:
    """Set up, run ops for ``seconds``, and summarise; see the module docstring."""
    from tracing import Tracer, median_metrics, op_metrics

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = {"before": reference_seconds()}
        # half the set-ups precede the window and the rest follow it, so their
        # median samples the machine at both ends of the run; none run between
        # ops, because an op right after one is measurably slower
        repeats = 1 if trace else SETUP_REPEATS
        setup_times = [set_up(workload, work, seed, r) for r in range((repeats + 1) // 2)]
        ops, per_layer, spans = [], [], None
        start = perf_counter()
        if not trace:
            index = 0
            while index == 0 or (perf_counter() - start
                                 + statistics.median(op["seconds"] for op in ops) / 2 < seconds):
                ops.append(run_op(workload, work, seed, index, digests))
                index += 1
        else:
            tracer = Tracer()
            pair = 0
            # pairs of one untraced and one traced op of the same seed, in
            # alternating order; a pair starts only if it fits in the window
            while pair == 0 or perf_counter() - start + pair_seconds <= seconds:
                pair_start = perf_counter()
                for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                    op = run_op(workload, work, seed, pair, digests,
                                tracer if traced else None, op_id=2 * pair + traced)
                    ops.append(op)
                    if traced:
                        layer = op_metrics(tracer.spans, 2 * pair + 1)
                        layer["cli.output_bytes"] = op["output_bytes"]
                        per_layer.append(layer)
                pair_seconds = perf_counter() - pair_start
                pair += 1
            spans = tracer.to_json_dict(start)
        setup_times += [set_up(workload, work, seed, r) for r in range(len(setup_times), repeats)]
        reference["after"] = reference_seconds()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [op["seconds"] for op in ops if not op["traced"]]
    passed = [op for op in ops if op["ok"]]
    failed = len(ops) - len(passed)
    summary = {
        "workload": workload.name,
        "item": f"{workload.items_per_op} {workload.item} per op",
        "attempted": len(ops),
        "failed": failed,
        "failed_ops_ratio": failed / len(ops),
        "setup_times_s": setup_times,
        "ops": ops,
        "op_s_p50": statistics.median(untraced),
        "op_s_tail": tail(untraced),
        "guards": {key: statistics.median(op["guards"][key] for op in passed)
                   for key in (passed[0]["guards"] if passed else {})},
        "digests_checked": sum(op["digest_checked"] for op in ops),
        "reference_s": reference,
    }
    if not trace:
        summary["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": sum(op["items"] for op in ops) / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_s = statistics.median(op["seconds"] for op in ops if op["traced"])
        metrics = median_metrics(per_layer)
        metrics.update({
            "trace.op_s_traced": traced_s,
            "trace.op_s_untraced": statistics.median(untraced),
            "trace.overhead_ratio": traced_s / statistics.median(untraced),
        })
        summary["metrics"] = metrics
        summary["spans"] = spans
        summary["untraceable"] = spans["missing"]
    return summary


def report(summary: dict, defs: list[dict], env: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and better direction."""
    lines = [f"workload {summary['workload']}: {summary['attempted']} ops, {summary['failed']} failed "
             f"(failed_ops_ratio {summary['failed_ops_ratio']:.4g}), "
             f"{summary['digests_checked']} of {summary['attempted']} checked against recorded "
             f"digests (recorded: ops 0-{DIGEST_OPS - 1} of workload seeds "
             f"{DIGEST_SEEDS[0]}-{DIGEST_SEEDS[-1]})"]
    for d in defs:
        value = summary["metrics"][d["name"]]
        lines.append(f"  {d['name']:<30} {value:>14.6g} {d['unit']:<8} ({d['better']} is better)")
    if "items_per_s" in summary["metrics"]:
        lines.append(f"  items: {summary['item']}")
    if "trace.op_s_untraced" not in summary["metrics"]:
        t = summary["op_s_tail"]
        n = summary["attempted"]
        lines.append(f"  op_s_p50: {summary['op_s_p50']:.6g} s, the median over {n} ops")
        lines.append(f"  op_s_tail: p{t[0]:.1f} = {t[1]:.6g} s over {n} ops" if t
                     else f"  op_s_tail: needs 11 ops, this run made {n}")
    if summary.get("untraceable"):
        lines.append(f"  not found, so traced as 0: {', '.join(summary['untraceable'])}")
    for key, value in summary["guards"].items():
        lines.append(f"  guard {key} (median over ops) = {value!r}")
    for op in summary["ops"]:
        if not op["ok"]:
            lines.append(f"  op {op['index']} (seed {op['seed']}) failed: {op['error']}")
    ref = summary["reference_s"]
    lines.append("  reference kernels (machine speed, before -> after): " + ", ".join(
        f"{k} {ref['before'][k] * 1e3:.2f} -> {ref['after'][k] * 1e3:.2f} ms" for k in ref["before"]))
    lines.append(f"  environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
                 f"nproc {env['nproc']}, threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
                 f"commit {env['git_commit']}, seed {env['workload_seed']}")
    return lines


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1, help="workload seed; op i uses seed + i")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bootstrap()
    except ImportError as exc:
        print(f"perfbench: cannot import mlcvqkd from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]()
    env = environment(args.seed, args.trace)
    try:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), load_digests(),
                               WORK / f"{args.workload}-s{args.seed}-t{args.trace}")
    except (CheckFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up of {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary["metrics"] = {d["name"]: summary["metrics"][d["name"]] for d in defs}
    summary["environment"] = env
    spans = summary.pop("spans", None)
    out = results_path(args.workload, args.seed, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    if spans is not None:
        span_file = out.with_name(out.stem + "-spans.json.gz")
        with gzip.open(span_file, "wt") as fh:
            json.dump(spans, fh)
        summary["span_file"] = str(span_file.relative_to(ROOT))
    out.write_text(json.dumps(summary, indent=1) + "\n")

    for line in report(summary, defs, env):
        print(line)
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {d["name"]: {"value": summary["metrics"][d["name"]], "unit": d["unit"]} for d in defs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
