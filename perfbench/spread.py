"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload learn-default --seeds 1-10 [--out FILE --set NAME]

Each run is the BENCHMARK.json command in a fresh process. For every metric
it prints the median, the quartiles of ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median, next to the metric's bound and a third
of it. With ``--out`` the runs, the statistics and the environment of the
first run are merged into FILE under ``sets.NAME.<workload>``, and FILE's
``between_sets`` is recomputed: for each workload and end-to-end metric, the
set medians and the most any one of them is worse than another, against the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, load_spec, results_path


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def between_sets(sets: dict, spec: dict) -> dict:
    """Per workload and end-to-end metric: how far apart the set medians are."""
    out = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for d in spec["end_to_end"]:
            medians = {label: runs[workload]["statistics"][d["name"]]["median"]
                       for label, runs in sets.items() if workload in runs}
            if len(medians) < 2:
                continue
            low, high = min(medians.values()), max(medians.values())
            # the most that the median of one set is worse than that of another
            worst = (high - low) / (low if d["better"] == "lower" else high)
            out.setdefault(workload, {})[d["name"]] = {
                "medians": medians, "worst_move": worst, "bound": d["bound"],
                "within_bound": worst <= d["bound"]}
    return out


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="first-last, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="JSON file to merge the results into")
    parser.add_argument("--set", help="name of the set of runs in --out")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.set is None):
        parser.error("--out and --set go together")

    runs = []
    for seed in args.seeds:
        result = run_once(spec, args.workload, seed, args.trace)
        record = json.loads(results_path(args.workload, seed, args.trace).read_text())
        runs.append({"seed": seed, **result, "op_s_p50": record["op_s_p50"],
                     "reference_s": record["reference_s"]})
        print(f"seed {seed}: correct {result['correct']}, {result['attempted']} ops, "
              f"{result['failed']} failed, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:  # reported by every run, but not gated: no bound
        defs = defs + [{"name": "op_s_p50", "unit": "s"}]
    stats = {}
    for d in defs:
        values = [r["op_s_p50"] if d["name"] == "op_s_p50" else r["metrics"][d["name"]]["value"]
                  for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        stats[d["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": d["unit"]}
        bound = d.get("bound")
        verdict = "" if bound is None else (
            f"bound {bound}: " + ("ok" if spread < bound / 3 else "within bound" if spread < bound else "OVER"))
        print(f"  {d['name']:<28} median {median:.6g} {d['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.4f} {verdict}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        env = json.loads(results_path(args.workload, args.seeds[0], args.trace).read_text())["environment"]
        doc.setdefault("sets", {}).setdefault(args.set, {})[
            args.workload if not args.trace else f"{args.workload} (trace)"] = {
            "seeds": args.seeds, "run_seconds": spec["run_seconds"], "environment": env,
            "statistics": stats, "runs": runs,
        }
        doc["between_sets"] = between_sets(doc["sets"], spec)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    ok = all(r["correct"] for r in runs)
    print(f"all runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
