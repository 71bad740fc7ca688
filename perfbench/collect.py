#!/usr/bin/env python3
"""Run the benchmark on several seeds and write a summary JSON worth committing.

    python3 perfbench/collect.py --label baseline --seeds 1-10
    python3 perfbench/collect.py --label my-change --workloads profile --seeds 1-10

For each workload: one untraced run per seed, then one traced run on the first
seed. Writes ``perfbench/results/<label>.json`` with the environment, every
run's end-to-end metrics, their median and quartiles across seeds (the
spread, (q3 - q1) / median, is what ``BENCHMARK.json``'s bounds are checked
against), and the traced run's per-layer metrics and largest self times.
Takes about 11 minutes per workload at 10 seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / ".perfbench_work" / f"{workload}-s{seed}" / "result.json").read_text())
    return {"seed": seed, "exit_code": proc.returncode, **final, "full": full}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    out = {"label": args.label, "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = _run(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"{ {k: round(v['value'], 4) for k, v in run['metrics'].items()} }", flush=True)
            runs.append(run)
        traced = _run(workload, seeds[0], seconds, 1)
        out.setdefault("env", {k: v for k, v in runs[0]["full"]["env"].items()
                               if k not in ("seed", "workload", "trace")})
        spread = {}
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread[name] = {
                "unit": metric["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                "iqr_over_median": (q3 - q1) / statistics.median(values), "bound": metric["bound"],
            }
        recovery = [s["recovery"] for r in runs for s in r["full"]["samples"]]
        out["workloads"][workload] = {
            "sizes": runs[0]["full"]["env"]["workload"],
            "run_s_max": max(r["full"]["run_s"] for r in runs + [traced]),
            "recovery": {
                "coverage_min": min(x["coverage"] for x in recovery),
                "rmse_over_sd_max": max(x["rmse_over_sd"] for x in recovery),
            },
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": spread,
            "runs": [{"seed": r["seed"], "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                      "passes": r["full"]["passes"]} for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": seeds[0],
            "self_time_top": traced["full"].get("self_time", [])[:12],
        }
    path = HERE / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"written {path}")
    for workload, data in out["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:12s} {name:12s} median {s['median']:.5g} {s['unit']} "
                  f"spread {s['iqr_over_median']:.3f} (bound {s['bound']})")
    return 0 if all(d["correct"] for d in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
