#!/usr/bin/env python3
"""Benchmark of the arealdlm CLI: closed-loop `fit` -> `predict` passes.

Run from the repository root:

    python3 perfbench/run.py --workload profile --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload profile --seed 1 --seconds 56 --trace 1
    python3 perfbench/run.py --self-test

Each run generates `covariates.csv`, `edges.csv` and `run.ini` from the seed,
draws observations with the CLI's `simulate` command (untimed), then repeats
passes of `fit` followed by `predict` -- one client, one command at a time --
until `--seconds` have elapsed. Every command's outputs go through the gates
in `gates.py`. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end metrics
(`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`).
The program is run from the checkout's `src/` directory; nothing is
installed. Work files go to `.perfbench_work/<workload>-s<seed>/`.
See `perfbench/README.md` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 165.0  # every run ends within 180 s, whatever the commands do
MIN_PASSES = 2
HELD_OUT_SEED = 424242  # never used while developing a change; see README

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "iter_per_s": "1/s",
    "predict_s": "s",
    "peak_rss_mb": "MB",
}
HIGHER_IS_BETTER = {"iter_per_s"}
PER_LAYER = {
    "data.ingest_s": "s",
    "data.load_obs_s": "s",
    "basis.build_s": "s",
    "basis.peak_mb": "MB",
    "basis.builds": "count",
    "prior.build_s": "s",
    "prior.lifts": "count",
    "prior.eps_floors": "count",
    "sampler.iter_ms": "ms",
    "sampler.ffbs_ms": "ms",
    "sampler.xi_ms": "ms",
    "sampler.beta_ms": "ms",
    "sampler.sigma_k2_ms": "ms",
    "sampler.sigma_xi2_ms": "ms",
    "sampler.driver_ms": "ms",
    "linops.calls_per_iter": "count",
    "linops.max_dense_dim": "count",
    "linops.pinv_fallbacks": "count",
    "chainio.flush_s": "s",
    "chainio.bytes": "bytes",
    "chainio.read_s": "s",
    "predict.posterior_y_s": "s",
    "predict.write_s": "s",
    "trace.overhead_pct": "%",
    "trace.iter_overhead_pct": "%",
}


@dataclass(frozen=True)
class Workload:
    name: str
    units: int
    L: int  # variables
    T: int
    r: int
    missing: float  # share of cells without an observation
    chains: int
    iterations: int
    burn_in: int
    thin: int = 1
    p: int = 3

    @property
    def n_t(self) -> int:
        return self.units * self.L


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "profile",
            units=10, L=10, T=20, r=20, missing=0.20, chains=1, iterations=300, burn_in=100,
        ),
        Workload(
            "wide",
            units=2000, L=1, T=2, r=30, missing=0.25, chains=1, iterations=1200, burn_in=100,
            thin=4,
        ),
    )
}


# ---------------------------------------------------------------- inputs


def write_inputs(wl: Workload, seed: int, work: Path) -> set:
    """covariates.csv, edges.csv and run.ini for one workload; returns the covariate keys."""
    rng = np.random.default_rng(seed)
    units = [f"u{i:04d}" for i in range(wl.units)]
    # random spanning tree plus about 1.2 extra edges per unit
    edges = set()
    order = rng.permutation(wl.units)
    for k in range(1, wl.units):
        a, b = int(order[k]), int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    target = min(wl.units - 1 + int(1.2 * wl.units), wl.units * (wl.units - 1) // 2)
    while len(edges) < target:
        a, b = (int(x) for x in rng.integers(0, wl.units, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    with (work / "edges.csv").open("w", encoding="utf-8") as fh:
        fh.write("unit_a,unit_b\n")
        fh.writelines(f"{units[i]},{units[j]}\n" for i, j in sorted(edges))

    # intercept plus two covariates whose span rotates over time
    base = rng.normal(size=(wl.L, wl.units, wl.p - 1))
    drift = rng.normal(size=(wl.L, wl.units, wl.p - 1))
    keys = set()
    with (work / "covariates.csv").open("w", encoding="utf-8") as fh:
        fh.write("variable,time,unit," + ",".join(f"x{j}" for j in range(1, wl.p + 1)) + "\n")
        for t in range(1, wl.T + 1):
            theta = 0.5 * t / wl.T
            x = np.cos(theta) * base + np.sin(theta) * drift
            for ell in range(1, wl.L + 1):
                for u, unit in enumerate(units):
                    cols = ",".join(f"{v:.17g}" for v in x[ell - 1, u])
                    fh.write(f"{ell},{t},{unit},1,{cols}\n")
                    keys.add((ell, t, unit))

    windows = "\n".join(f"window_{ell} = 1:{wl.T}" for ell in range(1, wl.L + 1))
    (work / "run.ini").write_text(
        f"""[paths]
observations = observations.csv
covariates = covariates.csv
edges = edges.csv
output = out

[design]
variables = {wl.L}
p = {wl.p}
r = {wl.r}
{windows}

[sampler]
iterations = {wl.iterations}
burn_in = {wl.burn_in}
thin = {wl.thin}
seed = {seed}

[truth]
beta = 0.5, -0.3, 0.2
sigma_k2 = 1.0
sigma_xi2 = 0.05
v = 0.01
missing_fraction = {wl.missing}
missing_seed = {seed + 1}
seed = {seed + 2}
""",
        encoding="utf-8",
    )
    return keys


# -------------------------------------------------------------- commands


@dataclass
class Command:
    label: str
    code: int
    wall_s: float
    record: dict | None


class Run:
    """One benchmark invocation: its work directory, counts and failures."""

    def __init__(self, wl: Workload, work: Path, deadline: float):
        self.wl = wl
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0
        self.missing_targets: set[str] = set()  # traced functions the program no longer has
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["PERFBENCH_SRC"] = str(SRC)

    def command(self, label: str, cli_args: list[str], mode: str) -> Command:
        """Run one CLI command in a fresh process and time it."""
        self.attempted += 1
        record_path = self.work / f"{label}.json"
        argv = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--label", label,
                "--record", str(record_path), "--", *cli_args]
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        with (self.work / f"{label}.log").open("w", encoding="utf-8") as log:
            start = time.perf_counter()
            try:
                code = subprocess.run(argv, cwd=self.work, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = -9
            wall = time.perf_counter() - start
        record = json.loads(record_path.read_text()) if record_path.exists() else None
        return Command(label, code, wall, record)

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed_ops += 1
        self.failures.extend(f"{label}: {msg}" for msg in problems)

    def checked(self, cmd: Command, problems: list[str]) -> bool:
        if cmd.code != 0:
            problems = [f"exit code {cmd.code} (see {cmd.label}.log)"] + problems
        if problems:
            self.fail(cmd.label, problems)
        return not problems


def one_pass(run: Run, k: int, mode: str, covariate_keys: set, truth: dict, n_observed: int):
    """fit then predict, both gated; returns the pass's samples or None on failure."""
    wl, out = run.wl, run.work / "out"
    for stale in out.glob("chain*"):
        shutil.rmtree(stale)
    (out / "predictions.csv").unlink(missing_ok=True)

    fit = run.command(f"fit#{k}", ["fit", "--config", "run.ini", "--chains", str(wl.chains)], mode)
    chain_dirs = [out / f"chain{c}" for c in range(wl.chains)]
    problems = []
    if fit.code == 0:
        for d in chain_dirs:
            problems += gates.check_chain(d, wl.iterations, wl.burn_in, wl.thin, n_observed)
    if not run.checked(fit, problems):
        return None
    chain_bytes = sum(f.stat().st_size for d in chain_dirs for f in d.iterdir())

    pred = run.command(f"predict#{k}", ["predict", "--config", "run.ini"], mode)
    problems, recovery = [], {}
    if pred.code == 0:
        problems, recovery = gates.check_predictions(out / "predictions.csv", covariate_keys, truth)
    if not run.checked(pred, problems):
        return None
    if fit.record is None or pred.record is None:
        run.fail(fit.label, ["no timing record"])
        return None

    phases = spans.phase_metrics(fit.record, wl.chains * wl.iterations)
    if not phases:
        run.fail(fit.label, ["no build_structures/load_data call seen: update perfbench/child.py"])
        return None
    sample = {
        "pass": k,
        "mode": mode,
        "fit_s": fit.wall_s,
        "predict_s": pred.wall_s,
        "peak_rss_mb": max(fit.record["peak_rss_kb"], pred.record["peak_rss_kb"]) * 1024 / 1e6,
        "recovery": recovery,
        **phases,
    }
    run.missing_targets.update(fit.record["missing_targets"] + pred.record["missing_targets"])
    if mode == "trace":
        sample.update(spans.layer_metrics(fit.record, pred.record, wl.iterations))
        sample["chainio.bytes"] = chain_bytes
        r_max = max(wl.r, wl.p)
        if not sample["linops.max_dense_dim"] <= r_max:
            run.fail(fit.label, [f"dense factorization of size {sample['linops.max_dense_dim']}"
                                 f" > max(r, p) = {r_max} inside gibbs_run"])
            return None
    return sample


# --------------------------------------------------------------- reports


def summary(values: list[float], higher_is_better: bool = False) -> dict:
    """Median, the worst-side percentile with >= 10 samples beyond it, and n.

    With ten samples or fewer no percentile qualifies, and the worst sample
    (``max``, or ``min`` when higher is better) is reported instead.
    """
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    if n > 10:
        pct = 100 * (n - 10) / n
        tail, label = ordered[n - 11], f"p{100 - pct if higher_is_better else pct:.0f}"
    else:
        tail, label = ordered[-1], "min" if higher_is_better else "max"
    return {"median": statistics.median(ordered), "tail": tail, "tail_label": label, "n": n}


def _blas() -> dict:
    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info.update(threads=get_threads(), config=get_config().decode())
                return info
    return info


def environment(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    sha = "unavailable"  # an exported checkout has no .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "arealdlm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": {**asdict(wl), "N_t": wl.n_t},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
    }


# ------------------------------------------------------------------ main


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Prepare inputs, run passes for ``seconds``, and return the full result."""
    start = time.perf_counter()
    run = Run(wl, work, deadline=start + HARD_LIMIT_S)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    keys = write_inputs(wl, seed, work)
    sim = run.command("simulate", ["simulate", "--config", "run.ini"], "phases")
    truth, n_observed = {}, 0
    if run.checked(sim, []):
        truth = gates.read_keyed_csv(work / "out" / "truth" / "truth_y.csv", ("y",))
        with (work / "observations.csv").open(encoding="utf-8") as fh:
            n_observed = sum(1 for _ in fh) - 1

    samples, pass_s = [], []
    measure_start = time.perf_counter()
    k = 0
    while truth and not run.failures:
        # a pass starts only if it should end within --seconds, once
        # MIN_PASSES have run; traced runs alternate untraced and traced
        # passes so the tracing overhead is measured in the same run
        now = time.perf_counter()
        typical = statistics.median(pass_s) if pass_s else 0.0
        if k >= MIN_PASSES and now + typical > measure_start + seconds:
            break
        if now + 1.5 * max(pass_s, default=0.0) > run.deadline:
            break
        mode = "trace" if trace and k % 2 == 1 else "phases"
        began = time.perf_counter()
        sample = one_pass(run, k, mode, keys, truth, n_observed)
        pass_s.append(time.perf_counter() - began)
        k += 1
        if sample is not None:
            samples.append(sample)

    plain = [s for s in samples if s["mode"] == "phases"]
    traced = [s for s in samples if s["mode"] == "trace"]
    result = {
        "env": environment(wl, seed, int(seconds), trace),
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "error_rate": run.failed_ops / max(run.attempted, 1),
        "failures": run.failures,
        "missing_trace_targets": sorted(run.missing_targets),
        "passes": len(samples),
        "run_s": time.perf_counter() - start,
        "end_to_end": {m: summary([s[m] for s in plain], m in HIGHER_IS_BETTER)
                       for m in END_TO_END if plain},
        "samples": samples,
    }
    if trace and traced and plain:
        layer = {m: summary([s[m] for s in traced]) for m in PER_LAYER if m in traced[0]}
        fit_plain = statistics.median(s["fit_s"] for s in plain)
        fit_traced = statistics.median(s["fit_s"] for s in traced)
        ips_plain = statistics.median(s["iter_per_s"] for s in plain)
        ips_traced = statistics.median(s["iter_per_s"] for s in traced)
        for name, value in (("trace.overhead_pct", 100 * (fit_traced / fit_plain - 1)),
                            ("trace.iter_overhead_pct", 100 * (ips_plain / ips_traced - 1))):
            layer[name] = {"median": value, "tail": value, "tail_label": "max", "n": 1}
        result["per_layer"] = layer
        result["self_time"] = spans.self_time_table(
            [json.loads((work / f"{cmd}#{s['pass']}.json").read_text())
             for s in traced for cmd in ("fit", "predict")]
        )
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the final JSON object."""
    env = result["env"]
    print("env: " + json.dumps(env, sort_keys=True))
    units = PER_LAYER if trace else END_TO_END
    section = result.get("per_layer" if trace else "end_to_end", {})
    for name, unit in units.items():
        if name in section:
            s = section[name]
            print(f"{name}: median {s['median']:.6g} {unit}, {s['tail_label']} "
                  f"{s['tail']:.6g} {unit}, n={s['n']}")
        else:
            print(f"{name}: missing {unit}")
    print(f"error_rate: {result['error_rate']:.6g} ratio "
          f"(failed {result['failed']} of {result['attempted']} operations)")
    for row in result.get("self_time", [])[:12]:
        print(f"  self {row['name']:<32} calls {row['calls']:>8} "
              f"self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s")
    recovery = [s["recovery"] for s in result["samples"]]
    if recovery:
        print(f"recovery: coverage min {min(r['coverage'] for r in recovery):.4f}, "
              f"rmse/sd(y) max {max(r['rmse_over_sd'] for r in recovery):.4f} "
              f"(gates: >= {gates.MIN_COVERAGE}, <= {gates.MAX_RMSE_RATIO})")
    for target in result["missing_trace_targets"]:
        print(f"WARNING trace target {target} not found; its spans and metrics are absent")
    for msg in result["failures"]:
        print(f"FAILED {msg}")
    correct = not result["failures"] and all(n in section for n in units)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": section[n]["median"], "unit": u}
                    for n, u in units.items() if n in section},
    }


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the tiny self-test instead of a workload")
    args = parser.parse_args(argv)
    if not (SRC / "arealdlm" / "cli.py").is_file():
        print(f"error: no arealdlm sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-s{args.seed}"
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    final = report(result, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
