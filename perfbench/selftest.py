"""Self-test of the benchmark at a tiny size (about ten seconds).

    python3 perfbench/run.py --self-test

Checks that
- an untraced and a traced run pass every gate and print every metric of
  ``BENCHMARK.json`` by name with its unit, and nothing the file lacks;
- the traced run meets criterion 10: no dense factorization inside
  ``gibbs_run`` is larger than max(r, p);
- a chain CSV cut off mid-row, and one missing its last rows, each trip the
  chain gate, count as failed operations and raise ``error_rate``;
- ``peak_rss_mb`` is the commands' own memory: 120 MB held by the benchmark
  process does not show in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import gates

SEED = 7
BALLAST_BYTES = 120_000_000


def _report_lines(bench, result: dict, trace: bool) -> tuple[str, dict]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        final = bench.report(result, trace)
    return buffer.getvalue(), final


def _metric_problems(text: str, final: dict, expected: dict) -> list[str]:
    problems = []
    for name, unit in expected.items():
        if not re.search(rf"^{re.escape(name)}: median \S+ {re.escape(unit)},", text, re.M):
            problems.append(f"{name} not printed with unit {unit}")
        if final["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name} missing from the JSON line or has the wrong unit")
    extra = set(final["metrics"]) - set(expected)
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    if "error_rate:" not in text:
        problems.append("error_rate not printed")
    return problems


def _truncated_run(bench, tiny, work: Path, cut) -> dict:
    """A run whose first chain file is damaged by ``cut`` before the gate reads it."""
    real = gates.check_chain

    def damaged(chain_dir, *args):
        path = chain_dir / "xi.csv"
        path.write_bytes(cut(path.read_bytes()))
        return real(chain_dir, *args)

    gates.check_chain = damaged
    try:
        return bench.run_workload(tiny, SEED, 0.1, False, work)
    finally:
        gates.check_chain = real


def main(bench) -> int:
    tiny = bench.Workload(
        "selftest", units=12, L=1, T=4, r=4,
        missing=0.10, chains=2, iterations=60, burn_in=10,
    )
    work = bench.WORK / "selftest"
    spec_path = bench.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else None
    problems: list[str] = []

    for trace, table, key in ((False, bench.END_TO_END, "end_to_end"),
                              (True, bench.PER_LAYER, "per_layer")):
        result = bench.run_workload(tiny, SEED, 0.1, trace, work)
        text, final = _report_lines(bench, result, trace)
        label = "traced" if trace else "untraced"
        if not final["correct"] or final["failed"]:
            problems.append(f"{label} run failed: {result['failures']}")
        problems += [f"{label}: {msg}" for msg in _metric_problems(text, final, table)]
        if spec is not None:
            declared = {m["name"]: m["unit"] for m in spec[key]}
            if declared != table:
                problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
        if trace:
            dim = final["metrics"].get("linops.max_dense_dim", {}).get("value", 1e9)
            if dim > max(tiny.r, tiny.p):
                problems.append(f"criterion 10: max dense dim {dim} > max(r, p)")

    if spec is not None and {w["name"] for w in spec["workloads"]} != set(bench.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")

    # a large parent must not show in the commands' peak memory
    ballast = b"x" * BALLAST_BYTES
    result = bench.run_workload(tiny, SEED, 0.1, False, work)
    peak = result["end_to_end"].get("peak_rss_mb", {}).get("median", float("inf"))
    if not peak < BALLAST_BYTES / 1e6 - 20:
        problems.append(f"peak_rss_mb {peak:.1f} MB includes the {BALLAST_BYTES / 1e6:.0f} MB parent")
    del ballast

    cuts = {
        "cut mid-row": lambda data: data[: len(data) * 2 // 3],
        "last rows missing": lambda data: b"".join(data.splitlines(keepends=True)[:-3]),
    }
    for name, cut in cuts.items():
        result = _truncated_run(bench, tiny, work, cut)
        _, final = _report_lines(bench, result, False)
        tripped = any("xi.csv" in msg for msg in result["failures"])
        if not (tripped and result["failed"] >= 1 and result["error_rate"] > 0
                and not final["correct"]):
            problems.append(f"truncated chain ({name}) did not trip the chain gate: {result['failures']}")

    for msg in problems:
        print(f"SELF-TEST FAIL {msg}")
    print("self-test passed" if not problems else f"self-test failed ({len(problems)} problems)")
    return 0 if not problems else 1
