"""Metrics derived from the span records ``child.py`` writes.

A record holds ``spans`` as ``[id, name, start, end, parent_id, thread_id]``
(span 0 is the whole command) and ``counters``. Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

SWEEP = {
    "sampler.filter": "ffbs",
    "sampler.backward_sample": "ffbs",
    "sampler.sample_xi": "xi",
    "sampler.sample_beta": "beta",
    "sampler.sample_sigma_k": "sigma_k2",
    "sampler.sample_sigma_xi": "sigma_xi2",
}
LINOPS = {"linops.inv_spd", "linops.chol_psd", "linops.draw_mvn"}
WRITES = {"chainio.flush", "chainio.finalize"}
SETUP = {"pipeline.build_structures", "pipeline.load_data"}


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _total(record: dict, *names: str) -> float:
    return sum(end - start for _, name, start, end, _, _ in record["spans"] if name in names)


def phase_metrics(fit: dict, chain_iterations: int) -> dict:
    """setup_s and iter_per_s of one fit command; empty when no setup call was seen.

    Setup is ``build_structures`` + ``load_data``. Sampling runs from the end
    of the last setup call to the end of the command, so it holds every
    chain, their chain writes, and whatever else ``fit`` does after setup,
    however the chains are run.
    """
    setup = [(start, end) for _, name, start, end, _, _ in fit["spans"] if name in SETUP]
    if not setup:
        return {}
    command_end = next(end for sid, _, _, end, _, _ in fit["spans"] if sid == 0)
    return {
        "setup_s": sum(end - start for start, end in setup),
        "iter_per_s": chain_iterations / (command_end - max(end for _, end in setup)),
    }


def layer_metrics(fit: dict, pred: dict, iterations: int) -> dict:
    """Per-layer figures of one traced fit + predict pass.

    The sampler figures are per chain (one ``gibbs_run`` span each) averaged
    over chains; they are absent when no ``gibbs_run`` span was recorded.
    """
    spans = fit["spans"]
    by_id = {s[0]: s for s in spans}
    per_chain = []
    for gid, name, g_start, g_end, _, thread in spans:
        if name != "sampler.gibbs_run":
            continue
        inside = [s for s in spans if s[5] == thread and g_start <= s[2] and s[3] <= g_end]
        writes = covered((s[2], s[3]) for s in inside if s[1] in WRITES)
        parts = defaultdict(float)
        for s in inside:
            if s[1] in SWEEP:
                parts[SWEEP[s[1]]] += s[3] - s[2]
        calls = 0
        for s in inside:
            if s[1] in LINOPS:
                parent = by_id.get(s[4])
                while parent is not None and parent[1] in LINOPS:
                    parent = by_id.get(parent[4])
                calls += parent is not None and parent[1] in SWEEP
        iter_ms = (g_end - g_start - writes) * 1e3 / iterations
        chain = {f"sampler.{k}_ms": parts[k] * 1e3 / iterations
                 for k in ("ffbs", "xi", "beta", "sigma_k2", "sigma_xi2")}
        chain["sampler.iter_ms"] = iter_ms
        chain["sampler.driver_ms"] = iter_ms - sum(parts.values()) * 1e3 / iterations
        chain["linops.calls_per_iter"] = calls / iterations
        per_chain.append(chain)
    out = {k: sum(c[k] for c in per_chain) / len(per_chain) for k in per_chain[0]} if per_chain else {}
    write_s = 0.0
    for thread in {s[5] for s in spans}:
        write_s += covered((s[2], s[3]) for s in spans if s[5] == thread and s[1] in WRITES)
    counters = fit["counters"]
    out.update({
        "data.ingest_s": _total(fit, "data.scan_units", "data.build_adjacency", "data.assemble_design"),
        "data.load_obs_s": _total(fit, "pipeline.load_data"),
        "basis.build_s": _total(fit, "basis.build_basis_system"),
        "basis.peak_mb": counters.get("basis.peak_bytes", 0) / 1e6,
        "basis.builds": sum(s[1] == "basis.build_basis_system" for r in (fit, pred) for s in r["spans"]),
        "prior.build_s": _total(fit, "prior.build_prior_structure"),
        "prior.lifts": counters.get("prior.lifts", 0),
        "prior.eps_floors": counters.get("prior.eps_floors", 0),
        "linops.max_dense_dim": counters.get("linops.max_dense_dim", 0),
        "linops.pinv_fallbacks": counters.get("linops.pinv_fallbacks", 0)
        + pred["counters"].get("linops.pinv_fallbacks", 0),
        "chainio.flush_s": write_s,
        "chainio.read_s": _total(pred, "chainio.read_chain"),
        "predict.posterior_y_s": _total(pred, "predict.posterior_y"),
        "predict.write_s": _total(pred, "predict.write_predictions_csv"),
    })
    return out


def self_time_table(records: list[dict]) -> list[dict]:
    """Calls, total and self seconds per span name over the given records."""
    rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for record in records:
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in record["spans"]:
            if parent is not None:
                children[parent].append((start, end))
        for sid, name, start, end, _, _ in record["spans"]:
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered(
                (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end
            )
    return sorted(({"name": n, **r} for n, r in rows.items()), key=lambda r: -r["self_s"])
