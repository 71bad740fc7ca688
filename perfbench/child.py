"""Run one arealdlm CLI command in this process and record timing spans.

Usage (``run.py`` starts this; PYTHONPATH must name the
checkout's ``src`` directory and PERFBENCH_SRC the same directory):

    python3 perfbench/child.py --mode phases|trace --label fit#0 \
        --record out.json -- fit --config run.ini --chains 2

The command runs through ``arealdlm.cli.main`` exactly as the console script
would. Timing wraps public functions from outside the package: nothing in
``src/`` is edited.

- ``phases`` (untraced runs) wraps only ``pipeline.build_structures`` and
  ``pipeline.load_data``, called once or twice per command, so the
  end-to-end numbers carry no per-iteration tracing cost.
- ``trace`` wraps every layer boundary listed in ``TRACE_TARGETS`` and also
  records counters: the largest dense factorization inside ``gibbs_run``
  (``linops.track_dense_solves``), WARNING records of the ``arealdlm.linops``
  logger, PSD lifts and epsilon floors of each prior build, and the
  tracemalloc peak of each basis build.

Spans are kept in memory and written to ``--record`` as JSON when the command
ends: ``[id, name, start, end, parent_id, thread_id]`` with times from
``time.perf_counter``. Every span of one command shares the run id
``--label``; span 0 is the command itself.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

# (module, attribute, span name). Class methods are given as "Class.method".
PHASE_TARGETS = [
    ("arealdlm.pipeline", "build_structures", "pipeline.build_structures"),
    ("arealdlm.pipeline", "load_data", "pipeline.load_data"),
]
TRACE_TARGETS = [
    ("arealdlm.pipeline", "build_structures", "pipeline.build_structures"),
    ("arealdlm.pipeline", "load_data", "pipeline.load_data"),
    ("arealdlm.data", "scan_units", "data.scan_units"),
    ("arealdlm.data", "build_adjacency", "data.build_adjacency"),
    ("arealdlm.data", "assemble_design", "data.assemble_design"),
    ("arealdlm.data", "load_observations", "data.load_observations"),
    ("arealdlm.data", "align_observations", "data.align_observations"),
    ("arealdlm.basis", "build_basis_system", "basis.build_basis_system"),
    ("arealdlm.prior", "build_prior_structure", "prior.build_prior_structure"),
    ("arealdlm.sampler", "gibbs_run", "sampler.gibbs_run"),
    ("arealdlm.sampler", "_filter_core", "sampler.filter"),
    ("arealdlm.sampler", "backward_sample", "sampler.backward_sample"),
    ("arealdlm.sampler", "sample_xi", "sampler.sample_xi"),
    ("arealdlm.sampler", "sample_beta", "sampler.sample_beta"),
    ("arealdlm.sampler", "sample_sigma_k", "sampler.sample_sigma_k"),
    ("arealdlm.sampler", "sample_sigma_xi", "sampler.sample_sigma_xi"),
    ("arealdlm.linops", "inv_spd", "linops.inv_spd"),
    ("arealdlm.linops", "chol_psd", "linops.chol_psd"),
    ("arealdlm.linops", "draw_mvn", "linops.draw_mvn"),
    ("arealdlm.chainio", "ChainWriter.flush", "chainio.flush"),
    ("arealdlm.chainio", "ChainWriter.finalize", "chainio.finalize"),
    ("arealdlm.chainio", "read_chain", "chainio.read_chain"),
    ("arealdlm.predict", "posterior_y", "predict.posterior_y"),
    ("arealdlm.predict", "write_predictions_csv", "predict.write_predictions_csv"),
]


class _Stack(threading.local):
    def __init__(self):
        self.ids: list[int] = []


class Recorder:
    """In-memory span store shared by every wrapper of one command."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._stack = _Stack()
        self._lock = threading.Lock()  # chains in a thread pool update counters concurrently

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records one span named ``name``.

        A call with no traced caller in its thread (such as a chain started by
        a thread pool) gets the command's span 0 as parent.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack.ids
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))

        return wrapper

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)


def _replace_everywhere(original, replacement) -> None:
    """Point every arealdlm module attribute bound to ``original`` at ``replacement``.

    ``from .x import f`` copies the binding, so patching the defining module
    alone would miss callers that imported the name.
    """
    for name, module in list(sys.modules.items()):
        if name == "arealdlm" or name.startswith("arealdlm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(rec: Recorder, targets, extras: dict | None = None) -> None:
    """Wrap each target in a span.

    ``extras`` maps a span name to a wrapper factory applied inside the span,
    for counters taken around the call.
    """
    extras = extras or {}
    for module_name, attr, span_name in targets:
        module = sys.modules[module_name]
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        original = getattr(holder, leaf, None)
        if original is None:
            rec.missing.append(f"{module_name}.{attr}")
            continue
        inner = extras[span_name](original) if span_name in extras else original
        wrapped = rec.span(span_name, inner)
        if owner:
            setattr(holder, leaf, wrapped)
        else:
            _replace_everywhere(original, wrapped)


def _prior_with_counts(rec: Recorder):
    def factory(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            prior = fn(*args, **kwargs)
            rec.count("prior.lifts", len(prior.lift_log))
            rec.count("prior.eps_floors", len(prior.eps_log))
            return prior

        return counted

    return factory


def _basis_with_tracemalloc(rec: Recorder):
    def factory(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.peak("basis.peak_bytes", tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()

        return measured

    return factory


def _gibbs_with_solve_tracker(rec: Recorder, linops):
    def factory(fn):
        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            with linops.track_dense_solves() as tracker:
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.peak("linops.max_dense_dim", tracker.max_dim)

        return tracked

    return factory


class _WarningCounter(logging.Handler):
    def __init__(self, rec: Recorder):
        super().__init__(level=logging.WARNING)
        self.rec = rec

    def emit(self, record):
        self.rec.count("linops.pinv_fallbacks")


def _peak_rss_kb() -> int:
    """This process's own peak resident set size.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` also carries the
    parent's peak across fork + exec, which would leak the memory of ``run.py``
    into the figure. ``VmHWM`` is the high-water mark of the memory
    map created by exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("phases", "trace"), required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import arealdlm

    expected = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if expected not in Path(arealdlm.__file__).resolve().parents:
        print(f"arealdlm imported from {arealdlm.__file__}, not {expected}", file=sys.stderr)
        return 97
    from arealdlm import cli, linops

    rec = Recorder()
    if opts.mode == "phases":
        install(rec, PHASE_TARGETS)
    else:
        rec.counters.update({"prior.lifts": 0, "prior.eps_floors": 0, "linops.pinv_fallbacks": 0})
        logging.getLogger("arealdlm.linops").addHandler(_WarningCounter(rec))
        install(
            rec,
            TRACE_TARGETS,
            extras={
                "basis.build_basis_system": _basis_with_tracemalloc(rec),
                "prior.build_prior_structure": _prior_with_counts(rec),
                "sampler.gibbs_run": _gibbs_with_solve_tracker(rec, linops),
            },
        )
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        end = time.perf_counter()
        rec.spans.append((0, f"cli.{cli_args[0] if cli_args else '?'}", start, end, None,
                          threading.get_ident()))
        Path(opts.record).write_text(
            json.dumps(
                {
                    "label": opts.label,
                    "peak_rss_kb": _peak_rss_kb(),
                    "mode": opts.mode,
                    "spans": rec.spans,
                    "counters": rec.counters,
                    "missing_targets": rec.missing,
                },
                separators=(",", ":"),
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
