"""Outside-in span tracing of the sigchain package.

``install`` wraps every function named in each sigchain module's
``__all__`` (plus ``scenario.plan_scenario``) and rebinds the wrapper in
every ``sigchain`` module namespace that holds the original, so calls made
through by-name imports such as ``scenario.synth_comm_waveform`` and
``metrics.run_chain`` are traced too.  Nothing under ``src/`` changes.

Each call records one span: name, start, end, parent and op id.
``apply_stage`` spans are named ``chains.stage.<kind>``.  Spans opened in a
thread whose own stack is empty (the ``run_sweep`` worker threads) take the
innermost open ``scenario.run_sweep`` span as parent.  Spans stay in memory
until ``Tracer.dump``.

A few spans also carry counts and an input key (see ``_PROBES``) so that
``layer_metrics`` can report work done and how many calls repeat an input.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

MODULES = ("envelope", "modulation", "impairments", "chains", "metrics",
           "qubit", "calibration", "scenario")
EXTRA = {"scenario": ("plan_scenario",)}
ROUTINES = ("rabi_amplitude_cal", "iq_cal", "polar_delay_align", "dpd_fit",
            "leakage_cancel")
# distinct-input ratio -> the spans whose input keys it pools
DISTINCT = {
    "modulation.shape_symbols.distinct_ratio": ("modulation.shape_symbols",),
    "chains.run_chain.distinct_ratio": ("chains.run_chain",),
    "qubit.distinct_ratio": ("qubit.propagate", "qubit.bloch_trajectory"),
}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if hasattr(p, "tobytes"):
            h.update(p.tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _env_key(env):
    return (env.samples, env.sample_rate)


# name -> function(bound arguments) -> (counts, input key or None)
_PROBES = {
    "chains.run_chain": lambda a: (
        {"samples": len(a["env"])},
        _digest(a["chain"], *_env_key(a["env"]))),
    "modulation.shape_symbols": lambda a: (
        {}, _digest(a["stream"].symbols, a["stream"].symbol_period,
                    a["shape"])),
    "qubit.propagate": lambda a: (
        {"steps": len(a["env"]) * a["substeps"]},
        _digest(a["model"], *_env_key(a["env"]), a["substeps"])),
    "qubit.bloch_trajectory": lambda a: (
        {"steps": len(a["env"]) * a["substeps"]},
        _digest(a["model"], *_env_key(a["env"]), a["substeps"])),
    "scenario.write_text_atomic": lambda a: (
        {"bytes": len(a["text"].encode())}, None),
}


class Tracer:
    """Span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweeps: list = []
        self._originals: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        probe = _PROBES.get(name)
        is_stage = name == "chains.apply_stage"
        is_sweep = name == "scenario.run_sweep"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            counts, key = None, None
            if is_stage:
                spec = args[1] if len(args) > 1 else kwargs["spec"]
                span_name = "chains.stage." + spec.kind
            elif probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts, key = probe(bound.arguments)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._sweeps and threading.current_thread() \
                    is not threading.main_thread():
                parent = tracer._sweeps[-1]
            else:
                parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            if is_sweep:
                tracer._sweeps.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_sweep:
                    tracer._sweeps.remove(sid)
                tracer.spans.append((sid, parent, span_name, start, end,
                                     tracer.op, counts, key))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every sigchain module."""
        import importlib

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"sigchain.{short}")
            for attr in tuple(mod.__all__) + EXTRA.get(short, ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "sigchain" and not modname.startswith("sigchain."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def dump(self, path) -> None:
        cols = ("id", "parent", "name", "start", "end", "op", "counts", "key")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(cols, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered, at = 0.0, start
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, at), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                at = c1
        out[s[0]] = (end - start) - covered
    return out


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-op layer numbers from the spans of ``n_ops`` traced ops."""
    self_s = self_times(spans)
    by_id = {s[0]: s for s in spans}
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    keys = defaultdict(set)
    chain_runs = defaultdict(int)
    for s in spans:
        sid, _, name, _, _, op, cnt, key = s
        self_ms[name] += 1e3 * self_s[sid]
        calls[name] += 1
        for k, v in (cnt or {}).items():
            counts[f"{name}.{k}"] += v
        for metric, names in DISTINCT.items():
            if key is not None and name in names:
                keys[metric].add((op, key))
        if name == "chains.run_chain":
            up = by_id.get(s[1])
            while up is not None:
                routine = up[2].rpartition(".")[2]
                if up[2].startswith("calibration.") and routine in ROUTINES:
                    chain_runs[routine] += 1
                    break
                up = by_id.get(up[1])

    out = {name: v / n_ops for name, v in self_ms.items()}
    per_op = {f"{name}.self_ms": v for name, v in out.items()}
    per_op.update({f"{name}.calls": c / n_ops for name, c in calls.items()})
    per_op.update({name: c / n_ops for name, c in counts.items()})
    per_op["scenario.bytes_written"] = per_op.pop(
        "scenario.write_text_atomic.bytes", 0.0)
    for metric, names in DISTINCT.items():
        n = sum(calls[x] for x in names)
        per_op[metric] = len(keys[metric]) / n if n else 0.0
    for routine in ROUTINES:
        per_op[f"calibration.{routine}.chain_runs"] = \
            chain_runs[routine] / n_ops
    per_op["trace.self_sum_ms"] = sum(out.values())
    per_op["trace.covered_ms"] = 1e3 * _union(
        (s[3], s[4]) for s in spans) / n_ops
    return per_op


def _union(intervals) -> float:
    total, at = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, at)
        if end > start:
            total += end - start
            at = end
    return total
