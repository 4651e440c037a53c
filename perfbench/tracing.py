"""In-memory span tracer that times nuanneal's public functions from outside.

The tracer replaces a function under the name its caller looks it up by (a
module attribute such as ``nuanneal.aqae.anneal``, or a class attribute such
as ``QuboProblem.fix_variables``) with a wrapper that records a span: name,
start, end, parent span and run id.  Spans stay in memory until the
benchmark ends.  Nothing inside ``src/`` is edited; the wrappers are removed
again when :meth:`Tracer.patched` exits.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span names are "<layer>.<function>"; the layer is the nuanneal module whose
# work the span measures, or "bench" for the benchmark's own glue.
LAYERS = ("annealer", "clock", "hamiltonians", "evolution", "witnesses", "basis", "aqae", "bench")

# Per-operation inclusive time ("<name>_s") and call count ("<name>_calls").
TIMED = (
    "annealer.anneal",
    "clock.build_qubo",
    "clock.fix_variables",
    "clock.build_clock",
    "clock.real_embed",
    "clock.qubo_text",
    "hamiltonians.build",
    "hamiltonians.restrict",
    "evolution.eigh",
    "evolution.evolve",
    "evolution.propagator",
    "evolution.series",
    "witnesses.compute",
    "basis.change_basis",
    "basis.mass_blocks",
    "aqae.run",
    "aqae.blocked",
)


def _anneal_stats(args, kwargs, result) -> dict:
    q = args[0] if args else kwargs["q"]
    s = args[1] if len(args) > 1 else kwargs["s"]
    energies = result.all_read_energies
    lowest = float(energies.min())
    tol = 1e-9 * max(float(np.abs(energies).max()), 1e-300)
    return {
        "flips": s.reads * s.sweeps * q.size,
        "reads": s.reads,
        "best_reads": int(np.count_nonzero(energies <= lowest + tol)),
    }


def _aqae_stats(args, kwargs, result) -> dict:
    passes = sum(1 for e in result.diagnostics if e["direction"] != "rewind")
    last = result.diagnostics[-1] if result.diagnostics else {}
    deficit = 1.0 - last["overlap"] if "overlap" in last else 0.0
    return {"zoom_levels": passes / 2.0, "rewinds": result.rewinds, "deficit": deficit}


def targets(nu) -> list[tuple]:
    """(owner, attribute, span name, stats hook) for every traced call site."""
    qubo, evolver = nu.clock.QuboProblem, nu.evolution.Evolver
    return [
        (nu.aqae, "anneal", "annealer.anneal", _anneal_stats),
        (nu.annealer, "anneal", "annealer.anneal", _anneal_stats),
        (nu.annealer, "exhaustive_minimum", "annealer.exhaustive", None),
        (nu.aqae, "build_qubo", "clock.build_qubo", None),
        (qubo, "fix_variables", "clock.fix_variables", None),
        (qubo, "from_text", "clock.qubo_text", None),
        (nu.aqae, "build_clock", "clock.build_clock", None),
        (nu.aqae, "real_embed", "clock.real_embed", None),
        (nu.clock, "propagator", "evolution.propagator", None),
        (evolver, "__init__", "evolution.eigh", None),
        (evolver, "evolve", "evolution.evolve", None),
        (nu.evolution, "evolve_series", "evolution.series", None),
        (nu.evolution, "build_hamiltonian", "hamiltonians.build", None),
        (nu.aqae, "build_dirac_hamiltonian", "hamiltonians.build", None),
        (nu.aqae, "restrict_to_block", "hamiltonians.restrict", None),
        (nu.aqae, "mass_blocks", "basis.mass_blocks", None),
        (nu.aqae, "change_basis", "basis.change_basis", None),
        (nu.aqae, "compute_witnesses", "witnesses.compute", None),
        (nu.witnesses, "compute_witnesses", "witnesses.compute", None),
        (nu.aqae, "run_aqae", "aqae.run", _aqae_stats),
        (nu.aqae, "run_aqae_blocked", "aqae.blocked", None),
        (nu.config, "resolve_config", "config.load", None),
    ]


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self, nu):
        self.nu = nu
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._run = ""

    @contextmanager
    def span(self, name: str, run: str | None = None):
        """Record one span; ``run`` starts a new run id for a root span."""
        if run is not None:
            self._run = run
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self._run,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name, stats):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                out = func(*args, **kwargs)
            if stats is not None:
                rec["attrs"] = stats(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, stats in targets(self.nu):
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, stats))
                else:
                    new = self._wrap(raw, name, stats)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self) -> list[list]:
        """Spans as [id, name, start, end, parent, run], times from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            [s["id"], s["name"], s["start"] - t0, s["end"] - t0, s["parent"], s["run"]]
            for s in self.spans
        ]

    def layer_metrics(self, n_ops: int, untraced_op_s: float) -> dict[str, float]:
        """Per-operation layer metrics over the spans under ``bench.op`` roots.

        A span's self time is its duration minus its children's durations;
        a layer's self time is the sum over its spans, so the layers' self
        times add up to the traced operation time.
        """
        child_time: dict[int, float] = defaultdict(float)
        root: dict[int, str] = {}
        for s in self.spans:
            if s["parent"] is None:
                root[s["id"]] = s["name"]
            else:
                root[s["id"]] = root[s["parent"]]
                child_time[s["parent"]] += s["end"] - s["start"]

        total: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_self: dict[str, float] = defaultdict(float)
        anneal_calls: list[float] = []
        attrs: dict[str, float] = defaultdict(float)
        deficit_max = 0.0
        for s in self.spans:
            dur = s["end"] - s["start"]
            where = root[s["id"]]
            total[(where, s["name"])] += dur
            if where != "bench.op":
                continue
            calls[s["name"]] += 1
            layer_self[s["name"].split(".")[0]] += dur - child_time[s["id"]]
            for key, value in s["attrs"].items():
                attrs[key] += value
            if s["name"] == "annealer.anneal":
                anneal_calls.append(dur)
            if s["name"] == "aqae.run":
                deficit_max = max(deficit_max, s["attrs"]["deficit"])

        per_op = 1.0 / n_ops
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}_s"] = total[("bench.op", name)] * per_op
            out[f"{name}_calls"] = calls[name] * per_op
        out["aqae.block_runs"] = out.pop("aqae.run_calls")
        anneal_s = total[("bench.op", "annealer.anneal")]
        out["annealer.anneal_call_s_p50"] = statistics.median(anneal_calls) if anneal_calls else 0.0
        out["annealer.flip_attempts"] = attrs["flips"] * per_op
        out["annealer.flip_attempts_per_s"] = attrs["flips"] / anneal_s if anneal_s else 0.0
        out["annealer.best_read_frac"] = attrs["best_reads"] / attrs["reads"] if attrs["reads"] else 0.0
        out["annealer.exhaustive_s"] = total[("bench.gate", "annealer.exhaustive")] * per_op
        out["config.load_s"] = total[("bench.setup", "config.load")]
        out["aqae.zoom_levels"] = attrs["zoom_levels"] * per_op
        out["aqae.rewinds"] = attrs["rewinds"] * per_op
        out["aqae.overlap_deficit_max"] = deficit_max
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] * per_op
        traced_op_s = total[("bench.op", "bench.op")] * per_op
        out["trace.op_s"] = traced_op_s
        out["trace.untraced_op_s"] = untraced_op_s
        out["trace.overhead_s"] = traced_op_s - untraced_op_s
        out["trace.ops"] = float(n_ops)
        return out
