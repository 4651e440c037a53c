"""The benchmark's tracer patches nuanneal functions by name and reads their
results in its stats hooks; every name it lists must still resolve, and every
field a hook reads must still be there, or ``perfbench/run.py --trace 1``
breaks."""

import importlib.util
from pathlib import Path

import numpy as np

import nuanneal
from nuanneal.annealer import AnnealSchedule, anneal
from nuanneal.aqae import AqaeConfig, run_aqae
from nuanneal.basis import BasisTag
from nuanneal.clock import QuboProblem
from nuanneal.hamiltonians import HamiltonianMatrix

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    missing = []
    for owner, attr, name, _ in _tracing_module().targets(nuanneal):
        # The tracer reads class attributes through __dict__ (so a
        # classmethod stays one) and module attributes through getattr.
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert not missing, "traced call sites missing: " + ", ".join(missing)


def test_stats_hooks_read_real_results():
    # The hooks read the read energies of an anneal, and AqaeResult.rewinds
    # and each record's direction and overlap of an AQAE run.
    hooks = {name: stats for _, _, name, stats in _tracing_module().targets(nuanneal) if stats is not None}
    q = QuboProblem(2, {(0, 0): 1.0, (0, 1): -2.0, (1, 1): 0.5})
    s = AnnealSchedule(sweeps=4, reads=3, seed=1)
    stats = hooks["annealer.anneal"]((q, s), {}, anneal(q, s))
    assert (stats["flips"], stats["reads"]) == (4 * 3 * 2, 3) and 1 <= stats["best_reads"] <= 3
    h = HamiltonianMatrix(np.array([[0.3, 0.1], [0.1, -0.2]]), BasisTag.FLAVOR)
    args = (h, np.array([1.0, 0.0], dtype=complex), 1.0, AqaeConfig(max_zoom=3, reads=4, sweeps=8))
    stats = hooks["aqae.run"](args, {"oracle": True}, run_aqae(*args, oracle=True))
    assert (stats["zoom_levels"], stats["rewinds"]) == (3, 0) and 0.0 <= stats["deficit"] < 1.0
