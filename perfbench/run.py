"""nuanneal benchmark: one workload per run, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload aqae_blocked --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The program is imported from ``src/`` beside this directory; without it the
run exits with code 2 and prints no result.  BLAS is pinned to one thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics, timed with tracing off; with
``--trace 1`` they are the per-layer metrics of a traced run.  Host facts,
per-operation timings, correctness notes and (traced) spans go to a side
channel: a JSON report under ``perfbench/out/`` and a summary on stderr.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported; setup child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
MODULES = ("aqae", "annealer", "basis", "clock", "config", "evolution", "hamiltonians", "witnesses")


def import_program(root: Path = ROOT) -> types.SimpleNamespace:
    """Import nuanneal from ``<root>/src`` and nowhere else."""
    src = root / "src"
    if not (src / "nuanneal" / "__init__.py").is_file():
        raise ImportError(f"no nuanneal package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("nuanneal")
    if Path(pkg.__file__).resolve().parent != (src / "nuanneal").resolve():
        raise ImportError(f"nuanneal imported from {pkg.__file__}, not from {src}")
    nu = types.SimpleNamespace(version=pkg.__version__)
    for name in MODULES:
        setattr(nu, name, importlib.import_module(f"nuanneal.{name}"))
    return nu


def git_sha(root: Path = ROOT) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(nu) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nuanneal": nu.version,
        "git_sha": git_sha(),
    }


def tail_percentile(samples: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None, None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def setup_seconds(workload: str, seed: int, quick: bool) -> list[float]:
    """Wall time of fresh processes that import, configure and build inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would quantize the measured time.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_op(wl, k: int, log: list[dict]):
    """One operation; returns (result or None, wall seconds)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result, extra = wl.op(k)
    except Exception:  # a failed operation is counted, not fatal
        log.append({"op": k, "error": traceback.format_exc()})
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    log.append({"op": k, "seconds": elapsed, "cpu_seconds": time.process_time() - c0, **extra})
    return result, elapsed


def gate(wl, results: list, log: list[dict]) -> int:
    """Check every operation's outputs; returns the number of failed ops."""
    failed = 0
    for k, result in enumerate(results):
        if result is None:
            failed += 1
            continue
        failures = wl.check(k, result)
        if failures:
            failed += 1
            log[k]["failures"] = failures
    return failed


def run_timed(nu, name: str, seed: int, seconds: float, quick: bool) -> tuple[dict, dict]:
    setup = setup_seconds(name, seed, quick)
    wl = WORKLOADS[name](nu, seed, quick)
    log: list[dict] = []
    results, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        result, elapsed = run_op(wl, len(results), log)
        results.append(result)
        times.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = gate(wl, results, log)

    ok_times = [t for r, t in zip(results, times) if r is not None] or times
    pct, tail = tail_percentile(ok_times)
    side = {
        "op": wl.op_label,
        "setup_runs_s": setup,
        "op_s_samples": len(ok_times),
        "op_s_tail": tail,
        "op_s_tail_percentile": pct,
        "fail_frac": failed / len(results),
        "ops": log,
    }
    for key in ("dirac_s", "mixed_s"):
        split = [e[key] for e in log if key in e]
        if split:
            side[f"{key[:-2]}_series_s_p50"] = statistics.median(split)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "op_s": {"value": statistics.median(ok_times), "unit": "s"},
    }
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}, side


def run_traced(nu, name: str, seed: int, seconds: float, quick: bool) -> tuple[dict, dict]:
    """Pairs of the same operation untraced then traced, then a traced gate."""
    tracer = Tracer(nu)
    with tracer.patched(), tracer.span("bench.setup", run="setup"):
        wl = WORKLOADS[name](nu, seed, quick)
    log: list[dict] = []
    untraced_log: list[dict] = []
    results, untraced_times = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        k = len(results)
        plain, elapsed = run_op(wl, k, untraced_log)
        untraced_times.append(elapsed)
        with tracer.patched(), tracer.span("bench.op", run=f"op-{k}"):
            traced, _ = run_op(wl, k, log)
        if plain is not None and traced is not None and not wl.same(plain, traced):
            traced = None
            log[k]["error"] = "traced and untraced outputs differ"
        results.append(traced)
    with tracer.patched(), tracer.span("bench.gate", run="gate"):
        failed = gate(wl, results, log)

    layers = tracer.layer_metrics(len(results), statistics.fmean(untraced_times))
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    side = {"op": wl.op_label, "fail_frac": failed / len(results), "ops": log, "spans": tracer.dump()}
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}, side


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_p50"):
        return "s"
    if name.endswith("_frac") or name.endswith("_max"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    combined = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in combined.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"fail_frac {res['failed'] / res['attempted']:.4g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)

    try:
        nu = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](nu, args.seed, args.quick)
        return 0

    runner = run_traced if args.trace else run_timed
    result, side = runner(nu, args.workload, args.seed, args.seconds, args.quick)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "host": host_facts(nu),
        "result": result,
        **side,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    path.write_text(json.dumps(report, indent=1))
    print(json.dumps({"host": report["host"], "fail_frac": side["fail_frac"], "report": str(path.relative_to(ROOT))}),
          file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
