"""Command-line experiment runner.

Subcommands:
  evolve   exact witness time series            -> CSV
  witness  witnesses of a stored statevector    -> CSV
  qubo     export a clock QUBO                  -> text format
  anneal   run the annealer on a QUBO file      -> JSON
  aqae     blocked adaptive annealing run       -> CSV + JSON report
  bench    infidelity grids over zoom/K/budget  -> CSV
  blocks   mass-basis occupation block census   -> CSV

Every output embeds the resolved configuration and seed in a header comment,
and identical (config, seed) inputs reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .annealer import AnnealSchedule, anneal
from .aqae import BlockedAqaeResult, clock_qubo, initial_estimate, run_aqae, run_aqae_blocked
from .basis import mass_blocks
from .clock import DigitizationParams, Direction, QuboProblem, build_clock, real_embed
from .config import ConfigError, ExperimentConfig, load_config, load_state
from .evolution import evolve_series
from .hamiltonians import build_hamiltonian
from .witnesses import WitnessReport, compute_witnesses

FLOAT_FMT = "{:.11e}"  # 12 significant digits


def _fmt(x: float) -> str:
    return FLOAT_FMT.format(float(x))


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    blob = json.dumps(cfg.resolved(), sort_keys=True, separators=(",", ":"))
    return [f"# config: {blob}", f"# seed: {cfg.seed}"]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _witness_csv(reports: list[WitnessReport], n_modes: int, header: list[str]) -> str:
    pairs = WitnessReport.pair_order(n_modes)
    columns = (
        ["time_ev_inv"]
        + [f"S_{m + 1}" for m in range(n_modes)]
        + [f"N_{i + 1}{j + 1}" for i, j in pairs]
    )
    lines = list(header)
    lines.append(",".join(columns))
    for rep in reports:
        row = [_fmt(rep.time)]
        row += [_fmt(s) for s in rep.entropies]
        row += [_fmt(rep.negativities[p]) for p in pairs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_evolve(cfg: ExperimentConfig, out: str | None) -> int:
    if cfg.initial is None:
        raise ConfigError("initial_state: required for evolve")
    if not cfg.times:
        raise ConfigError("times: required for evolve")
    states = evolve_series(cfg.spec, cfg.initial, cfg.times)
    reports = [compute_witnesses(s, t) for s, t in zip(states, cfg.times)]
    _write_text(out, _witness_csv(reports, cfg.spec.n_modes, _header_lines(cfg)))
    return 0


def cmd_witness(state_path: str, out: str | None) -> int:
    try:
        state, time = load_state(state_path)
    except ConfigError as exc:
        print(f"invalid state file {state_path}: {exc}", file=sys.stderr)
        return 2
    report = compute_witnesses(state, time)
    header = [f"# state: {state_path}"]
    _write_text(out, _witness_csv([report], state.n_modes, header))
    return 0


def cmd_qubo(cfg: ExperimentConfig, out: str | None) -> int:
    if cfg.initial is None:
        raise ConfigError("initial_state: required for qubo export")
    q = cfg.qubo
    if q is None:
        raise ConfigError("qubo.time: required")
    h = build_hamiltonian(cfg.spec, cfg.initial.basis)
    clock = build_clock(h.matrix, cfg.initial.amplitudes, q.time / q.steps, q.steps)
    params = DigitizationParams(q.k_bits, q.zoom, q.direction)
    problem, _ = clock_qubo(clock, real_embed(clock), params, initial_estimate(clock), q.freeze_initial)
    text = "".join(line + "\n" for line in _header_lines(cfg)) + problem.to_text()
    _write_text(out, text)
    return 0


def cmd_anneal(args: argparse.Namespace) -> int:
    try:
        problem = QuboProblem.from_text(Path(args.qubo).read_text())
    except ValueError as exc:
        print(f"invalid QUBO file {args.qubo}: {exc}", file=sys.stderr)
        return 2
    if problem.size == 0:
        print(f"invalid QUBO file {args.qubo}: its header declares no variables", file=sys.stderr)
        return 2
    try:
        schedule = AnnealSchedule(args.sweeps, args.reads, args.beta_start, args.beta_end, args.seed)
    except ValueError as exc:
        print(f"invalid annealing flags: {exc}", file=sys.stderr)
        return 2
    result = anneal(problem, schedule)
    payload = {
        "qubo": str(args.qubo),
        "size": problem.size,
        "offset": problem.offset,
        "schedule": asdict(schedule),
        "best_energy": result.best_energy,
        "best_bits": [int(b) for b in result.best_bits],
        "read_energy_min": float(np.min(result.all_read_energies)),
        "read_energy_median": float(np.median(result.all_read_energies)),
        "read_energy_max": float(np.max(result.all_read_energies)),
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _blocked_report_json(cfg: ExperimentConfig, result: BlockedAqaeResult) -> str:
    payload = {
        "config": cfg.resolved(),
        "seed": cfg.seed,
        "times": cfg.times,
        "blocks": [
            {
                "time": t,
                "block_runs": [rep.to_dict() for rep in per_time],
            }
            for t, per_time in zip(cfg.times, result.block_reports)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_aqae(cfg: ExperimentConfig, out: str | None, oracle: bool) -> int:
    if cfg.initial is None:
        raise ConfigError("initial_state: required for aqae")
    if not cfg.times:
        raise ConfigError("times: required for aqae")
    result = run_aqae_blocked(cfg.spec, cfg.initial, cfg.aqae_dt, cfg.times, cfg.aqae, oracle=oracle)
    csv_text = _witness_csv(result.reports, cfg.spec.n_modes, _header_lines(cfg))
    if out is None:
        sys.stdout.write(csv_text)
        sys.stdout.write(_blocked_report_json(cfg, result))
    else:
        out_path = Path(out)
        out_path.write_text(csv_text)
        out_path.with_suffix(".json").write_text(_blocked_report_json(cfg, result))
    return 0


def cmd_bench(cfg: ExperimentConfig, out: str | None) -> int:
    if cfg.spec.n_modes != 2:
        raise ConfigError("bench: requires an n_modes = 2 system")
    if cfg.initial is None:
        raise ConfigError("initial_state: required for bench")
    bench = cfg.bench
    if bench is None:
        raise ConfigError("bench.time: required")

    h = build_hamiltonian(cfg.spec, cfg.initial.basis)
    lines = _header_lines(cfg)
    lines.append(f"zoom,{bench.axis},infidelity")
    for value in bench.values:
        run_cfg = replace(cfg.aqae, max_zoom=max(bench.zooms) + 1, **{bench.axis: value})
        res = run_aqae(h.matrix, cfg.initial.amplitudes, bench.time, run_cfg, oracle=True)
        by_zoom = {
            entry["zoom"]: entry["overlap"]
            for entry in res.diagnostics
            if entry["direction"] == Direction.REVERSE.value
        }
        for z in bench.zooms:
            infidelity = 1.0 - by_zoom[z]
            lines.append(f"{z},{value},{_fmt(infidelity)}")
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def cmd_blocks(cfg: ExperimentConfig, out: str | None) -> int:
    blocks = mass_blocks(cfg.spec.nf, cfg.spec.n_modes)
    lines = _header_lines(cfg)
    lines.append("occupation,size")
    for block in blocks:
        occ = " ".join(str(c) for c in block.occupation)
        lines.append(f"{occ},{block.size}")
    lines.append(f"# total blocks: {len(blocks)}")
    lines.append(f"# total states: {sum(b.size for b in blocks)}")
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuanneal",
        description="Collective-oscillation witness extraction and annealing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment configuration")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        return p

    add_config_command("evolve", "exact witness time series (CSV)")
    add_config_command("qubo", "export a clock QUBO in the line-oriented text format")
    p_aqae = add_config_command("aqae", "blocked adaptive annealing run (CSV + JSON)")
    p_aqae.add_argument("--oracle", action="store_true", help="record overlaps against exact evolution")
    add_config_command("bench", "infidelity grid over zoom and annealer settings (CSV)")
    add_config_command("blocks", "mass-basis occupation block census (CSV)")

    p_wit = sub.add_parser("witness", help="witnesses of a stored statevector (CSV)")
    p_wit.add_argument("--state", required=True, help="statevector JSON file")
    p_wit.add_argument("--out", default=None)

    p_ann = sub.add_parser("anneal", help="anneal a QUBO text file (JSON)")
    p_ann.add_argument("--qubo", required=True, help="QUBO text file")
    p_ann.add_argument("--sweeps", type=int, default=1000)
    p_ann.add_argument("--reads", type=int, default=100)
    p_ann.add_argument("--seed", type=int, default=0)
    p_ann.add_argument("--beta-start", type=float, default=None)
    p_ann.add_argument("--beta-end", type=float, default=None)
    p_ann.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "witness":
            return cmd_witness(args.state, args.out)
        if args.command == "anneal":
            return cmd_anneal(args)
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.out)
        if args.command == "qubo":
            return cmd_qubo(cfg, args.out)
        if args.command == "aqae":
            return cmd_aqae(cfg, args.out, args.oracle)
        if args.command == "bench":
            return cmd_bench(cfg, args.out)
        if args.command == "blocks":
            return cmd_blocks(cfg, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except (IsADirectoryError, PermissionError) as exc:
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
