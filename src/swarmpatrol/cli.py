"""Command line front end: simulate, summarize, genmap, analyze."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .graph import generate_default_map, serialize_map
from .harness import (
    ConfigError,
    ExperimentConfig,
    SummaryRow,
    analyze_runs,
    parse_strategy,
    read_runs_csv,
    run_matrix,
    summarize,
    write_summary_csv,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmpatrol",
        description="Multi-robot patrol simulator with shared anomaly perception.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured experiment matrix")
    sim.add_argument("--config", required=True, help="experiment config file")
    sim.add_argument("--strategy", help="restrict to one strategy (e.g. SEBS)")
    sim.add_argument("--noise", type=float, help="restrict to one noise level")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--out", help="directory for the run CSVs and event logs")
    sim.add_argument(
        "--progress", action="store_true", help="print one line per completed run"
    )

    summ = sub.add_parser("summarize", help="recompute the summary from a runs directory")
    summ.add_argument("--runs", required=True, help="directory containing runs.csv")

    gen = sub.add_parser("genmap", help="generate a patrol map")
    gen.add_argument("--seed", type=int, required=True, help="generator seed")
    gen.add_argument("--out", required=True, help="output map file")

    ana = sub.add_parser("analyze", help="derive analysis CSVs from a runs directory")
    ana.add_argument("--runs", required=True, help="directory containing runs.csv")
    return parser


def _print_summary(rows: list[SummaryRow]) -> None:
    header = (
        f"{'strategy':<8} {'noise':>6} {'runs':>4} {'idleness':>10} {'f_score':>8} "
        f"{'consensus':>9} {'t_cons':>8} {'fp_mean':>8} {'lambda2':>9}"
    )
    print(header)
    print("-" * len(header))
    for s in rows:
        t_cons = f"{s.t_consensus_mean:.1f}" if s.t_consensus_mean is not None else "-"
        print(
            f"{s.strategy:<8} {s.noise:>6g} {s.runs:>4d} {s.idleness_mean:>10.2f} "
            f"{s.fscore_mean:>8.4f} {s.consensus_rate:>9.2f} {t_cons:>8} "
            f"{s.fp_consensus_mean:>8.2f} {s.lambda2_mean:>9.2f}"
        )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.strategy is not None:
        cfg = replace(cfg, strategies=(parse_strategy(args.strategy),))
    if args.noise is not None:
        cfg = replace(cfg, noise_levels=(float(args.noise),))
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    out_dir = Path(args.out) if args.out else None
    _, summaries = run_matrix(cfg, out_dir=out_dir, progress=args.progress)
    _print_summary(summaries)
    if out_dir is not None:
        print(f"wrote runs.csv, summary.csv and social_edges.csv in {out_dir}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    runs_dir = Path(args.runs)
    records = read_runs_csv(runs_dir / "runs.csv")
    rows = summarize(records)
    _print_summary(rows)
    write_summary_csv(runs_dir / "summary.csv", rows)
    print(f"wrote {runs_dir / 'summary.csv'}")
    return 0


def _cmd_genmap(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    g = generate_default_map(args.seed)
    text = serialize_map(g, header=f"patrol map, generator seed {args.seed}")
    Path(args.out).write_text(text)
    print(
        f"wrote {args.out}: {g.node_count} nodes, {g.edge_count} edges, "
        f"average degree {g.average_degree:.2f}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    written = analyze_runs(Path(args.runs))
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "summarize": _cmd_summarize,
    "genmap": _cmd_genmap,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
