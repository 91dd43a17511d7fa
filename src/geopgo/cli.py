"""Command-line driver: generate, info, solve, convert.

Every command is deterministic given its inputs and declared seeds. Log
verbosity comes from the ``GEOPGO_LOG`` environment variable (standard
logging level names).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io as gio
from .consistency import enforce_pairwise_rotations, full_report
from .graph import PoseGraph, algebraic_connectivity, symmetrize
from .runtime import run_distributed
from .solver import TRANSLATION_MODES, SolverConfig, in_basin, solve
from .synth import (NoiseModel, ScenarioSpec, generate_dataset, gps_init,
                    identity_init, spanning_tree_init)

log = logging.getLogger("geopgo")


class CliError(Exception):
    """User-facing failure; message printed to stderr, exit code 1."""


def _load_config(path: str) -> tuple[ScenarioSpec, NoiseModel | None, int]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("scenario") is None:
        raise CliError("config error at scenario: section missing")
    try:
        read = gio.read_provenance(raw)
    except ValueError as exc:
        raise CliError(f"config error {exc}") from exc
    return read["scenario"], read["noise"], read["seed"] or 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec, noise, seed = _load_config(args.config)
    poses, graph = generate_dataset(spec, noise, seed)
    ds = gio.Dataset(graph=graph, vertices=poses,
                     vertex_kind="ground_truth", scenario=spec, noise=noise,
                     seed=seed)
    gio.save_dataset(args.out, ds)
    log.info("wrote %s: n=%d, directed measurements=%d",
             args.out, graph.n, graph.directed_count)
    print(f"wrote {args.out} (n={graph.n}, "
          f"measurements={graph.directed_count})")
    return 0


def _build_init(ds: gio.Dataset, g: PoseGraph, name: str, seed: int):
    """The init ``name`` built on ``g``, the reconciled ``ds.graph``, or
    None for ``gps`` on a dataset without ground truth."""
    if name == "identity":
        return identity_init(g.n)
    if name == "tree":
        return spanning_tree_init(g, root=0)
    if ds.vertices is None or ds.vertex_kind != "ground_truth":
        return None
    noise = ds.noise if ds.noise is not None else NoiseModel()
    return gps_init(ds.vertices, noise.tau, noise.kappa, seed=seed)


def _load(args: argparse.Namespace):
    """The dataset at ``--dataset`` and its consistency report."""
    if args.cycles < 0:
        raise CliError(f"--cycles must be nonnegative, got {args.cycles}")
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}")
    ds = gio.load_any(args.dataset)
    return ds, full_report(ds.graph, cycle_basis_limit=args.cycles)


def _make_out_dir(out_dir: Path, message_log: str | None) -> None:
    """Create ``out_dir`` and then the message log, which may lie in it.

    When the log cannot be created, the directories this call made are
    removed again and the error names ``--message-log``.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    if message_log is None:
        return
    try:
        open(message_log, "w").close()
    except OSError as exc:
        for d in made:  # deepest first, and each still empty
            with contextlib.suppress(OSError):
                d.rmdir()
        raise CliError(f"--message-log: {exc}") from None


def cmd_solve(args: argparse.Namespace) -> int:
    if args.message_log is not None and args.mode != "distributed":
        raise CliError("--message-log is written only in distributed mode "
                       "(--mode distributed)")
    ds, report = _load(args)
    g = ds.graph
    solved_graph = enforce_pairwise_rotations(g)
    init = _build_init(ds, solved_graph, args.init, args.seed)
    if init is None:
        raise CliError(
            "gps init needs ground-truth vertices, which this dataset "
            "does not carry; use tree or identity")
    config = SolverConfig(
        dt=args.dt, stop_tol=args.stop_tol, max_iters=args.max_iters,
        translation_mode=args.translation_mode)
    out_dir = Path(args.out_dir)
    _make_out_dir(out_dir, args.message_log)

    start = time.perf_counter()
    if args.mode == "reference":
        result = solve(solved_graph, init, config)
    else:
        result = run_distributed(solved_graph, init, config,
                                 message_log_path=args.message_log)
    wall = time.perf_counter() - start

    (out_dir / "trajectory.csv").write_text(
        gio.export_trajectory_csv(result.estimates))
    (out_dir / "objective.csv").write_text(
        gio.export_objective_csv(result.objective_history,
                                 result.control_norm_history))

    final = result.objective_history[-1]
    summary = {
        "dataset": str(args.dataset),
        "n": g.n,
        "directed_measurements": g.directed_count,
        "init": args.init,
        "mode": args.mode,
        "config": {
            "dt": config.dt,
            "stop_tol": config.stop_tol,
            "max_iters": config.max_iters,
            "translation_mode": config.translation_mode,
        },
        "enforced_pairwise_rotations": True,
        "iterations": result.iterations,
        "converged": result.converged,
        "wall_clock_seconds": wall,
        "final": dataclasses.asdict(final),
        "consistency": report.to_dict(),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"{args.mode} solve: {'converged' if result.converged else 'hit max_iters'} "
              f"after {result.iterations} iterations in {wall:.3f} s")
        print(f"final geodesic objective {final.geodesic:.6f}, "
              f"chordal {final.chordal:.6f}")
        print(f"outputs in {out_dir}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    if not 0 <= args.epsilon < np.inf:  # written so that NaN fails too
        raise CliError(
            f"--epsilon must be finite and nonnegative, got {args.epsilon}")
    ds, report = _load(args)
    g = ds.graph
    degrees = np.diff(g.edge_arrays.offsets)
    lam2 = algebraic_connectivity(g)

    # the inits and their basin check see the graph a solve runs on; the
    # consistency report is the raw graph's
    solved_graph = enforce_pairwise_rotations(g)
    basin: dict[str, bool | None] = {}
    for name in ("identity", "tree", "gps"):
        init = _build_init(ds, solved_graph, name, args.seed)
        basin[name] = (None if init is None
                       else in_basin(init, solved_graph, args.epsilon))

    info = {
        "dataset": str(args.dataset),
        "n": g.n,
        "directed_measurements": g.directed_count,
        "undirected_edges": g.directed_count // 2,
        "degree": {
            "min": int(min(degrees)),
            "max": int(max(degrees)),
            "mean": float(np.mean(degrees)),
        },
        "algebraic_connectivity": lam2,
        "consistency": report.to_dict(),
        "in_basin_by_init": basin,
    }
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print(f"dataset {args.dataset}")
    print(f"  poses: {g.n}")
    print(f"  directed measurements: {g.directed_count} "
          f"({info['undirected_edges']} undirected edges)")
    print(f"  degree min/mean/max: {info['degree']['min']}"
          f"/{info['degree']['mean']:.2f}/{info['degree']['max']}")
    print(f"  algebraic connectivity: {lam2:.6f}")
    print("  consistency:")
    for key, val in info["consistency"].items():
        print(f"    {key}: {val}")
    print("  basin membership by init mode "
          f"(epsilon={args.epsilon}):")
    for mode, ok in basin.items():
        shown = "n/a (no ground truth)" if ok is None else ok
        print(f"    {mode}: {shown}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    stored = gio.read_dataset(args.infile)
    if stored.skipped_records:
        log.warning("skipped %d unknown g2o records", stored.skipped_records)
    if args.symmetrize:
        stored.measurements = symmetrize(stored.measurements)
    gio.write_dataset(args.outfile, stored)
    print(f"wrote {args.outfile} ({len(stored.measurements)} measurements)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="geopgo",
        description="Distributed pose-graph optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate",
                           help="synthesize a dataset from a JSON config")
    p_gen.add_argument("--config", required=True,
                       help="JSON with scenario and optional noise sections")
    p_gen.add_argument("--out", required=True, help="output dataset path")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="optimize a dataset")
    p_solve.add_argument("--dataset", required=True,
                         help="JSON dataset or .g2o file")
    p_solve.add_argument("--init", default="tree",
                         choices=("gps", "tree", "identity"))
    p_solve.add_argument("--mode", default="reference",
                         choices=("reference", "distributed"))
    p_solve.add_argument("--out-dir", default="geopgo_out")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="seed for gps init noise")
    p_solve.add_argument("--cycles", type=int, default=200,
                         help="cycle budget for the consistency report")
    p_solve.add_argument("--message-log", default=None,
                         help="JSONL message log path (distributed mode "
                         "only; created before the first round)")
    p_solve.add_argument("--json", action="store_true",
                         help="print the summary JSON to stdout")
    p_solve.add_argument("--dt", type=float, default=SolverConfig.dt,
                         help="integration step (default %(default)s)")
    p_solve.add_argument("--stop-tol", type=float,
                         default=SolverConfig.stop_tol,
                         help="stop when the objective changes less than this")
    p_solve.add_argument("--max-iters", type=int,
                         default=SolverConfig.max_iters)
    p_solve.add_argument("--translation-mode",
                         default=SolverConfig.translation_mode,
                         choices=TRANSLATION_MODES)
    p_solve.set_defaults(func=cmd_solve)

    p_info = sub.add_parser("info", help="inspect a dataset")
    p_info.add_argument("--dataset", required=True)
    p_info.add_argument("--cycles", type=int, default=200)
    p_info.add_argument("--epsilon", type=float, default=0.01,
                        help="margin for the basin membership check")
    p_info.add_argument("--seed", type=int, default=0)
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_info)

    p_conv = sub.add_parser("convert", help="convert between g2o and JSON")
    p_conv.add_argument("--in", dest="infile", required=True)
    p_conv.add_argument("--out", dest="outfile", required=True)
    p_conv.add_argument("--symmetrize", action="store_true",
                        help="add missing reverse directions")
    p_conv.set_defaults(func=cmd_convert)
    return parser


def _log_level() -> str:
    """The ``GEOPGO_LOG`` level name, upper-cased; WARNING when unset.

    Raises:
        CliError: the value is not a logging level name.
    """
    name = os.environ.get("GEOPGO_LOG", "WARNING")
    if not isinstance(logging.getLevelName(name.upper()), int):
        raise CliError(f"GEOPGO_LOG: unknown level {name!r}; use DEBUG, "
                       "INFO, WARNING, ERROR or CRITICAL")
    return name.upper()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        logging.basicConfig(level=_log_level(),
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
