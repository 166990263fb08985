"""Command line front end for the study runners.

Every subcommand reads an optional JSON config file and applies flag
overrides on top; any solver failure exits with a nonzero status.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (ExperimentConfig, _located, build_system,
                          run_study, spectral_pencils, write_tables)
from .solver import PRECONDITIONER_KINDS
from .space import FICTITIOUS, INTERFACE

# study subcommand -> (problem, delta sweep, table name, help)
_STUDIES = {
    "interface-study": (INTERFACE, False, "interface_study",
                        "level sweep of the two-phase interface problem"),
    "delta-sweep": (INTERFACE, True, "delta_sweep",
                    "interface-position robustness at a fixed level"),
    "fd-study": (FICTITIOUS, False, "fd_study",
                 "level sweep of the fictitious-domain problem"),
}


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="JSON file with study settings")
    p.add_argument("--max-level", type=int, dest="max_level")
    p.add_argument("--x0", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p.add_argument("--deltas", type=float, nargs="+", metavar="D")
    p.add_argument("--delta-level", type=int, dest="delta_level")
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--preconditioners", nargs="+",
                   choices=PRECONDITIONER_KINDS, metavar="KIND")
    p.add_argument("--output-dir", dest="output_dir")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config \
        else ExperimentConfig()
    overrides = {}
    for name in ExperimentConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = tuple(value) if isinstance(value, list) \
                else value
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_study(args) -> int:
    problem, deltas, name, _ = _STUDIES[args.command]
    config = replace(_config_from_args(args), problem=problem)
    paths = write_tables(run_study(config, deltas=deltas),
                         config.output_dir, name)
    print(Path(paths[1]).read_text())
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_cond(args) -> int:
    """Condition numbers of the solved operator and its block-diagonal
    preconditioned variants at one level, each with its Lanczos step
    count.  An estimate that did not converge is a lower bound and is
    marked as one; one that fails names its label and level."""
    config = _config_from_args(args)
    level = config.max_level if args.level is None else args.level
    tsys = build_system(config, level=level)
    n0, n1 = tsys.A0.shape[0], tsys.A1.shape[0]
    print(f"problem={config.problem} level={level} N0={n0} N1={n1}")
    for label, estimate in spectral_pencils(tsys).items():
        with _located(label, level, None):
            est = estimate()
        gamma = "" if est.gamma is None else f"  gamma={est.gamma:.4e}"
        mark = "" if est.converged else "  lower bound: Lanczos not converged"
        print(f"{label:<20}= {est.kappa:.4e}  "
              f"[{est.lam_min:.4e}, {est.lam_max:.4e}]{gamma}  "
              f"steps={est.iterations}{mark}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutprec",
        description="Unfitted interface and fictitious-domain Poisson "
                    "studies with block-preconditioned CG.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, _, _, help_text) in _STUDIES.items():
        p = sub.add_parser(command, help=help_text)
        _add_config_options(p)
        p.set_defaults(func=_cmd_study)

    p = sub.add_parser("cond",
                       help="condition numbers of the assembled operator")
    _add_config_options(p)
    p.add_argument("--level", type=int, help="refinement level "
                   "(default: configured max level)")
    p.set_defaults(func=_cmd_cond)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
