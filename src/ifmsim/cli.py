"""Command-line front end.

Subcommands: ``run`` (one experiment), ``sweep-cycles`` / ``sweep-absorption``
/ ``grid`` (CSV parameter sweeps), ``oracle`` (Monte Carlo cross-check), and
``verify`` (the named invariant suite).  Output goes to stdout or, with
``--out``, to a file; all output is deterministic byte for byte for identical
flags and seed.  Exit codes: 0 success, 1 verification/concordance failure,
2 usage error, an ``--out`` path or a stdout that cannot be written (a
pipe closed early, say), or an input the evaluation rejects with
``ValueError``.

Output is written as a sequence of text chunks.  The sweep commands
evaluate and check every row before the first chunk exists, so a rejected
input writes nothing and creates no ``--out`` file; then they write one
chunk of CSV lines per block of rows, and never hold the whole table.

The argparse tree is built once per process.  ``build_parser()`` returns a
shallow copy of it, so a caller may set attributes on the parser it gets
without touching the shared tree, but must not add arguments to it.
Parsing reads the tree and never changes it, and each subcommand's ``csv``
looks up ``run_single``, ``to_csv`` and the sweep helpers as module
globals when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import math
import os
import sys

from . import verify as verify_mod
from .evolution import CycleConfig, ParticleModel, evolve
from .oracle import TrajectoryConfig, compare, estimate
from .sweep import _absorption_grid, _cycle_counts, _Sweep, format_real, run_single, to_csv

__all__ = ["main"]

_Z_LIMIT = 4.0


def _absorption_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"absorption must be in [0, 1], got {text}")
    return v


def _theta_arg(text: str):
    if text == "auto":
        return None
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"theta must be 'auto' or radians, got {text!r}"
        ) from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("theta must be finite")
    return v


def _int_arg(lo: int, hi: int | None = None, what: str | None = None):
    """argparse type for an integer in [lo, hi); no upper limit when hi is None.

    An out-of-range value is reported as `what`, or as "must be >= lo, got
    TEXT" when `what` is None.
    """

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if v < lo or (hi is not None and v >= hi):
            raise argparse.ArgumentTypeError(what or f"must be >= {lo}, got {text}")
        return v

    return parse


def _add_common(p: argparse.ArgumentParser, *, absorption: bool = True) -> None:
    p.add_argument(
        "--model",
        choices=[m.value for m in ParticleModel],
        default=ParticleModel.COHERENT.value,
        help="particle model in the interrogated arm (default: coherent)",
    )
    if absorption:
        p.add_argument(
            "--absorption",
            type=_absorption_arg,
            default=1.0,
            metavar="A",
            help="per-cycle absorption probability in [0, 1] (default: 1.0)",
        )
    p.add_argument(
        "--theta",
        type=_theta_arg,
        default=None,
        metavar="RAD",
        help="per-cycle rotation: 'auto' (pi/2N, the default) or radians",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write output to PATH instead of stdout",
    )


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks, in order, to stdout or to the file `out`.

    A write that fails, to an unwritable path or a closed pipe, is one
    ``ifmsim: error:`` line on stderr and exit 2.
    """
    try:
        if out is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            # newline='' keeps the LF line terminators exactly as written
            with open(out, "w", newline="") as f:
                f.writelines(chunks)
    except OSError as e:
        if out is None:
            # the interpreter flushes stdout again at exit: send what is left to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            # a stdout with no fd, or a closed one, has nothing to redirect
            with contextlib.suppress(OSError, ValueError):
                os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        name = "stdout" if out is None else out
        sys.stderr.write(f"ifmsim: error: cannot write {name}: {e.strerror or e}\n")
        raise SystemExit(2) from None


def _cmd_csv(args) -> int:
    """The CSV subcommands; each parser sets `csv`, args -> checked CSV text chunks."""
    _emit(args.csv(args), args.out)
    return 0


def _cmd_oracle(args) -> int:
    cfg = CycleConfig(model=args.model, a=args.absorption, n=args.cycles, theta=args.theta)
    exact, _ = evolve(cfg)
    est = estimate(TrajectoryConfig(cycle=cfg, trajectories=args.trajectories, seed=args.seed))
    z = compare(est, exact)
    lines = ["outcome,count,p_hat,p_exact,stderr,z"]
    for i, name in enumerate(("h", "v", "b")):
        lines.append(
            ",".join(
                (
                    name,
                    str(est.counts[i]),
                    format_real(est.p_hat[i]),
                    format_real(exact[i]),
                    format_real(est.stderr[i]),
                    format_real(float(z[i])),
                )
            )
        )
    max_z = float(max(abs(float(v)) for v in z))
    verdict = "PASS" if max_z <= _Z_LIMIT else "FAIL"
    lines.append(f"{verdict} max |z| = {format_real(max_z)} (tol {format_real(_Z_LIMIT)})")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if max_z <= _Z_LIMIT else 1


def _cmd_verify(args) -> int:
    results = verify_mod.run_checks()
    _emit([verify_mod.render_report(results)], args.out)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; build_parser() hands out copies."""
    parser = argparse.ArgumentParser(
        prog="ifmsim",
        description=(
            "Simulate interaction-free interrogation of a partially absorbing "
            "particle in an iterated polarization interferometer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate one configuration, emit one CSV row")
    _add_common(p)
    p.add_argument("--cycles", type=_int_arg(1), required=True, metavar="N",
                   help="number of interrogation cycles")
    p.set_defaults(func=_cmd_csv, csv=lambda args: [to_csv([run_single(
        CycleConfig(model=args.model, a=args.absorption, n=args.cycles, theta=args.theta)
    )])])

    p = sub.add_parser("sweep-cycles", help="sweep N = 1..max at fixed absorption")
    _add_common(p)
    p.add_argument("--cycles", type=_int_arg(1), default=250, metavar="N",
                   help="maximum cycle count (default: 250)")
    p.set_defaults(func=_cmd_csv, csv=lambda args: _Sweep(
        [args.absorption], _cycle_counts(args.cycles), args.model, args.theta
    ).csv())

    p = sub.add_parser("sweep-absorption", help="sweep absorption 0..1 at fixed N")
    _add_common(p, absorption=False)
    p.add_argument("--cycles", type=_int_arg(1), default=10, metavar="N",
                   help="cycle count (default: 10; 50 and 250 are the other standard regimes)")
    p.add_argument("--steps", type=_int_arg(2), default=101, metavar="K",
                   help="number of absorption grid points including both endpoints (default: 101)")
    p.set_defaults(func=_cmd_csv, csv=lambda args: _Sweep(
        _absorption_grid(args.steps), [args.cycles], args.model, args.theta
    ).csv())

    p = sub.add_parser("grid", help="full absorption x cycles grid for heatmaps")
    _add_common(p, absorption=False)
    p.add_argument("--cycles", type=_int_arg(1), default=250, metavar="N",
                   help="maximum cycle count (default: 250)")
    p.add_argument("--steps", type=_int_arg(2), default=21, metavar="K",
                   help="number of absorption grid points (default: 21)")
    p.set_defaults(func=_cmd_csv, csv=lambda args: _Sweep(
        _absorption_grid(args.steps), _cycle_counts(args.cycles), args.model, args.theta
    ).csv())

    p = sub.add_parser("oracle", help="Monte Carlo cross-check of one configuration")
    _add_common(p)
    p.add_argument("--cycles", type=_int_arg(1), required=True, metavar="N",
                   help="number of interrogation cycles")
    p.add_argument("--trajectories", type=_int_arg(1), default=100000, metavar="M",
                   help="number of Monte Carlo trajectories (default: 100000)")
    p.add_argument("--seed", type=_int_arg(0, 2**64, "seed must be in [0, 2^64)"),
                   default=0, metavar="S",
                   help="RNG seed; identical seeds reproduce output byte for byte (default: 0)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.set_defaults(func=_cmd_verify)

    return parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: a shallow copy of the one tree built per process.

    Setting an attribute on the copy (a wrapped ``parse_args``, say) leaves
    the shared tree as it was.  Its argument groups and subparsers are the
    shared ones, so do not add arguments to it.
    """
    return copy.copy(_parser())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        # an input the engine rejects is a usage error, reported like an unwritable --out
        sys.stderr.write(f"ifmsim: error: {e}\n")
        raise SystemExit(2) from None
