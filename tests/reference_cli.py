"""The command-line parser as it stood before the CLI described its commands as data.

``isocurv.cli`` describes each command once, in ``_COMMANDS``, reads a
well-formed argv from that table and builds its argparse parser from
it.  This module keeps the earlier ``_build_parser`` verbatim, frozen:
the top-level parser and all six subparsers, each option written out.
The tests parse a table of argv with it and with ``cli.main``
and require the same exit code, the same stdout and stderr bytes, and
for a valid argv the same parsed values.  Do not change an option here
to follow a change in the package.

The handlers are the package's own, so that a parsed namespace compares
equal field for field.
"""

import argparse

from isocurv import verify
from isocurv.cli import (
    _cmd_cross_validate,
    _cmd_grid,
    _cmd_list,
    _cmd_ode_check,
    _cmd_probe,
    _cmd_verify,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocurv",
        description="curvature checks for product surfaces of the isotropic 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the registered families")
    p_list.set_defaults(handler=_cmd_list)

    p_verify = sub.add_parser("verify", help="check a family's constancy claim on a grid")
    p_verify.add_argument("--family", required=True)
    p_verify.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_verify.add_argument("--domain", metavar="AX:LO..HI,AX:LO..HI")
    p_verify.add_argument("--grid", type=int, default=21)
    p_verify.add_argument("--tol", type=float, default=verify.DEFAULT_TOL)
    p_verify.add_argument("--out", metavar="PATH")
    p_verify.set_defaults(handler=_cmd_verify)

    p_grid = sub.add_parser("grid", help="export a sampled grid")
    p_grid.add_argument("--family", required=True)
    p_grid.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_grid.add_argument("--domain", metavar="AX:LO..HI,AX:LO..HI")
    p_grid.add_argument("--grid", type=int, default=21)
    p_grid.add_argument("--format", choices=("csv", "obj"), required=True)
    p_grid.add_argument("--out", required=True, metavar="PATH")
    p_grid.set_defaults(handler=_cmd_grid)

    p_cross = sub.add_parser(
        "cross-validate", help="compare specialized and generic curvature routes"
    )
    group = p_cross.add_mutually_exclusive_group(required=True)
    group.add_argument("--family")
    group.add_argument("--kind", choices=("type-1", "type-2"))
    p_cross.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_cross.add_argument("--points", type=int, default=100)
    p_cross.add_argument("--seed", type=int, default=0)
    p_cross.add_argument("--tol", type=float, default=1e-10)
    p_cross.add_argument("--out", metavar="PATH")
    p_cross.set_defaults(handler=_cmd_cross_validate)

    p_probe = sub.add_parser("probe", help="randomized nonexistence probe")
    p_probe.add_argument("--kind", choices=("afs2-minimal", "afs2-constant-K"), required=True)
    p_probe.add_argument("--count", type=int, default=100)
    p_probe.add_argument("--seed", type=int, default=42)
    p_probe.add_argument("--grid", type=int, default=11)
    p_probe.add_argument("--floor", type=float, default=verify.PROBE_FLOOR)
    p_probe.add_argument("--out", metavar="PATH")
    p_probe.set_defaults(handler=_cmd_probe)

    p_ode = sub.add_parser("ode-check", help="closed-form profile vs numeric integration")
    p_ode.add_argument("--ode", choices=("afs1-minimal", "afs2-cmc"), required=True)
    p_ode.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_ode.add_argument("--range", metavar="LO..HI")
    p_ode.add_argument("--steps", type=int, default=1000)
    p_ode.add_argument("--tol", type=float, default=1e-6)
    p_ode.set_defaults(handler=_cmd_ode_check)

    return parser
