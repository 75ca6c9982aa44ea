"""Command-line front end.

Commands: ``list``, ``verify``, ``grid``, ``cross-validate``, ``probe`` and
``ode-check``, each described once in :data:`_COMMANDS`.  A call builds only
its command's parser.

Exit codes: 0 success (and verification passed), 1 a check ran and
failed (reports are still written), 2 usage or parameter errors,
including a size option outside :data:`SIZE_LIMITS`, 141 (128 +
SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import catalog, verify
from .catalog import ParameterError, UnknownFamilyError
from .factorable import TYPE1, TYPE2, AffineFactorable, as_chart, random_instance
from .geometry import Rect, SurfaceChart
from .rng import SplitMix64

__all__ = ["main", "SIZE_LIMITS"]

#: Inclusive bounds on the size options, checked before any work starts.
#: The value columns of a ``GridRun`` hold grid² floats,
#: ``cross-validate`` keeps a value per point and ``ode-check`` one per
#: step, so every size has a cap; the lower bounds refuse runs that
#: would check nothing and then report a pass.
SIZE_LIMITS = {
    "grid": (2, 1001),
    "count": (1, 10_000),
    "points": (1, 100_000),
    "steps": (1, 100_000),
}


def _parse_params(pairs) -> dict:
    params = {}
    for item in pairs or ():
        name, sep, text = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects name=value, got {item!r}")
        try:
            params[name] = float(text)
        except ValueError:
            params[name] = text
    return params


def _parse_interval(text: str, label: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise ValueError(f"{label} expects lo..hi, got {text!r}")
    try:
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(f"{label} expects numeric bounds, got {text!r}") from None
    if not hi > lo:
        raise ValueError(f"{label} needs hi > lo, got {text!r}")
    return lo, hi


def _chart(surface) -> SurfaceChart:
    return as_chart(surface) if isinstance(surface, AffineFactorable) else surface


def _parse_domain(text: str, axes: tuple[str, str]) -> Rect:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--domain expects two axis ranges, got {text!r}")
    intervals = []
    for part, expected in zip(parts, axes):
        name, sep, rng = part.partition(":")
        if not sep:
            raise ValueError(f"--domain axis spec {part!r} expects name:lo..hi")
        if name.strip() != expected:
            raise ValueError(
                f"--domain axis {name.strip()!r} does not match this chart "
                f"(expected {expected!r})"
            )
        intervals.append(_parse_interval(rng.strip(), f"--domain axis {expected}"))
    return Rect(intervals[0], intervals[1])


def _sample(args, surface) -> verify.GridRun:
    """``surface`` sampled on ``--grid``'s grid over ``--domain``, or over its own domain."""
    domain = _parse_domain(args.domain, _chart(surface).axes()) if args.domain else None
    return verify.sample_grid(surface, domain=domain, n=args.grid, subject=args.family)


def _check_sizes(args) -> None:
    for name, (lo, hi) in SIZE_LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            raise ParameterError(f"--{name} must be between {lo} and {hi}, got {value}")


def _print_report(report, out: str | None) -> None:
    """Print a report's JSON, then write it with a final newline to ``out`` if given."""
    text = report.to_json()
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_list(args) -> int:
    header = (
        f"{'id':<24} {'claim':<8} {'claimed':>12} {'derived':>14} {'status':<11} formula"
    )
    print(header)
    print("-" * len(header))
    for fid in catalog.family_ids():
        spec = catalog.get_family(fid)
        profile = catalog.expected_profile(fid)
        derived = "none" if profile.derived_value is None else f"{profile.derived_value:.6g}"
        status = "as-printed" if spec.as_printed else "-"
        print(
            f"{fid:<24} {spec.claim:<8} {profile.claimed_value:>12.6g} "
            f"{derived:>14} {status:<11} {spec.formula}"
        )
    return 0


def _cmd_verify(args) -> int:
    verify._require_finite_nonnegative("constancy check tolerance", args.tol)
    params = _parse_params(args.param)
    spec = catalog.get_family(args.family)
    surface, profile = catalog.build_with_profile(args.family, **params)
    quantity = catalog.quantity_for_claim(profile.claim)
    run = _sample(args, surface)
    notes = spec.notes
    if profile.derived_value is None:
        target = profile.claimed_value
        notes = f"{notes}; no constant derives from this construction, targeting the claim"
    else:
        target = profile.derived_value
        if abs(profile.derived_value - profile.claimed_value) > args.tol:
            notes = (
                f"{notes}; claimed {quantity} = {profile.claimed_value:g} but direct "
                f"differentiation gives {profile.derived_value:.12g}"
            )
    report = verify.check_constancy(
        run, target=target, tol=args.tol, quantity=quantity, subject=args.family, notes=notes
    )
    _print_report(report, args.out)
    return 0 if report.passed else 1


def _vertex_rows(point3d, us, v_texts, heights, sep):
    """Per grid row: its slice of the grid columns, a vertex format and the format's columns.

    ``point3d`` only permutes its arguments, so on the row coordinate's
    text, the column texts ``v_texts`` and the row's heights it gives
    the vertex fields in (x, y, z) order.  The format joins them with
    ``sep``: the row text as it is, ``%s`` for the column text and
    ``%.17g`` for the height, and its columns are those two sequences
    in the same order.  ``%.17g`` is deterministic, so a vertex reads
    as it does formatted point by point.
    """
    n = len(v_texts)
    for i, u in enumerate(us):
        row = slice(i * n, i * n + n)
        fields = point3d(("%.17g" % u, v_texts), heights[row])
        spec = sep.join(
            f if f.__class__ is str else "%s" if f is v_texts else "%.17g" for f in fields
        )
        yield row, spec, [f for f in fields if f.__class__ is not str]


def _cmd_grid(args) -> int:
    params = _parse_params(args.param)
    surface = catalog.build_family(args.family, **params)
    run = _sample(args, surface)
    if run.excluded:
        first_point, first_reason = run.excluded[0]
        print(
            f"error: {len(run.excluded)} grid points were excluded "
            f"(first: {first_point!r}: {first_reason}); refusing to export an incomplete grid",
            file=sys.stderr,
        )
        return 1
    point3d = _chart(surface).point3d
    n = run.n
    us, vs = run.domain.coordinates(n)
    v_texts = ["%.17g" % v for v in vs]
    # The grid has no exclusions, so its k-th point is (us[k // n],
    # vs[k % n]): each coordinate is formatted once per grid line, and
    # each grid row goes to the file in one write as soon as it is
    # formatted, so the export holds the sampled grid and one row's text.
    with open(args.out, "w", encoding="utf-8") as fh:
        write = fh.write
        if args.format == "csv":
            write("x,y,z,K,H\n")
            for row, spec, columns in _vertex_rows(point3d, us, v_texts, run.heights, ","):
                line = spec + ",%.17g,%.17g\n"
                write("".join(map(line.__mod__, zip(*columns, run.K[row], run.H[row]))))
        else:
            write(f"# {args.family} sampled on a {n}x{n} grid\n")
            for _, spec, columns in _vertex_rows(point3d, us, v_texts, run.heights, " "):
                write("".join(map(f"v {spec}\n".__mod__, zip(*columns))))
            # Two triangles per cell, whose first corner is vertex a =
            # i*n + j + 1 (rows i, columns j, both up to n - 2).
            for first in range(1, n * (n - 1), n):
                a = range(first, first + n - 1)
                b = range(first + 1, first + n)
                c = range(first + n, first + 2 * n - 1)
                d = range(first + n + 1, first + 2 * n)
                write("".join(map("f %d %d %d\nf %d %d %d\n".__mod__, zip(a, b, c, b, d, c))))
    print(f"wrote {args.out}: {n * n} points from {args.family}")
    return 0


def _cmd_cross_validate(args) -> int:
    verify._require_finite_nonnegative("cross-validation tolerance", args.tol)
    if args.family:
        params = _parse_params(args.param)
        instance = catalog.build_family(args.family, **params)
        if not isinstance(instance, AffineFactorable):
            raise ParameterError(
                f"{args.family} does not expose the factored form needed for cross-validation"
            )
        point_seed = args.seed
    else:
        instance = random_instance(SplitMix64(args.seed), args.kind)
        point_seed = args.seed + 1
    report = verify.cross_validate(
        instance, n_points=args.points, seed=point_seed, tol=args.tol
    )
    _print_report(report, args.out)
    return 0 if report.passed else 1


def _cmd_probe(args) -> int:
    report = verify.probe_nonexistence(
        args.kind, count=args.count, seed=args.seed, n=args.grid, floor=args.floor
    )
    _print_report(report, args.out)
    return 0 if report.counterexamples == 0 else 1


def _cmd_ode_check(args) -> int:
    verify._require_finite_nonnegative("ode check tolerance", args.tol)
    params = _parse_params(args.param)
    trange = _parse_interval(args.range, "--range") if args.range else None
    max_error = verify.ode_crosscheck(args.ode, params or None, trange, args.steps)
    report = verify.OdeReport(args.ode, args.steps, max_error, args.tol, max_error <= args.tol)
    _print_report(report, None)
    return 0 if report.passed else 1


def _family_grid_options(p: argparse.ArgumentParser) -> None:
    """The options ``verify`` and ``grid`` share: a family and its grid."""
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--domain", metavar="AX:LO..HI,AX:LO..HI")
    p.add_argument("--grid", type=int, default=21)


def _verify_options(p: argparse.ArgumentParser) -> None:
    _family_grid_options(p)
    p.add_argument("--tol", type=float, default=verify.DEFAULT_TOL)
    p.add_argument("--out", metavar="PATH")


def _grid_options(p: argparse.ArgumentParser) -> None:
    _family_grid_options(p)
    p.add_argument("--format", choices=("csv", "obj"), required=True)
    p.add_argument("--out", required=True, metavar="PATH")


def _cross_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family")
    group.add_argument("--kind", choices=(TYPE1, TYPE2))
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", metavar="PATH")


def _probe_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=verify._PROBE_KINDS, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--floor", type=float, default=verify.PROBE_FLOOR)
    p.add_argument("--out", metavar="PATH")


def _ode_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ode", choices=verify._ODE_DEFAULTS, required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--range", metavar="LO..HI")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)


#: Each command once: its help line, a function that adds its options, its handler.
_COMMANDS = {
    "list": ("list the registered families", lambda p: None, _cmd_list),
    "verify": ("check a family's constancy claim on a grid", _verify_options, _cmd_verify),
    "grid": ("export a sampled grid", _grid_options, _cmd_grid),
    "cross-validate": (
        "compare specialized and generic curvature routes", _cross_options, _cmd_cross_validate
    ),
    "probe": ("randomized nonexistence probe", _probe_options, _cmd_probe),
    "ode-check": ("closed-form profile vs numeric integration", _ode_options, _cmd_ode_check),
}


def _command_parser(name: str, parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """``parser`` with command ``name``'s options, and its name and handler as defaults."""
    _, add_options, handler = _COMMANDS[name]
    add_options(parser)
    parser.set_defaults(command=name, handler=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="isocurv",
        description="curvature checks for product surfaces of the isotropic 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, with its command's parser alone if it can."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"isocurv {argv[0]}")
        args, unrecognized = _command_parser(argv[0], parser).parse_known_args(argv[1:])
        if not unrecognized:  # else the full parser reports them, under its own usage
            return args
    return _build_parser().parse_args(argv)


#: A value that starts with "-" and a digit, such as the range -1..0:
#: argparse takes it for an option unless it is a plain negative number.
_NEGATIVE_START = re.compile(r"-\.?\d")


def _attach_negative_ranges(argv: list[str]) -> list[str]:
    """Rewrite ``--range -1..0`` as ``--range=-1..0``, which argparse accepts."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--range" and _NEGATIVE_START.match(arg):
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_ranges(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_sizes(args)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`isocurv list | head -1`).  As the Python
        # docs advise (signal module, "Note on SIGPIPE"), send the rest to
        # devnull, so that the flush at exit cannot fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UnknownFamilyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
