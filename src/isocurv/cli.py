"""Command-line front end.

Commands: ``list``, ``verify``, ``grid``, ``cross-validate``, ``probe`` and
``ode-check``, each described once in :data:`_COMMANDS`.  A well-formed
argv is read from that table and builds no parser (see
:func:`_parse_well_formed`); any other goes to the full argparse parser,
so help, usage and error texts are argparse's.

Exit codes: 0 success (and verification passed), 1 a check ran and
failed (reports are still written), 2 usage or parameter errors,
including a size option outside :data:`SIZE_LIMITS`, 141 (128 +
SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import catalog, verify
from .catalog import ParameterError, UnknownFamilyError
from .factorable import TYPE1, TYPE2, AffineFactorable, as_chart, random_instance
from .geometry import Rect, SurfaceChart
from .rng import SplitMix64

__all__ = ["main", "SIZE_LIMITS"]

#: Inclusive bounds on the size options, checked before any work starts.
#: The value columns of a ``GridRun`` hold grid² floats and
#: ``cross-validate`` keeps a value per point; ``ode-check`` keeps no
#: step, so the ``--steps`` cap bounds run time only.  The lower bounds
#: refuse runs that would check nothing and then report a pass.
SIZE_LIMITS = {
    "grid": (2, 1001),
    "count": (1, 10_000),
    "points": (1, 100_000),
    "steps": (1, 100_000),
}


def _parse_params(pairs) -> dict:
    """The ``name=value`` pairs as texts, which ``catalog._merged_params`` reads."""
    params = {}
    for item in pairs or ():
        name, sep, text = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects name=value, got {item!r}")
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
    """Refuse a list where an option takes one value, then a size outside
    :data:`SIZE_LIMITS`.  argparse before Python 3.13 reads ``--name=--`` as []."""
    for flag, spec in _COMMANDS[args.command][1].items():
        value = getattr(args, flag[2:])
        values = (value or ()) if spec.get("action") == "append" else (value,)
        if list in map(type, values):
            raise ParameterError(f"{flag} expects one value, got '--'")
    for name, (lo, hi) in SIZE_LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            raise ParameterError(f"--{name} must be between {lo} and {hi}, got {value}")


def _print_report(report, out: str | None) -> None:
    """Write a report's JSON with a final newline to ``out`` if given, then print it."""
    text = report.to_json()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


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
    # vs[k % n]).  point3d orders a row's (format, column) pairs: the row
    # coordinate's text, which needs no column, %s for the column texts
    # and %.17g for the heights.  So each coordinate is formatted once per
    # grid line, and each row goes to the file in one write as soon as it
    # is formatted: the export holds the sampled grid and one row's text.
    def rows(sep):
        for i, u in enumerate(us):
            row = slice(i * n, i * n + n)
            fields = point3d((("%.17g" % u, None), ("%s", v_texts)), ("%.17g", run.heights[row]))
            yield row, sep.join(f for f, _ in fields), [c for _, c in fields if c is not None]

    with open(args.out, "w", encoding="utf-8") as fh:
        write = fh.write
        if args.format == "csv":
            write("x,y,z,K,H\n")
            for row, spec, columns in rows(","):
                line = spec + ",%.17g,%.17g\n"
                write("".join(map(line.__mod__, zip(*columns, run.K[row], run.H[row]))))
        else:
            write(f"# {args.family} sampled on a {n}x{n} grid\n")
            for _, spec, columns in rows(" "):
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
    elif args.param:
        raise ParameterError("--param needs --family: a random --kind instance takes none")
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


_PARAM = {"--param": dict(action="append", metavar="NAME=VALUE")}
_FAMILY_GRID = {
    "--family": dict(required=True), **_PARAM,
    "--domain": dict(metavar="AX:LO..HI,AX:LO..HI"), "--grid": dict(type=int, default=21),
}

#: Each command once: its help line, its options in help order (each
#: flag with its ``add_argument`` keywords; ``one_of`` puts it in the
#: command's required mutually exclusive group), its handler.
_COMMANDS = {
    "list": ("list the registered families", {}, _cmd_list),
    "verify": ("check a family's constancy claim on a grid", {
        **_FAMILY_GRID, "--tol": dict(type=float, default=verify.DEFAULT_TOL),
        "--out": dict(metavar="PATH"),
    }, _cmd_verify),
    "grid": ("export a sampled grid", {
        **_FAMILY_GRID, "--format": dict(choices=("csv", "obj"), required=True),
        "--out": dict(required=True, metavar="PATH"),
    }, _cmd_grid),
    "cross-validate": ("compare specialized and generic curvature routes", {
        "--family": dict(one_of=True), "--kind": dict(choices=(TYPE1, TYPE2), one_of=True),
        **_PARAM, "--points": dict(type=int, default=100), "--seed": dict(type=int, default=0),
        "--tol": dict(type=float, default=1e-10), "--out": dict(metavar="PATH"),
    }, _cmd_cross_validate),
    "probe": ("randomized nonexistence probe", {
        "--kind": dict(choices=verify._PROBE_KINDS, required=True),
        "--count": dict(type=int, default=100), "--seed": dict(type=int, default=42),
        "--grid": dict(type=int, default=11),
        "--floor": dict(type=float, default=verify.PROBE_FLOOR), "--out": dict(metavar="PATH"),
    }, _cmd_probe),
    "ode-check": ("closed-form profile vs numeric integration", {
        "--ode": dict(choices=verify._ODE_DEFAULTS, required=True), **_PARAM,
        "--range": dict(metavar="LO..HI"), "--steps": dict(type=int, default=1000),
        "--tol": dict(type=float, default=1e-6),
    }, _cmd_ode_check),
}


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """``argv``'s namespace, equal to argparse's, if it is well formed, else None.

    Well formed: a command, then only its exact long options, as ``--name value``
    or ``--name=value``, each value of its option's type and choices and neither
    ``--`` nor a spaced value that starts with "-"; every required option,
    exactly one of a ``one_of`` group, no option twice but ``--param``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, handler = _COMMANDS[argv[0]]
    given: dict = {}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, text = arg.partition("=")
        spec = options.get(flag)
        if spec is None:
            return None  # such as -h, an abbreviation or a positional
        text = text if eq else next(rest, "-")
        if text == "--" or not eq and text.startswith("-"):
            return None  # argparse may take it for an option, or drop it
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        appends = spec.get("action") == "append"
        if value not in spec.get("choices", (value,)) or flag in given and not appends:
            return None  # a bad choice, or a repeat, which argparse lets win or refuses
        given[flag] = given.get(flag, []) + [value] if appends else value
    one_of = [flag in given for flag, spec in options.items() if spec.get("one_of")]
    missing = [flag for flag, spec in options.items() if spec.get("required") and flag not in given]
    if missing or sum(one_of) != bool(one_of):
        return None
    values = {flag[2:]: given.get(flag, spec.get("default")) for flag, spec in options.items()}
    return SimpleNamespace(**values, command=argv[0], handler=handler)


def _build_parser():
    """The full argparse parser: the top level, and per command a subparser with
    its options, and its name and handler as defaults."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="isocurv",
        description="curvature checks for product surfaces of the isotropic 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        group = None
        for flag, spec in options.items():
            if spec.get("one_of"):
                group = group or command.add_mutually_exclusive_group(required=True)
            target = group if spec.get("one_of") else command
            target.add_argument(flag, **{key: v for key, v in spec.items() if key != "one_of"})
        command.set_defaults(command=name, handler=handler)
    return parser


def _attach_negative_ranges(argv: list[str]) -> list[str]:
    """Rewrite ``--range -1..0`` as ``--range=-1..0``, which argparse accepts."""
    out: list[str] = []
    for arg in argv:
        # A value that starts with "-", an optional "." and a digit, such as
        # -1..0: argparse takes it for an option unless it is a plain number.
        negative = arg[:1] == "-" and arg[1:].removeprefix(".")[:1].isdecimal()
        if out and out[-1] == "--range" and negative:
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_ranges(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse_well_formed(argv) or _build_parser().parse_args(argv)
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
