"""Unit tests for the command-line interface, driven in process."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocurv import catalog, cli, jets, verify
from isocurv.cli import SIZE_LIMITS, main
from isocurv.factorable import AffineFactorable, as_chart
from isocurv.geometry import Rect

import reference_cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_every_family(capsys):
    code, out, err = run_cli(capsys, "list")
    assert code == 0 and not err
    rows = [line for line in out.splitlines() if line.startswith(("AFS", "FS"))]
    assert len(rows) >= 24, f"only {len(rows)} family rows"
    assert any("as-printed" in row for row in rows), "retained forms are not flagged"


def test_list_output_is_pinned(capsys):
    # tests/data/isocurv_list.txt is the exact stdout recorded before the
    # catalog became a table of families run by one builder.
    expected = (Path(__file__).parent / "data" / "isocurv_list.txt").read_text(encoding="utf-8")
    code, out, err = run_cli(capsys, "list")
    assert code == 0 and not err
    assert out == expected


def test_grid_exports_are_pinned(capsys, tmp_path):
    # tests/data/grid21_sha256.txt holds the sha256 of every family's CSV
    # and OBJ export at --grid 21, recorded while point3d still evaluated
    # the height a second time; exporting the height the curvature route
    # already computed must not change a byte.
    table = (Path(__file__).parent / "data" / "grid21_sha256.txt").read_text(encoding="utf-8")
    pinned = {}
    for line in table.splitlines():
        fid, fmt, digest = line.split()
        pinned[fid, fmt] = digest
    assert {fid for fid, _ in pinned} == set(catalog.family_ids())
    for (fid, fmt), digest in pinned.items():
        path = tmp_path / f"{fid}.{fmt}"
        code, _, err = run_cli(
            capsys, "grid", "--family", fid, "--grid", "21", "--format", fmt, "--out", str(path)
        )
        assert code == 0 and not err, f"{fid} {fmt}: exit {code}, {err}"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, f"{fid} {fmt} changed"


def _verify_traffic():
    """The argv of every stdout that tests/data/verify41_sha256.txt pins, by key."""
    for fid in catalog.family_ids():
        yield f"verify:{fid}", ["verify", "--family", fid, "--grid", "41"]
    for kind in ("type-1", "type-2"):
        for seed in (0, 7, 42):
            argv = ["cross-validate", "--kind", kind, "--seed", str(seed)]
            yield f"cross-validate:{kind}:{seed}", argv
    for kind in ("afs2-minimal", "afs2-constant-K"):
        yield f"probe:{kind}", ["probe", "--kind", kind, "--count", "20"]


def test_verify_traffic_is_pinned(capsys):
    # tests/data/verify41_sha256.txt holds the sha256 of the stdout of
    # `verify --grid 41` on every family, 6 cross-validations and 2
    # probes, recorded while sample_grid still found each profile jet
    # through a per-point memo: walking the grid by rows and columns
    # must not change a byte.
    table = (Path(__file__).parent / "data" / "verify41_sha256.txt").read_text(encoding="utf-8")
    pinned = dict(line.split() for line in table.splitlines())
    got = {}
    for key, argv in _verify_traffic():
        main(argv)
        got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert len(got) == 38 and got.keys() == pinned.keys()
    changed = [key for key in got if got[key] != pinned[key]]
    assert not changed, f"reports changed: {changed}"


def test_verify_parabolic_family(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "verify",
        "--family", "AFS1.cmc.parabolic",
        "--param", "H0=2",
        "--param", "a=1",
        "--grid", "41",
        "--tol", "1e-9",
        "--out", str(out_path),
    )
    assert code == 0, f"stderr: {err}"
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["target"] == 2.0
    assert payload["quantity"] == "H"
    assert payload["grid"] == 41
    assert json.loads(out_path.read_text()) == payload, "file and stdout differ"


#: One argv for each command that takes a report's ``--out``.
_REPORT_ARGV = [
    ("verify", "--family", "FS1.min.xy", "--grid", "5"),
    ("cross-validate", "--kind", "type-1", "--points", "20", "--seed", "3"),
    ("probe", "--kind", "afs2-constant-K", "--count", "3", "--seed", "8"),
]


@pytest.mark.parametrize("argv", _REPORT_ARGV, ids=lambda argv: argv[0])
def test_report_file_holds_the_printed_bytes(capsys, tmp_path, argv):
    # --out receives exactly what the verb prints: the JSON and a newline.
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and not err, err
    assert out_path.read_bytes() == out.encode() and out.endswith("}\n")


def test_verify_as_printed_family_fails_but_reports(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "verify", "--family", "AFS1.min.osc.printed", "--out", str(out_path),
    )
    assert code == 1, f"expected failure exit, got {code} (stderr: {err})"
    payload = json.loads(out_path.read_text())
    assert payload["pass"] is False
    assert payload["max_abs_deviation"] > 0.01


def test_verify_builds_the_family_once(capsys, monkeypatch):
    builds = []
    for cls in {type(spec) for spec in catalog.REGISTRY.values()}:
        def counting(self, p, _builder=vars(cls)["builder"]):
            builds.append(self.id)
            return _builder(self, p)

        monkeypatch.setattr(cls, "builder", counting)
    families = ["AFS1.K.saddle", "AFS1.min.osc.printed", "FS2.K.integral"]
    for fid in families:
        code, out, err = run_cli(capsys, "verify", "--family", fid, "--grid", "5")
        assert code in (0, 1) and json.loads(out)["subject"] == fid, f"{fid}: {err}"
    assert builds == families, f"builds: {builds}"
    # expected_profile builds once, also a family without a derived
    # constant, so that it refuses what the builder refuses.
    catalog.expected_profile("FS2.min.ratio.printed")
    assert builds == families + ["FS2.min.ratio.printed"]


def test_non_finite_parameters_exit_2(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    for value in ("nan", "inf"):
        message = f"error: FS1.min.xy: parameter 'c1' must be finite, got {value}\n"
        code, out, err = run_cli(
            capsys, "verify", "--family", "FS1.min.xy", "--param", f"c1={value}"
        )
        assert (code, out, err) == (2, "", message)
        code, out, err = run_cli(
            capsys,
            "grid", "--family", "FS1.min.xy", "--param", f"c1={value}",
            "--format", "csv", "--out", str(out_path),
        )
        assert (code, out, err) == (2, "", message)
        assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # cos at the sheared argument y - x, which overflows to inf,
        # excludes every point.
        (
            ("--family", "AFS1.min.osc", "--param", "a=-1",
             "--domain", "x:-1e308..-5e307,y:1.5e308..1.7e308"),
            "constancy check needs at least 4 included samples, got 0",
        ),
        (
            ("--family", "FS2.K.integral", "--param", "c2=1e308"),
            "FS2.K.integral: constraint violated: radicand c2/t - K0/c1^2 must be finite "
            "on the profile range",
        ),
    ],
)
def test_verify_exits_2_on_non_finite_values(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "--grid", "5", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv, what",
    [
        (("verify", "--family", "AFS1.min.osc", "--grid", "5", "--tol"),
         "constancy check tolerance"),
        (("cross-validate", "--kind", "type-2", "--points", "8", "--tol"),
         "cross-validation tolerance"),
        (("probe", "--kind", "afs2-minimal", "--count", "1", "--floor"), "probe floor"),
        (("ode-check", "--ode", "afs1-minimal", "--steps", "10", "--tol"),
         "ode check tolerance"),
    ],
)
def test_a_tolerance_or_floor_that_is_negative_or_not_finite_exits_2(capsys, argv, what, value):
    # probe --floor -1 once reported 0 counterexamples and exited 0, and
    # verify --tol -1 reported a failure with exit 1.
    code, out, err = run_cli(capsys, *argv, value)
    message = f"error: {what} must be finite and at least 0, got {float(value)!r}\n"
    assert (code, out, err) == (2, "", message)


def _fail(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.mark.parametrize(
    "argv, target, message",
    [
        (
            ("probe", "--kind", "afs2-minimal", "--count", "10000", "--floor", "-1"),
            "isocurv.verify.draw_nonplanar_type2",
            "probe floor must be finite and at least 0, got -1.0",
        ),
        (
            ("cross-validate", "--family", "AFS2.flat.exp", "--tol", "-1"),
            "isocurv.catalog.build_family",
            "cross-validation tolerance must be finite and at least 0, got -1.0",
        ),
        (
            ("ode-check", "--ode", "afs2-cmc", "--param", "c1=abc"),
            "isocurv.verify.cmc_slope_profile",
            "afs2-cmc: parameter 'c1' must be a real number, got 'abc'",
        ),
        (
            ("ode-check", "--ode", "afs2-cmc", "--param", "c1=inf"),
            "isocurv.verify.cmc_slope_profile",
            "afs2-cmc: parameter 'c1' must be finite, got inf",
        ),
        (
            ("ode-check", "--ode", "afs2-cmc", "--param", "x=1"),
            "isocurv.verify.cmc_slope_profile",
            "afs2-cmc: unknown parameter 'x' (expected: H0, c1, c2, c3)",
        ),
    ],
    ids=["probe-floor", "cross-validate-tol", "ode-not-a-number", "ode-infinite", "ode-unknown"],
)
def test_bad_arguments_are_refused_before_any_work(capsys, monkeypatch, argv, target, message):
    # Each of these once drew its instances, built its family or
    # integrated its ODE first, and then exited 2 or failed with a text
    # that did not name the parameter.
    monkeypatch.setattr(target, _fail)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_unknown_family(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "FS9.not.here")
    assert (code, out, err) == (2, "", "error: unknown family id 'FS9.not.here'\n")


def test_verify_rejects_bad_parameter_syntax(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "FS1.min.xy", "--param", "c1"
    )
    assert code == 2 and "name=value" in err


_SIGN_TEXTS = ["-1.0", "1e0", "+1.0", "+", "-", " -1 ", "up"]
_C1_TEXTS = ["2", ".5", "-0.0", "nan", "inf", "abc", ""]


def _cross_validate(fid):
    """The report of ``cross-validate --family fid --points 5``, taken through the library."""
    return lambda params: verify.cross_validate(
        catalog.build_family(fid, **params), n_points=5, seed=0, tol=1e-10
    )


def _ode_check(params):
    """The report of ``ode-check --ode afs2-cmc``, taken through the library."""
    max_error = verify.ode_crosscheck("afs2-cmc", params)
    return verify.OdeReport("afs2-cmc", 1000, max_error, 1e-6, max_error <= 1e-6)


_FAMILY_ARGV = ("cross-validate", "--points", "5", "--family")
_PARAMETER_TEXTS = [
    *((_FAMILY_ARGV + ("FS2.cmc.sqrt",), "sign", t) for t in _SIGN_TEXTS),
    *((_FAMILY_ARGV + ("FS2.K.hyperbolic",), "sign", t) for t in _SIGN_TEXTS),
    *((_FAMILY_ARGV + ("FS1.min.xy",), "c1", t) for t in _C1_TEXTS),
    (_FAMILY_ARGV + ("FS1.flat.scale",), "fn", "quadratic"),
    (_FAMILY_ARGV + ("FS1.flat.scale",), "fn", "3"),
    (("ode-check", "--ode", "afs2-cmc"), "c1", "2"),
]


@pytest.mark.parametrize(
    "argv, name, text", _PARAMETER_TEXTS, ids=[f"{a[-1]}:{n}={t}" for a, n, t in _PARAMETER_TEXTS]
)
def test_the_cli_and_the_library_read_a_parameter_alike(capsys, argv, name, text):
    # A --param value reaches the catalog as its text, so the CLI prints
    # the report or the error that the library gives for that text.
    code, out, err = run_cli(capsys, *argv, "--param", f"{name}={text}")
    report_of = _ode_check if argv[0] == "ode-check" else _cross_validate(argv[-1])
    try:
        report = report_of({name: text})
    except catalog.ParameterError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert (code, out, err) == (0 if report.passed else 1, report.to_json() + "\n", "")


def test_verify_rejects_mismatched_domain_axes(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--family", "FS1.min.xy", "--domain", "u:0..1,v:0..1",
    )
    assert code == 2 and "axis" in err, f"exit {code}, stderr {err!r}"


@pytest.mark.parametrize("verb", ["verify", "grid"])
def test_a_domain_without_a_finite_grid_step_exits_2(capsys, tmp_path, verb):
    path = tmp_path / "grid.csv"
    argv = [verb, "--family", "FS1.min.xy", "--grid", "5", "--domain", "x:0..inf,y:0..1"]
    if verb == "grid":
        argv += ["--format", "csv", "--out", str(path)]
    message = "error: grid over 0.0..inf has a non-finite step: inf\n"
    assert run_cli(capsys, *argv) == (2, "", message)
    assert not path.exists()


def test_verify_with_custom_domain(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--family", "FS1.min.xy", "--domain", "x:-2..2,y:-2..2",
    )
    assert code == 0, f"stderr: {err}"
    assert json.loads(out)["domain"] == [[-2.0, 2.0], [-2.0, 2.0]]


def test_grid_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(
        capsys,
        "grid", "--family", "FS1.min.xy", "--grid", "7",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0, f"stderr: {err}"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,y,z,K,H"
    assert len(lines) == 1 + 49
    for line in lines[1:]:
        x, y, z, K, H = (float(field) for field in line.split(","))
        # 17 significant digits round-trip doubles exactly, so the parsed
        # height must reproduce the surface equation to the last bit.
        assert z == x * y, f"height mismatch in row {line!r}"
        assert K == -1.0 and H == 0.0, f"curvature mismatch in row {line!r}"


def test_grid_obj_mesh_structure(capsys, tmp_path):
    out_path = tmp_path / "mesh.obj"
    n = 5
    code, out, err = run_cli(
        capsys,
        "grid", "--family", "FS1.min.xy", "--grid", str(n),
        "--format", "obj", "--out", str(out_path),
    )
    assert code == 0, f"stderr: {err}"
    lines = out_path.read_text().splitlines()
    vertices = [line for line in lines if line.startswith("v ")]
    faces = [line for line in lines if line.startswith("f ")]
    assert len(vertices) == n * n, f"{len(vertices)} vertices"
    assert len(faces) == 2 * (n - 1) * (n - 1), f"{len(faces)} faces"
    for face in faces:
        indices = [int(tok) for tok in face.split()[1:]]
        assert len(indices) == 3
        assert all(1 <= idx <= n * n for idx in indices), f"index range: {face}"
    # fan over the full vertex set: every corner vertex participates
    used = {int(tok) for face in faces for tok in face.split()[1:]}
    assert {1, n, n * n - n + 1, n * n} <= used, "mesh misses a corner vertex"


def test_grid_refuses_incomplete_grids(capsys, tmp_path):
    # This window puts grid nodes on y = 0, where the ratio height blows up.
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(
        capsys,
        "grid", "--family", "FS2.min.ratio", "--domain", "y:-0.5..0.5,z:0.5..1.5",
        "--grid", "5", "--format", "csv", "--out", str(out_path),
    )
    assert code == 1 and "excluded" in err, f"exit {code}, stderr {err!r}"
    assert not out_path.exists(), "no file should be written for a broken grid"


#: A window past the end of FS2.K.integral's profile range, z_end = 2.67
#: at the default parameters: the grid line z = 3 lies outside it.
PAST_THE_PROFILE = ("--family", "FS2.K.integral", "--grid", "5", "--domain", "y:0.5..1.5,z:0.1..3")
PAST_THE_PROFILE_TEXT = (
    "f2 evaluated at 3.0: requires a height parameter inside the tabulated range"
)


def test_integral_family_excludes_heights_past_its_profile(capsys):
    # The inversion raised a ValueError, and the run ended with exit 2.
    code, out, err = run_cli(capsys, "verify", *PAST_THE_PROFILE)
    report = json.loads(out)
    assert (code, err, report["pass"]) == (0, "", True)
    assert report["excluded_points"] == [
        [[y, 3.0], PAST_THE_PROFILE_TEXT] for y in (0.5, 0.75, 1.0, 1.25, 1.5)
    ]


def test_grid_refuses_heights_past_the_integral_profile(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(
        capsys, "grid", *PAST_THE_PROFILE, "--format", "csv", "--out", str(out_path)
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: 5 grid points were excluded (first: (0.5, 3.0): {PAST_THE_PROFILE_TEXT}); "
        "refusing to export an incomplete grid\n"
    )
    assert not out_path.exists()


def _per_point_export(fid, domain, n, fmt):
    """The export's text formatted point by point from run.points, as it once was."""
    surface = catalog.build_family(fid)
    chart = as_chart(surface) if isinstance(surface, AffineFactorable) else surface
    run = verify.sample_grid(surface, domain=domain, n=n, subject=fid)
    assert not run.excluded
    if fmt == "csv":
        lines = ["x,y,z,K,H\n"]
        for p, w, K, H in zip(run.points, run.heights, run.K, run.H):
            lines.append("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (*chart.point3d(p, w), K, H))
    else:
        lines = [f"# {fid} sampled on a {n}x{n} grid\n"]
        for p, w in zip(run.points, run.heights):
            lines.append("v %.17g %.17g %.17g\n" % chart.point3d(p, w))
        for i in range(n - 1):
            for j in range(n - 1):
                a = i * n + j + 1
                b, c, d = a + 1, a + n, a + n + 1
                lines.append("f %d %d %d\nf %d %d %d\n" % (a, b, c, b, d, c))
    return "".join(lines).encode()


@pytest.mark.parametrize(
    "fid, axes, rect",
    [
        ("AFS1.min.osc", ("x", "y"), Rect((-1.3, 0.2), (-0.7, -0.1))),
        ("FS2.cmc.sqrt", ("y", "z"), Rect((-1.0, -0.2), (-1.5, -0.5))),
        ("FS2.K.integral", ("y", "z"), Rect((-1.5, -0.5), (0.1, 1.9))),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_grid_export_bytes_equal_per_point_formatting(capsys, tmp_path, fid, axes, rect, fmt):
    # The export formats each grid coordinate once per grid line and
    # writes a row at a time; the bytes are those of formatting every
    # point of run.points in full, negative coordinates included.
    n = 13
    domain = f"{axes[0]}:{rect.u[0]}..{rect.u[1]},{axes[1]}:{rect.v[0]}..{rect.v[1]}"
    path = tmp_path / f"grid.{fmt}"
    code, _, err = run_cli(
        capsys, "grid", "--family", fid, "--grid", str(n), "--domain", domain,
        "--format", fmt, "--out", str(path),
    )
    assert code == 0 and not err, err
    assert path.read_bytes() == _per_point_export(fid, rect, n, fmt)


@pytest.mark.parametrize("verb", ["verify", "grid"])
def test_build_time_overflow_exits_2(capsys, tmp_path, verb):
    # The type-2 regularity check overflows in exp; that refuses the
    # parameters (exit 2, no traceback, no file), not a failed check.
    argv = [verb, "--family", "AFS2.flat.exp", "--grid", "5", "--param", "c1=1e-09",
            "--param", "c2=50", "--param", "c3=-0.001", "--param", "a=50"]
    path = tmp_path / "grid.csv"
    if verb == "grid":
        argv += ["--format", "csv", "--out", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err == (
        "error: AFS2.flat.exp: evaluation failed on the default domain: math range error\n"
    )
    assert not path.exists()


@pytest.mark.parametrize("verb", ["verify", "grid"])
def test_a_default_domain_that_is_not_finite_exits_2(capsys, tmp_path, verb):
    # The grid once refused it with a grid text that named no family.
    path = tmp_path / "out.txt"
    argv = [verb, "--family", "AFS1.flat.pow", "--param", "a=-1.2e308", "--grid", "5",
            "--out", str(path)]
    if verb == "grid":
        argv += ["--format", "csv"]
    message = (
        "error: AFS1.flat.pow: constraint violated: "
        "default domain bounds and widths must be finite, got (0.5, 1.5) x (inf, inf)\n"
    )
    assert run_cli(capsys, *argv) == (2, "", message)
    assert not path.exists()


_UNDERFLOW = ("--param", "c1=1e-200")
_F1CONST = "AFS2.cmc.f1const: evaluation failed while building: float division by zero"


@pytest.mark.parametrize(
    "argv, message",
    [
        # c1 != 0 holds, but c1*c1 underflows to 0 and a build divides by it.
        (("verify", "--family", "AFS2.cmc.f1const", "--grid", "5", *_UNDERFLOW), _F1CONST),
        (("grid", "--family", "AFS2.cmc.f1const", "--grid", "5", *_UNDERFLOW), _F1CONST),
        (("cross-validate", "--family", "AFS2.cmc.f1const", *_UNDERFLOW), _F1CONST),
        (
            ("grid", "--family", "FS2.K.integral", "--grid", "3",
             "--param", "K0=1", "--param", "c1=1e-300"),
            "FS2.K.integral: evaluation failed while building: float division by zero",
        ),
        # The derived constant at the domain center is NaN, which JSON
        # cannot hold; the build refuses it before the grid is sampled.
        (
            ("verify", "--family", "AFS1.K.saddle", "--grid", "5",
             "--param", "K0=-1e300", "--param", "a=1e150"),
            "AFS1.K.saddle: evaluation failed at the domain center (0.5, 0.5): "
            "non-finite curvature value",
        ),
        (
            ("verify", "--family", "AFS1.min.plane", "--grid", "5",
             "--param", "a=5e-324", "--param", "c2=1e300", "--param", "c1=1e150"),
            "AFS1.min.plane: evaluation failed at the domain center (0.5, 0.5): "
            "non-finite curvature value",
        ),
        (
            ("verify", "--family", "FS1.flat.pow", "--grid", "5",
             "--param", "c2=1.0000000001", "--param", "c1=-1e300"),
            "FS1.flat.pow: evaluation failed at the domain center (1.0, 1.0): "
            "non-finite curvature value",
        ),
        (
            ("ode-check", "--ode", "afs2-cmc", *_UNDERFLOW),
            "afs2-cmc: evaluation failed: float division by zero",
        ),
        (
            ("ode-check", "--ode", "afs1-minimal", "--steps", "50",
             "--param", "c1=-1e300", "--param", "c2=-0"),
            "afs1-minimal: evaluation failed: math range error",
        ),
    ],
    ids=["verify", "grid", "cross-validate", "integral", "saddle", "plane", "pow",
         "ode-cmc", "ode-minimal"],
)
def test_arithmetic_errors_exit_2(capsys, tmp_path, argv, message):
    # Arithmetic that fails in a build or an ODE check, or a derived
    # constant that is not finite, refuses the parameters: exit 2, one
    # error line naming the family or ODE, no traceback and no file.
    path = tmp_path / "grid.csv"
    if argv[0] == "grid":
        argv += ("--format", "csv", "--out", str(path))
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "AFS1.min.osc", "--grid", "1001", "--tol", "nan"),
        ("cross-validate", "--kind", "type-1", "--points", "100000", "--tol", "nan"),
    ],
)
def test_a_bad_tolerance_exits_2_before_any_profile_is_evaluated(capsys, monkeypatch, argv):
    calls = []
    real = jets.eval_profile
    monkeypatch.setattr(jets, "eval_profile", lambda f, t: calls.append(t) or real(f, t))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and "tolerance" in err
    assert calls == []


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_export_streams_its_lines(capsys, tmp_path):
    # The export writes each grid row as soon as it formats it, so its
    # peak is that of building the family and sampling its grid, plus
    # one row's text: about 1.2x the peak of the build and the grid
    # here.  The family's quadrature table is part of both peaks: the
    # export builds the family, and so does the measured call.  A list
    # of the rows, joined before writing, peaked at about 5x.
    fid, n = "FS2.K.integral", 81
    grid_peak = _traced_peak(lambda: verify.sample_grid(catalog.build_family(fid), n=n))
    for fmt in ("csv", "obj"):
        path = tmp_path / f"grid.{fmt}"
        argv = ["grid", "--family", fid, "--grid", str(n), "--format", fmt, "--out", str(path)]
        codes = []
        peak = _traced_peak(lambda: codes.append(main(argv)))
        assert codes == [0], capsys.readouterr().err
        assert peak <= 1.5 * grid_peak, f"{fmt} export peaked at {peak} B, its grid at {grid_peak} B"


def test_cross_validate_family(capsys):
    code, out, err = run_cli(
        capsys,
        "cross-validate", "--family", "AFS1.K.saddle", "--points", "50", "--seed", "2",
    )
    assert code == 0, f"stderr: {err}"
    payload = json.loads(out)
    assert payload["pass"] is True and payload["grid"] == 50


def test_cross_validate_random_instance(capsys):
    code, out, err = run_cli(
        capsys, "cross-validate", "--kind", "type-2", "--points", "50", "--seed", "4"
    )
    assert code == 0, f"stderr: {err}"
    assert json.loads(out)["pass"] is True


def test_cross_validate_needs_factored_form(capsys):
    code, out, err = run_cli(capsys, "cross-validate", "--family", "FS2.K.integral")
    assert code == 2 and "factored form" in err, f"exit {code}, stderr {err!r}"


def test_cross_validate_refuses_param_without_family(capsys, monkeypatch):
    # A random --kind instance takes no parameter: --param once went
    # unread, and the run printed the report of the call without it.
    def fail(rng, kind):
        raise AssertionError("an instance was drawn before --param was checked")

    monkeypatch.setattr(cli, "random_instance", fail)
    code, out, err = run_cli(
        capsys, "cross-validate", "--kind", "type-2", "--seed", "7", "--param", "zzz=5"
    )
    assert (code, out) == (2, "")
    assert err == "error: --param needs --family: a random --kind instance takes none\n"


def test_probe_exits_clean_without_counterexamples(capsys):
    code, out, err = run_cli(
        capsys, "probe", "--kind", "afs2-minimal", "--count", "5", "--seed", "6"
    )
    assert code == 0, f"stderr: {err}"
    payload = json.loads(out)
    assert payload["counterexamples"] == 0 and len(payload["instances"]) == 5


def test_ode_check_passes_by_default(capsys):
    code, out, err = run_cli(capsys, "ode-check", "--ode", "afs2-cmc")
    assert code == 0, f"stderr: {err}"
    payload = json.loads(out)
    assert payload["pass"] is True and payload["max_error"] <= 1e-6


@pytest.mark.parametrize(
    "ode, param, message",
    [
        ("afs1-minimal", "c1=0", "afs1-minimal needs c1 != 0 and a != 0"),
        ("afs1-minimal", "a=0", "afs1-minimal needs c1 != 0 and a != 0"),
        ("afs2-cmc", "H0=0", "afs2-cmc needs H0 != 0 and c1 != 0"),
        ("afs2-cmc", "c1=0", "afs2-cmc needs H0 != 0 and c1 != 0"),
    ],
)
def test_ode_check_refuses_a_vanishing_parameter(capsys, ode, param, message):
    code, out, err = run_cli(capsys, "ode-check", "--ode", ode, "--param", param)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ode_check_never_prints_non_finite_json(capsys):
    # c1 = 1e100 overflows the integration to an infinite gap.
    code, out, err = run_cli(
        capsys, "ode-check", "--ode", "afs1-minimal", "--param", "c1=1e100"
    )
    assert code == 2 and "Infinity" not in out, f"exit {code}, stdout {out!r}"
    assert err.startswith("error:"), f"stderr {err!r}"


def test_ode_check_prints_its_report_through_the_report_serializer(capsys):
    code, out, err = run_cli(
        capsys, "ode-check", "--ode", "afs1-minimal", "--steps", "3", "--tol", "0"
    )
    max_error = verify.ode_crosscheck("afs1-minimal", None, None, 3)
    report = verify.OdeReport("afs1-minimal", 3, max_error, 0.0, False)
    assert (code, out, err) == (1, report.to_json() + "\n", "")
    assert out == (
        '{\n  "ode": "afs1-minimal",\n  "steps": 3,\n  "max_error": %r,\n'
        '  "tolerance": 0.0,\n  "pass": false\n}\n' % max_error
    )


def test_ode_check_with_explicit_range_and_steps(capsys):
    code, out, err = run_cli(
        capsys,
        "ode-check", "--ode", "afs1-minimal", "--range", "0..2", "--steps", "500",
    )
    assert code == 0, f"stderr: {err}"
    assert json.loads(out)["steps"] == 500


def test_ode_check_takes_a_negative_range_in_either_form(capsys):
    # argparse reads a value such as -1..0 as an option unless it is
    # attached with "="; -1..0 is afs2-cmc's default range.
    spaced = run_cli(capsys, "ode-check", "--ode", "afs2-cmc", "--range", "-1..0")
    attached = run_cli(capsys, "ode-check", "--ode", "afs2-cmc", "--range=-1..0")
    assert spaced == attached, f"{spaced!r} != {attached!r}"
    code, out, err = spaced
    assert code == 0 and not err, f"exit {code}, stderr {err!r}"
    assert json.loads(out)["pass"] is True
    assert spaced == run_cli(capsys, "ode-check", "--ode", "afs2-cmc")


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify")[0] == 2  # missing --family
    assert run_cli(capsys, "ode-check", "--ode", "bogus")[0] == 2
    assert run_cli(capsys, "grid", "--family", "FS1.min.xy")[0] == 2  # no format/out


def test_size_options_out_of_bounds_exit_2(capsys, tmp_path):
    # Each call is refused before any work, so an oversized value is
    # never run; the message names the option and its bounds.
    out = tmp_path / "never.csv"
    cases = [
        ("probe --kind afs2-minimal --count 0", "count", 0),
        ("probe --kind afs2-minimal --count -5 --grid 1", "grid", 1),
        ("probe --kind afs2-constant-K --count 10001", "count", 10001),
        ("verify --family FS1.min.xy --grid 1", "grid", 1),
        (f"grid --family FS1.min.xy --grid 1002 --format csv --out {out}", "grid", 1002),
        ("cross-validate --kind type-1 --points 0", "points", 0),
        ("cross-validate --kind type-2 --points 100001", "points", 100001),
        ("ode-check --ode afs1-minimal --steps 0", "steps", 0),
        ("ode-check --ode afs2-cmc --steps 100001", "steps", 100001),
    ]
    for command, name, value in cases:
        lo, hi = SIZE_LIMITS[name]
        message = f"error: --{name} must be between {lo} and {hi}, got {value}\n"
        assert run_cli(capsys, *command.split()) == (2, "", message), command
    assert SIZE_LIMITS == {
        "grid": (2, 1001), "count": (1, 10000), "points": (1, 100000), "steps": (1, 100000)
    }
    assert not out.exists()


def test_size_limits_admit_the_sizes_in_use():
    # Sizes used by the tests, the acceptance gate and the benchmark.
    in_use = {"grid": (2, 41, 201), "count": (1, 100), "points": (1, 100), "steps": (1, 1000)}
    for name, sizes in in_use.items():
        lo, hi = SIZE_LIMITS[name]
        assert all(lo <= n <= hi for n in sizes), (name, lo, hi)


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


class _Parsed(Exception):
    """Raised in place of the size check: ends ``main`` with the namespace it parsed."""


#: Argv whose parse the frozen full parser fixes: valid argv for each
#: command, help, argparse's errors, and argv that its top level reports
#: (no command, an unknown one, an option first, unrecognized arguments).
PARSE_CASES = [
    ("list",),
    ("verify", "--family", "AFS1.flat.exp"),
    (
        "verify", "--family", "AFS1.flat.exp", "--param", "c1=2", "--param", "a=0.5",
        "--domain", "x:0..1,y:0..1", "--grid", "5", "--tol", "1e-8", "--out", "r.json",
    ),
    ("verify", "--fam=AFS1.flat.exp", "--gr", "7"),
    ("grid", "--family", "FS1.min.xy", "--format", "obj", "--out", "g.obj"),
    ("grid", "--family", "FS1.min.xy", "--grid", "9", "--format", "csv", "--out", "g.csv"),
    ("cross-validate", "--family", "AFS1.flat.exp", "--param", "a=1"),
    ("cross-validate", "--kind", "type-2", "--points", "5", "--seed", "7", "--tol", "1e-9"),
    ("probe", "--kind", "afs2-minimal", "--count", "3", "--grid", "5", "--floor", "1e-3"),
    ("ode-check", "--ode", "afs1-minimal", "--steps", "10", "--tol", "1e-3"),
    ("ode-check", "--ode", "afs2-cmc", "--range", "-1..0"),
    ("ode-check", "--ode", "afs2-cmc", "--range=-1..0"),
    ("-h",),
    ("--help",),
    ("list", "-h"),
    ("verify", "-h"),
    ("grid", "--help"),
    ("cross-validate", "-h"),
    ("probe", "-h"),
    ("ode-check", "-h"),
    ("verify", "--family", "AFS1.flat.exp", "-h"),
    ("verify",),
    ("verify", "--family"),
    ("grid", "--family", "FS1.min.xy"),
    ("probe",),
    ("cross-validate",),
    ("verify", "--family", "AFS1.flat.exp", "--grid", "five"),
    ("probe", "--kind", "afs2-minimal", "--floor", "tiny"),
    ("grid", "--family", "FS1.min.xy", "--format", "ply", "--out", "g.ply"),
    ("probe", "--kind", "afs2-maximal"),
    ("cross-validate", "--family", "AFS1.flat.exp", "--kind", "type-1"),
    ("ode-check", "--ode", "afs2-cmc", "--range", "-x"),
    ("list", "extra"),
    ("list", "--", "extra"),
    ("verify", "--family", "AFS1.flat.exp", "--bogus"),
    ("verify", "--family", "AFS1.flat.exp", "extra", "--grid", "3"),
    ("probe", "--kind", "afs2-minimal", "--grid", "5", "--bogus=1", "extra"),
    (),
    ("bogus",),
    ("Verify", "--family", "AFS1.flat.exp"),
    ("--family", "AFS1.flat.exp", "verify"),
    ("-h", "verify"),
    ("--grid", "5"),
    ("verify", "--family", "AFS1.flat.exp", "--domain=--"),
    ("verify", "--family=", "--grid", "5", "--grid", "5"),
    ("cross-validate", "--kind=type-1", "--tol=-1", "--param", "a=1", "--param=c1=2"),
]


#: The PARSE_CASES that are well formed: read from the table, without argparse.
_WELL_FORMED = {
    ("list",),
    ("verify", "--family", "AFS1.flat.exp"),
    PARSE_CASES[2],
    ("grid", "--family", "FS1.min.xy", "--format", "obj", "--out", "g.obj"),
    ("grid", "--family", "FS1.min.xy", "--grid", "9", "--format", "csv", "--out", "g.csv"),
    ("cross-validate", "--family", "AFS1.flat.exp", "--param", "a=1"),
    ("cross-validate", "--kind", "type-2", "--points", "5", "--seed", "7", "--tol", "1e-9"),
    ("probe", "--kind", "afs2-minimal", "--count", "3", "--grid", "5", "--floor", "1e-3"),
    ("ode-check", "--ode", "afs1-minimal", "--steps", "10", "--tol", "1e-3"),
    ("ode-check", "--ode", "afs2-cmc", "--range", "-1..0"),
    ("ode-check", "--ode", "afs2-cmc", "--range=-1..0"),
    PARSE_CASES[-1],
}


def _fields(args) -> list:
    """A namespace's fields as sorted (name, repr) pairs, so that a NaN equals a NaN."""
    return sorted((name, repr(value)) for name, value in vars(args).items())


def _outcome(parse, argv):
    """``parse(argv)``'s exit code or namespace fields, then its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = (None, _fields(parse(argv)))
        except SystemExit as exc:
            got = (int(exc.code or 0), None)
        except _Parsed as exc:
            got = (None, _fields(exc.args[0]))
    return got + (out.getvalue(), err.getvalue())


def _through_main(argv):
    """``main(argv)``'s namespace, raised as _Parsed; or its exit code, as SystemExit."""
    def parsed(args):
        raise _Parsed(args)

    with mock.patch.object(cli, "_check_sizes", parsed):
        raise SystemExit(main(list(argv)))


@functools.cache
def _frozen_parser():
    """The frozen full parser, built once for all the argv that the tests parse with it."""
    return reference_cli.build_parser()


def _parser_state(obj, seen):
    """Every attribute of a parser, its actions, groups and subparsers, as a comparable value."""
    if isinstance(obj, (argparse._ActionsContainer, argparse.Action)):
        if id(obj) in seen:
            return seen[id(obj)]
        seen[id(obj)] = len(seen)
        return type(obj), {key: _parser_state(value, seen) for key, value in vars(obj).items()}
    if isinstance(obj, dict):
        return {key: _parser_state(value, seen) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_parser_state(value, seen) for value in obj)
    return obj


@pytest.fixture(scope="module", autouse=True)
def _frozen_parser_stays_as_built():
    # Sharing one parser is only the same check as building one per argv
    # if parsing leaves it unchanged.
    state = _parser_state(_frozen_parser(), {})
    yield
    assert _parser_state(_frozen_parser(), {}) == state, "parse_args changed the frozen parser"


def _frozen(argv):
    return _frozen_parser().parse_args(cli._attach_negative_ranges(list(argv)))


def _parses_as_the_frozen_parser(argv):
    """Require ``main`` to parse ``argv`` as the frozen full parser; return the fast path's parse."""
    want = _outcome(_frozen, argv)
    assert _outcome(_through_main, argv) == want
    args = cli._parse_well_formed(cli._attach_negative_ranges(list(argv)))
    if args is not None:
        assert want[:2] == (None, _fields(args))
    return args


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_the_cli_parses_as_the_frozen_full_parser(argv):
    # The same exit code, namespace, stdout and stderr; and only the
    # _WELL_FORMED argv skip argparse.
    assert (_parses_as_the_frozen_parser(argv) is not None) == (argv in _WELL_FORMED)


_FLAGS = sorted({flag for _, options, _ in cli._COMMANDS.values() for flag in options})
#: Values each option takes, by option; any option may also get one of _ODD_VALUES.
_GOOD_VALUES = {
    "--family": ("AFS1.flat.exp", "FS1.min.xy"),
    "--kind": ("type-1", "type-2", "afs2-minimal", "afs2-constant-K"),
    "--ode": ("afs1-minimal", "afs2-cmc"),
    "--format": ("csv", "obj"),
    "--param": ("c1=2", "a=0.5"),
    "--domain": ("x:0..1,y:0..1",),
    "--range": ("0..1", "-1..0"),
    "--out": ("r.json",),
}
_ODD_VALUES = (
    "7", "0", " 3 ", "\u0663", "1_0", "1e-8", "nan", "-inf", "five", "1.5", "ply", "Type-1",
    "-5", "-1..0", "-.5", "-x", "--", "-", "", "x y", "=", "-h",
)


@st.composite
def _argvs(draw):
    """A command, maybe its required options, then option tokens and strays."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    options = cli._COMMANDS.get(command, (None, {}))[1]
    own = list(options)
    argv = [command]
    for flag, spec in options.items():
        if (spec.get("required") or spec.get("one_of")) and draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_GOOD_VALUES[flag]))]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(own or _FLAGS) | st.sampled_from(_FLAGS))
        value = draw(st.sampled_from(_GOOD_VALUES.get(flag, ("7", "1e-8")) + _ODD_VALUES))
        spelled = draw(st.sampled_from([flag, flag, flag[: draw(st.integers(3, len(flag)))]]))
        form = draw(st.sampled_from(["space", "space", "equals", "bare", "stray"]))
        argv += {"space": [spelled, value], "equals": [f"{spelled}={value}"], "bare": [spelled],
                 "stray": [value]}[form]
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_every_argv_parses_as_the_frozen_full_parser(argv):
    _parses_as_the_frozen_parser(argv)


@st.composite
def _report_values(draw):
    text = st.text() | st.text(st.characters(min_codepoint=32, max_codepoint=126))
    scalars = (
        st.none() | st.booleans() | st.integers() | st.floats() | text
        | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, "\x7f", '"', "\\"])
    )
    return draw(st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=10,
    ))


@settings(max_examples=200, deadline=None)
@given(value=_report_values())
def test_the_report_writer_writes_what_json_dumps_writes(value):
    def written(dumps):
        try:
            return dumps(value)
        except ValueError as err:
            return f"ValueError: {err}"

    assert written(verify._dumps) == written(
        lambda v: json.dumps(v, indent=2, allow_nan=False))


@example(text="-\u0663..0")  # an Arabic-Indic digit: \d and str.isdecimal take it
@example(text="-.\uff15")
@given(text=st.tuples(st.sampled_from(["", "-", "-.", "--", "-..", ".", "-0"]), st.text(max_size=4))
       .map("".join))
def test_a_range_is_attached_where_the_pattern_it_replaced_matches(text):
    attached = bool(re.match(r"-\.?\d", text))
    assert cli._attach_negative_ranges(["--range", text]) == (
        [f"--range={text}"] if attached else ["--range", text])


def test_an_argv_that_is_not_well_formed_builds_the_full_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, err = run_cli(capsys, "verify", "--family", "AFS1.flat.exp", "--grid", "7")
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True
    assert built == []  # well formed: read from the table, no parser
    abbreviated = run_cli(capsys, "verify", "--fam=AFS1.flat.exp", "--gr", "7")
    assert abbreviated == (code, out, err)
    full = built.copy()
    built.clear()
    reference_cli.build_parser()
    assert full == built and len(built) == 7, (full, built)


#: Argv with an attached ``--``, which argparse before Python 3.13 reads as [].
_ATTACHED_DASHES = [
    "verify --family FS1.min.xy --grid=--",
    "verify --family FS1.min.xy --grid 5 --tol=--",
    "verify --family FS1.min.xy --grid 5 --domain=--",
    "verify --family FS1.min.xy --grid 5 --param=--",
    "verify --family=-- --grid 5",
    "cross-validate --kind type-1 --points=--",
    "ode-check --ode afs2-cmc --range=--",
    "grid --family FS1.min.xy --grid 5 --format csv --out=--",
]


@pytest.mark.parametrize("command", _ATTACHED_DASHES)
def test_an_attached_double_dash_is_refused(command, capsys, tmp_path, monkeypatch):
    # Each exits 2 with an error line.  Python 3.13 keeps "--" as the
    # value, so there the value's own check refuses it; --out=-- writes
    # the file "--" instead.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *command.split())
    assert "Traceback" not in err
    if command.endswith("--out=--"):
        assert code != 1
    else:
        assert code == 2 and "error: " in err, (code, err)


def test_module_entry_point():
    # The child imports the same isocurv as this process, whether it came
    # from PYTHONPATH or from pytest's pythonpath setting.
    src = str(Path(catalog.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "isocurv", "list"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, f"stderr: {proc.stderr}"
    assert "AFS1.K.saddle" in proc.stdout


def test_the_runtime_imports_only_the_standard_library():
    # -S leaves site-packages off sys.path, so the commands below can
    # import only the standard library and isocurv; every module they
    # load must be one of those.
    src = str(Path(catalog.__file__).resolve().parents[1])
    child = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
from isocurv.cli import main
for argv in (
    ["list"],
    ["verify", "--family", "FS2.K.integral", "--grid", "5"],
    ["cross-validate", "--kind", "type-2", "--points", "10"],
    ["probe", "--kind", "afs2-minimal", "--count", "2"],
    ["ode-check", "--ode", "afs2-cmc"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
allowed = {{*sys.stdlib_module_names, "isocurv", "__main__"}}
print(sorted({{name.partition(".")[0] for name in sys.modules}} - allowed))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_well_formed_call_imports_no_parser_or_json_module(tmp_path):
    # A fresh -S interpreter runs one well-formed argv of each command:
    # none may load argparse, json or re.  Help still comes from argparse,
    # with the frozen parser's bytes.
    src = str(Path(catalog.__file__).resolve().parents[1])
    child = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
from isocurv.cli import main
for argv in (
    ["list"],
    ["verify", "--family", "AFS1.min.osc", "--grid", "5", "--out", {str(tmp_path / "r.json")!r}],
    ["grid", "--family", "FS1.min.xy", "--grid", "3", "--format=obj", "--out", {str(tmp_path / "g")!r}],
    ["cross-validate", "--kind", "type-2", "--seed", "7", "--points", "10"],
    ["probe", "--kind", "afs2-minimal", "--count", "2"],
    ["ode-check", "--ode", "afs2-cmc", "--range", "-1..0", "--param", "H0=2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print([name for name in ("argparse", "json", "re") if name in sys.modules])
print(main(["-h"]))
"""
    env = {**os.environ, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=120, env=env
    )
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        help_text = _outcome(_frozen, ["-h"])[2]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"[]\n{help_text}0\n", "")


def test_a_closed_stdout_ends_the_run_quietly():
    # The reader takes one line and closes the pipe, as `isocurv list |
    # head -1` does.  The export is about 3 MB, far more than a pipe
    # holds, so the child is still writing when the pipe closes.
    src = str(Path(catalog.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["grid", "--family", "FS1.min.xy", "--grid", "201", "--format", "csv",
            "--out", "/dev/stdout"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "isocurv", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # 141 = 128 + SIGPIPE, what a shell reports for a command a closed pipe ends.
    assert (proc.wait(timeout=120), first, err) == (141, b"x,y,z,K,H\n", b"")


def test_a_stdout_closed_before_the_first_write_ends_the_run_quietly():
    # The pipe closes before the child has started, so the flush of the
    # listing at the end of main is the first write, and it fails.
    src = str(Path(catalog.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "isocurv", "list"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--domain", "y:0.5..1.5"), "--domain expects two axis ranges, got 'y:0.5..1.5'"),
        (
            ("--domain", "y0.5..1.5,z:0..1"),
            "--domain axis spec 'y0.5..1.5' expects name:lo..hi",
        ),
        (("--domain", "y:0.5,z:0..1"), "--domain axis y expects lo..hi, got '0.5'"),
        (
            ("--domain", "y:a..1.5,z:0..1"),
            "--domain axis y expects numeric bounds, got 'a..1.5'",
        ),
        (("--domain", "y:1.5..0.5,z:0..1"), "--domain axis y needs hi > lo, got '1.5..0.5'"),
    ],
)
def test_malformed_domains_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "--family", "FS2.K.integral", "--grid", "5", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0", "--range expects lo..hi, got '0'"),
        ("0..x", "--range expects numeric bounds, got '0..x'"),
        ("0..0", "--range needs hi > lo, got '0..0'"),
    ],
)
def test_malformed_ranges_exit_2(capsys, text, message):
    code, out, err = run_cli(capsys, "ode-check", "--ode", "afs2-cmc", "--range", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_grid_into_a_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "grid.csv"
    code, out, err = run_cli(
        capsys, "grid", "--family", "FS1.min.xy", "--grid", "3", "--format", "csv",
        "--out", str(path),
    )
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", _REPORT_ARGV, ids=lambda argv: argv[0])
def test_a_report_into_a_missing_directory_exits_2_and_prints_nothing(capsys, tmp_path, argv):
    # The file is written before the report is printed, so a failed
    # write leaves stdout empty, as it does for grid.
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not path.parent.exists()
