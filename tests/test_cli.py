"""Unit tests for the command-line interface, driven in process."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from isocurv import catalog, verify
from isocurv.cli import SIZE_LIMITS, main


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
    # A family without a derived constant has no profile to build for.
    catalog.expected_profile("FS2.min.ratio.printed")
    assert builds == families


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


def test_verify_unknown_family(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "FS9.not.here")
    assert code == 2 and err.startswith("error:"), f"exit {code}, stderr {err!r}"


def test_verify_rejects_bad_parameter_syntax(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "FS1.min.xy", "--param", "c1"
    )
    assert code == 2 and "name=value" in err


def test_verify_rejects_mismatched_domain_axes(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--family", "FS1.min.xy", "--domain", "u:0..1,v:0..1",
    )
    assert code == 2 and "axis" in err, f"exit {code}, stderr {err!r}"


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


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_export_streams_its_lines(capsys, tmp_path):
    # The export writes each line as it formats it, so its peak is that
    # of the sampled grid plus a little; a list of every line, joined
    # before writing, held each line twice and peaked at 2.4x (CSV) and
    # 2.8x (OBJ) the grid's peak here.
    fid, n = "FS2.K.integral", 101
    surface = catalog.build_family(fid)
    grid_peak = _traced_peak(lambda: verify.sample_grid(surface, n=n))
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


def test_ode_check_never_prints_non_finite_json(capsys):
    # c1 = 1e100 overflows the integration to an infinite gap.
    code, out, err = run_cli(
        capsys, "ode-check", "--ode", "afs1-minimal", "--param", "c1=1e100"
    )
    assert code == 2 and "Infinity" not in out, f"exit {code}, stdout {out!r}"
    assert err.startswith("error:"), f"stderr {err!r}"


def test_ode_check_with_explicit_range_and_steps(capsys):
    code, out, err = run_cli(
        capsys,
        "ode-check", "--ode", "afs1-minimal", "--range", "0..2", "--steps", "500",
    )
    assert code == 0, f"stderr: {err}"
    assert json.loads(out)["steps"] == 500


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
