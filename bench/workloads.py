"""The benchmark's workloads: inputs made from a seed, operations, output checks.

Each workload is a list of operations that one pass runs in order.  An
operation calls into the program once (``run``) and its output is then
checked by the benchmark (``check``), outside the timed region.  The
checks do not trust the program's own verdicts: numbers must be finite,
a report's ``pass`` must agree with its own deviation and tolerance,
exit codes must match the reference table in ``reference.json``, and
exported files must have the shape and values the inputs imply.

An :class:`Outcome` counts what an operation produced; a check that
finds something wrong appends a line to ``problems``, which makes the
operation fail.  Byte changes against the reference are counted in
``digest_changes``; they are not failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

FAMILY_GRID = 41
EXPORT_GRID = 201
EXPORT_FAMILY = "FS2.K.integral"
EXPORT_TOL = 1e-9
INSTANCES_PER_KIND = 100
CROSS_POINTS = 100
PROBE_GRID = 11
MOTION_GRID = 11
MOTION_EVERY = 10
ODE_STEPS = 1000
ODE_TOL = 1e-6
#: How ``cross_validate`` and ``motion_invariance_check`` refuse a surface
#: with too few usable points.  For a type-2 draw that is degenerate (the
#: regularity |a*f1'*f2 + f1*f2'| near zero almost everywhere) the refusal
#: is the designed answer, counted in ``Outcome.refusals``, not a failure.
REFUSAL = "needs at least 4 usable points"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    digest_changes: dict[str, int] = field(default_factory=dict)
    excluded: int = 0
    attempted: int = 0
    bytes_out: int = 0
    fail_verdicts: int = 0
    refusals: int = 0

    def expect(self, ok: bool, text: str) -> bool:
        if not ok:
            self.problems.append(text)
        return ok

    def changed(self, layer: str, digest: str, reference: str | None) -> None:
        if digest != reference:
            self.digest_changes[layer] = self.digest_changes.get(layer, 0) + 1


@dataclass
class Op:
    key: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _finite_json(text: str, out: Outcome, what: str) -> dict | None:
    """Parse a JSON report object, flagging NaN or infinities anywhere in it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        out.problems.append(f"{what}: report is not JSON ({err})")
        return None
    if not out.expect(isinstance(data, dict), f"{what}: report is not a JSON object"):
        return None

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float) and not math.isfinite(node):
            out.problems.append(f"{what}: non-finite number in report")

    walk(data)
    return data


def _check_report(data: dict, out: Outcome, what: str) -> bool:
    """The verdict a report states must follow from its own numbers."""
    dev, tol, passed = data.get("max_abs_deviation"), data.get("tolerance"), data.get("pass")
    if not out.expect(
        isinstance(dev, (int, float)) and isinstance(tol, (int, float)) and isinstance(passed, bool),
        f"{what}: report lacks max_abs_deviation, tolerance or pass",
    ):
        return False
    out.expect(passed == (dev <= tol), f"{what}: pass={passed} but deviation {dev!r} vs tolerance {tol!r}")
    if not passed:
        out.fail_verdicts += 1
    return passed


def _call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return rc, stdout.getvalue(), stderr.getvalue()


class CatalogAudit:
    """``isocurv verify --family F --grid 41`` for every family, in seeded order."""

    name = "catalog-audit"
    uses_cli = True

    def __init__(self, seed: int, reference: dict, spans, workdir: str) -> None:
        import isocurv.cli as cli

        self.cli = cli
        self.reference = reference["families"]
        self.rng = random.Random(seed)
        self.spans = spans
        self.families = sorted(self.reference)

    def pass_ops(self) -> list[Op]:
        order = self.rng.sample(self.families, len(self.families))
        return [self._op(fid) for fid in order]

    def _op(self, fid: str) -> Op:
        argv = ["verify", "--family", fid, "--grid", str(FAMILY_GRID)]

        def run():
            with self.spans.span("cli.main", family=fid):
                return _call_cli(self.cli, argv)

        return Op(fid, FAMILY_GRID * FAMILY_GRID, run, lambda res: self._check(fid, res))

    def _check(self, fid: str, res) -> Outcome:
        rc, stdout, stderr = res
        ref = self.reference[fid]
        out = Outcome(attempted=FAMILY_GRID * FAMILY_GRID, bytes_out=len(stdout.encode()))
        out.expect(rc == ref["exit_code"], f"{fid}: exit code {rc}, reference {ref['exit_code']}")
        out.expect(not stderr, f"{fid}: unexpected stderr {stderr[:200]!r}")
        data = _finite_json(stdout, out, fid)
        if data is not None:
            passed = _check_report(data, out, fid)
            out.expect(rc == (0 if passed else 1), f"{fid}: exit code {rc} disagrees with pass={passed}")
            out.expect(data.get("subject") == fid, f"{fid}: report subject {data.get('subject')!r}")
            out.expect(data.get("grid") == FAMILY_GRID, f"{fid}: report grid {data.get('grid')!r}")
            out.expect(data.get("quantity") == ref["quantity"], f"{fid}: quantity {data.get('quantity')!r}")
            excluded = data.get("excluded_points")
            if out.expect(isinstance(excluded, list), f"{fid}: excluded_points is not a list"):
                out.excluded = len(excluded)
        digest = sha256(stdout.encode())
        out.digests[fid] = digest
        out.changed("cli", digest, ref["digest"])
        out.changed("verify", digest, ref["digest"])
        return out


class IntegralExport:
    """``isocurv grid --family FS2.K.integral --grid 201`` as CSV, then as OBJ.

    The inputs are fixed; the seed changes nothing here.  The order is
    fixed too: which export comes first decides the peak resident memory,
    and a seeded order gave two values about 5% apart.
    """

    name = "integral-export"
    uses_cli = True

    def __init__(self, seed: int, reference: dict, spans, workdir: str) -> None:
        import isocurv.cli as cli

        self.cli = cli
        self.reference = reference["export"]
        self.spans = spans
        self.workdir = workdir
        self.points_digest: str | None = None

    def pass_ops(self) -> list[Op]:
        self.points_digest = None
        return [self._op("csv"), self._op("obj")]

    def _op(self, fmt: str) -> Op:
        path = os.path.join(self.workdir, f"export.{fmt}")
        argv = ["grid", "--family", EXPORT_FAMILY, "--grid", str(EXPORT_GRID),
                "--format", fmt, "--out", path]

        def run():
            with self.spans.span("cli.main", format=fmt):
                return _call_cli(self.cli, argv)

        return Op(fmt, EXPORT_GRID * EXPORT_GRID, run, lambda res: self._check(fmt, path, res))

    def _check(self, fmt: str, path: str, res) -> Outcome:
        rc, stdout, stderr = res
        n = EXPORT_GRID
        out = Outcome(attempted=n * n)
        out.expect(rc == 0, f"{fmt}: exit code {rc}")
        out.expect(not stderr, f"{fmt}: unexpected stderr {stderr[:200]!r}")
        expected = f"wrote {path}: {n * n} points from {EXPORT_FAMILY}\n"
        out.expect(stdout == expected, f"{fmt}: stdout {stdout[:200]!r}")
        # The file is read one line at a time and never held whole, so the
        # check adds little to the peak memory that the export itself sets.
        scan = _CsvScan(self.reference["derived_K"], out) if fmt == "csv" else _ObjScan(out)
        whole, size, last = hashlib.sha256(), 0, b""
        try:
            with open(path, "rb") as fh:
                for raw in fh:
                    whole.update(raw)
                    size += len(raw)
                    last = raw
                    if scan.ok:
                        scan.feed(raw.removesuffix(b"\n").decode("utf-8", "replace"))
            os.remove(path)
        except OSError as err:
            out.problems.append(f"{fmt}: cannot read the export ({err})")
            return out
        out.bytes_out = len(stdout.encode()) + size
        digest = whole.hexdigest()
        out.digests[fmt] = digest
        out.changed("cli", digest, self.reference["digests"][fmt])
        out.expect(last.endswith(b"\n"), f"{fmt}: export does not end with a newline")
        points = scan.finish()
        if points is not None:
            if self.points_digest is None:
                self.points_digest = points
            else:
                out.expect(points == self.points_digest, f"{fmt}: CSV and OBJ disagree on the points")
        return out


class _CsvScan:
    """Row-by-row check of a CSV export; keeps only the first grid row's z values.

    ``finish`` returns a digest of the x y z text for the OBJ comparison,
    or None when a row was unreadable.
    """

    def __init__(self, target: float, out: Outcome) -> None:
        self.target, self.out = target, out
        self.ok, self.rows, self.worst, self.lattice = True, 0, 0.0, True
        self.points = hashlib.sha256()
        self.row_y: float | None = None
        self.first_z: list[float] = []

    def feed(self, row: str) -> None:
        self.rows += 1
        if self.rows == 1:
            self.out.expect(row == "x,y,z,K,H", f"csv: header {row!r}")
            return
        cells = row.split(",")
        try:
            x, y, z, K, H = (float(c) for c in cells)
        except ValueError:
            self.out.problems.append(f"csv: malformed row {row[:120]!r}")
            self.ok = False
            return
        if not all(math.isfinite(v) for v in (x, y, z, K, H)):
            self.out.problems.append(f"csv: non-finite value in row {row[:120]!r}")
            self.ok = False
            return
        self.worst = max(self.worst, abs(K - self.target))
        self.points.update(" ".join(cells[:3]).encode() + b"\n")
        # (y, z) must run over an n x n grid, y slowest, both increasing.
        i, j = divmod(self.rows - 2, EXPORT_GRID)
        if i >= EXPORT_GRID:
            return
        if j == 0:
            self.lattice &= self.row_y is None or y > self.row_y
            self.row_y = y
        else:
            self.lattice &= y == self.row_y
        if i == 0:
            self.lattice &= j == 0 or z > self.first_z[-1]
            self.first_z.append(z)
        else:
            self.lattice &= z == self.first_z[j]

    def finish(self) -> str | None:
        n, out = EXPORT_GRID, self.out
        if not self.ok or not out.expect(
                self.rows == n * n + 1, f"csv: {self.rows} rows, expected {n * n + 1}"):
            return None
        out.expect(self.worst <= EXPORT_TOL,
                   f"csv: max |K - {self.target!r}| = {self.worst:.3e} > {EXPORT_TOL:g}")
        out.expect(self.lattice, "csv: the (y, z) columns are not a row-major grid")
        return self.points.hexdigest()


class _ObjScan:
    """Line-by-line check of an OBJ export; ``finish`` digests the vertices."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.ok, self.lines, self.verts, self.faces = True, 0, 0, 0
        self.points = hashlib.sha256()

    def feed(self, ln: str) -> None:
        self.lines += 1
        if self.lines == 1:
            self.out.expect(ln.startswith("# "), "obj: missing header comment")
        elif ln.startswith("v "):
            self.verts += 1
            cells = ln.split()[1:]
            try:
                ok = len(cells) == 3 and all(math.isfinite(float(c)) for c in cells)
            except ValueError:
                ok = False
            if not ok:
                self.out.problems.append(f"obj: bad vertex {ln[:120]!r}")
                self.ok = False
                return
            self.points.update(" ".join(cells).encode() + b"\n")
        elif ln.startswith("f "):
            self.faces += 1
            top = EXPORT_GRID * EXPORT_GRID
            idx = ln.split()[1:]
            if not (len(idx) == 3 and all(i.isdigit() and 1 <= int(i) <= top for i in idx)):
                self.out.problems.append(f"obj: bad face {ln[:120]!r}")
                self.ok = False

    def finish(self) -> str | None:
        n, out = EXPORT_GRID, self.out
        if not self.ok:
            return None
        out.expect(self.verts == n * n, f"obj: {self.verts} vertices, expected {n * n}")
        out.expect(self.faces == 2 * (n - 1) ** 2,
                   f"obj: {self.faces} faces, expected {2 * (n - 1) ** 2}")
        out.expect(self.lines == 1 + self.verts + self.faces, "obj: unexpected lines")
        return self.points.hexdigest()


class RandomInstances:
    """Seeded random type-1 and type-2 surfaces through the library checks."""

    name = "random-instances"
    uses_cli = False

    def __init__(self, seed: int, reference: dict, spans, workdir: str) -> None:
        from isocurv import factorable, geometry, verify
        from isocurv.rng import SplitMix64

        self.verify = verify
        self.spans = spans
        self.ode_reference = reference["ode"]
        self.rng = random.Random(seed)
        draws = SplitMix64(self.rng.getrandbits(64))
        self.type2 = factorable.TYPE2
        instances = [factorable.random_instance(draws, kind)
                     for kind in (factorable.TYPE1, factorable.TYPE2)
                     for _ in range(INSTANCES_PER_KIND)]
        self.items = []
        for i, inst in enumerate(instances):
            probed = inst.kind == factorable.TYPE2 and not factorable.is_planar(inst)
            motion = None
            if i % MOTION_EVERY == 0:
                u = self.rng.uniform
                motion = geometry.Motion(
                    angle=u(0.0, 2.0 * math.pi), tx=u(-2.0, 2.0), ty=u(-2.0, 2.0),
                    tz=u(-2.0, 2.0), shear_x=u(-1.0, 1.0), shear_y=u(-1.0, 1.0),
                )
            self.items.append((f"instance-{i:03d}", inst, self.rng.getrandbits(32), probed, motion))

    def pass_ops(self) -> list[Op]:
        # One operation checks ten type-1 and ten type-2 instances: draws
        # i..i+9 of each kind, so that every operation holds the same mix,
        # two motion checks among them.  Checked one instance at a time,
        # latencies fall in groups (about 6 ms for type-1, 25 ms for
        # type-2, more with a motion check) and the median sat on a seam
        # between them; checked in pairs, the tail was set by the slowest
        # one or two of a seed's ten motion pairs and spread 0.09 of its
        # median over ten seeds.
        half = len(self.items) // 2
        ops = [self._batch_op(k, [self.items[j] for i in range(k, k + MOTION_EVERY)
                                  for j in (i, half + i)])
               for k in range(0, half, MOTION_EVERY)]
        ops += [self._ode_op(kind) for kind in sorted(self.ode_reference)]
        self.rng.shuffle(ops)
        return ops

    def _batch_op(self, index: int, batch) -> Op:
        points = 0
        for _, _, _, probed, motion in batch:
            points += CROSS_POINTS
            points += 2 * PROBE_GRID**2 if probed else 0
            points += MOTION_GRID**2 if motion is not None else 0

        def run():
            with self.spans.span("batch", index=index):
                return [(item[0], self._instance_checks(*item)) for item in batch]

        def check(results) -> Outcome:
            out = Outcome()
            for key, reports in results:
                self._check_instance(key, reports, out)
            return out

        return Op(f"batch-{index:03d}", points, run, check)

    def _instance_checks(self, key, inst, cv_seed, probed, motion) -> list:
        v, spans = self.verify, self.spans
        reports = []

        def checked(what, call):
            try:
                reports.append((what, call()))
            except ValueError as err:
                if inst.kind != self.type2 or REFUSAL not in str(err):
                    raise
                reports.append((what, err))

        with spans.span("cross_validate", key=key):
            checked("cross", lambda: v.cross_validate(inst, n_points=CROSS_POINTS, seed=cv_seed))
        if probed:
            for kind in ("afs2-minimal", "afs2-constant-K"):
                with spans.span("probe_instances", key=key, kind=kind):
                    reports.append(("probe", v.probe_instances(kind, [inst], n=PROBE_GRID)))
        if motion is not None:
            with spans.span("motion_invariance_check", key=key):
                checked("motion", lambda: v.motion_invariance_check(inst, motion, n=MOTION_GRID))
        return reports

    @staticmethod
    def _check_instance(key: str, reports, out: Outcome) -> None:
        texts = []
        for what, report in reports:
            if isinstance(report, ValueError):
                # Only a type-2 draw may be refused; _instance_checks re-raises
                # any other ValueError, which fails the operation.
                texts.append(f"{what} refused: {report}")
                out.refusals += 1
                continue
            text = report.to_json()
            texts.append(text)
            data = _finite_json(text, out, f"{key} {what}")
            if data is None:
                continue
            if what == "probe":
                bad = [r for r in data["instances"] if r["bad"]]
                out.expect(data["count"] == 1 == len(data["instances"]), f"{key}: probe count")
                out.expect(data["counterexamples"] == len(bad), f"{key}: probe counterexamples")
                out.fail_verdicts += len(bad)
                continue
            _check_report(data, out, f"{key} {what}")
            n_excl = len(data["excluded_points"])
            if what == "cross":
                out.expect(data["grid"] + n_excl == CROSS_POINTS, f"{key}: cross-validation point count")
                out.attempted += CROSS_POINTS
            else:
                out.expect(data["grid"] == MOTION_GRID and n_excl <= MOTION_GRID**2,
                           f"{key}: motion grid {data['grid']!r}, {n_excl} excluded")
                out.attempted += MOTION_GRID**2
            out.excluded += n_excl
        out.digests[key] = sha256("\n".join(texts).encode())

    def _ode_op(self, kind: str) -> Op:
        def run():
            with self.spans.span("ode_crosscheck", ode=kind):
                return self.verify.ode_crosscheck(kind, None, None, ODE_STEPS)

        return Op(f"ode-{kind}", 0, run, lambda err: self._check_ode(kind, err))

    def _check_ode(self, kind: str, err) -> Outcome:
        out = Outcome()
        ok = isinstance(err, float) and math.isfinite(err)
        if out.expect(ok, f"ode {kind}: error {err!r} is not a finite float"):
            out.expect(err <= ODE_TOL, f"ode {kind}: error {err!r} > {ODE_TOL:g}")
        out.digests[f"ode-{kind}"] = digest = sha256(repr(err).encode())
        out.changed("verify", digest, sha256(self.ode_reference[kind].encode()))
        return out


WORKLOADS = {w.name: w for w in (CatalogAudit, IntegralExport, RandomInstances)}
