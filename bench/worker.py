"""One workload in a fresh interpreter: set up, then run passes in a closed loop.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 -I bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               [--setup-only] [--spans PATH]

The loop has a single caller: each operation starts when the previous
one has returned and been checked.  Passes run whole until ``--seconds``
have gone by.  With ``--trace 1`` passes alternate between untraced and
traced (under cProfile), at least one of each, and the per-layer
numbers come from the traced ones.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# ``python3 -I`` puts neither this directory nor ``src/`` on the path.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from hostspeed import HostSpeed  # noqa: E402


class Spans:
    """In-memory spans (name, start, end, parent); written out at the end."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, time.perf_counter(), None, attrs]
        self.records.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    def total(self, name: str, since: int = 0) -> float:
        return sum(r[4] - r[3] for r in self.records[since:] if r[2] == name and r[4] is not None)

    def write(self, path: str) -> None:
        covered = [0.0] * len(self.records)
        for sid, parent, _, start, end, _ in self.records:
            if parent is not None and end is not None:
                covered[parent] += end - start
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.records:
                dur = (end if end is not None else start) - start
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start_s": start,
                    "duration_s": dur, "self_s": dur - covered[sid], **attrs,
                }) + "\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, prof, speed, digests: dict) -> dict:
    """Run one pass of operations; time each call, then check its output.

    With ``speed`` (a :class:`hostspeed.HostSpeed`), call times are
    rescaled to the reference host speed; ``raw_s`` keeps their sum as
    measured.
    """
    p = {"latencies_ms": [], "points": 0, "busy_s": 0.0, "raw_s": 0.0, "ops": 0, "failed": 0,
         "problems": [], "excluded": 0, "checked_points": 0, "bytes_out": 0,
         "fail_verdicts": 0, "refusals": 0, "digest_changes": {"cli": 0, "verify": 0}}
    for op in workload.pass_ops():
        if speed is not None:
            result, error, raw, dt = speed.call(op.run)
        else:
            # Traced passes, and the untraced ones they are compared with,
            # take the plain wall time: a profiler would charge the host
            # speed samples to the layers.
            error = None
            if prof is not None:
                prof.enable()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as err:  # a failed operation; keep going
                error = err
            raw = dt = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
        if p["ops"] == 0:
            # Peak memory before any output of the pass has been checked.
            p["rss_after_first_op_mb"] = peak_rss_mb()
        p["ops"] += 1
        p["busy_s"] += dt
        p["raw_s"] += raw
        p["latencies_ms"].append(dt * 1e3)
        p["points"] += op.points
        if error is not None:
            p["failed"] += 1
            text = "".join(traceback.format_exception(error, limit=4))
            p["problems"].append(f"{op.key}: raised\n{text}")
            continue
        out = op.check(result)
        for key, digest in out.digests.items():
            if digests.setdefault(key, digest) != digest:
                out.problems.append(f"{key}: output bytes differ from an earlier pass")
        if out.problems:
            p["failed"] += 1
            p["problems"].extend(out.problems)
        p["excluded"] += out.excluded
        p["checked_points"] += out.attempted
        p["bytes_out"] += out.bytes_out
        p["fail_verdicts"] += out.fail_verdicts
        p["refusals"] += out.refusals
        for layer, n in out.digest_changes.items():
            p["digest_changes"][layer] += n
    return p


def layer_metrics(p: dict, s: dict, uses_cli: bool) -> dict:
    """Per-layer metrics of one traced pass ``p`` with profile summary ``s``."""
    calls, self_s = s["calls"], s["self_s"]
    points = p["points"] or 1
    return {
        "jets.calls": calls["jets"],
        "jets.evals": s["jet_evals"],
        "jets.self_s": self_s["jets"],
        "factorable.calls": calls["factorable"],
        "factorable.route_evals": s["route_evals"],
        "factorable.self_s": self_s["factorable"],
        "geometry.calls": calls["geometry"],
        "geometry.chart_evals": s["chart_evals"],
        "geometry.parametric_evals": s["parametric_evals"],
        "geometry.point3d_calls": s["point3d_calls"],
        "geometry.self_s": self_s["geometry"],
        "catalog.calls": calls["catalog"],
        "catalog.inversions": s["inversions"],
        "catalog.integrand_evals": s["integrand_evals"],
        "catalog.inversions_per_point": s["inversions"] / points,
        "catalog.builds": s["builds"],
        "catalog.build_s": s["build_s"],
        "catalog.self_s": self_s["catalog"],
        "cli.calls": calls["cli"],
        "cli.height_evals_per_point": s["field_evals"] / points if uses_cli else 0.0,
        "cli.main_s": p["cli_main_s"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_out": p["bytes_out"],
        "cli.digest_changes": p["digest_changes"]["cli"],
        "verify.calls": calls["verify"],
        "verify.sample_grid_s": s["sample_grid_s"],
        "verify.check_s": s["check_s"],
        "verify.excluded_ratio": p["excluded"] / (p["checked_points"] or 1),
        "verify.self_s": self_s["verify"],
        "verify.digest_changes": p["digest_changes"]["verify"],
        "verify.fail_verdicts": p["fail_verdicts"],
        "rng.calls": calls["rng"],
        "rng.self_s": self_s["rng"],
        "init.self_s": self_s["init"],
        "other.self_s": self_s["other"],
        "trace.wall_s": p["busy_s"],
        "trace.accounted_ratio": s["profiled_s"] / p["busy_s"],
    }


def measure(workload, seconds: float, trace: bool, spans: Spans, attribution) -> dict:
    digests: dict = {}
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        prof = cProfile.Profile() if traced else None
        mark = len(spans.records)
        with spans.span("pass", index=len(passes), traced=traced):
            p = run_pass(workload, prof, None if trace else HostSpeed(), digests)
        p["traced"] = traced
        p["cli_main_s"] = spans.total("cli.main", mark)
        if traced:
            p["layers"] = layer_metrics(p, attribution.summarize(prof.getstats()), workload.uses_cli)
        passes.append(p)
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            break
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    out = {
        "passes": len(passes),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "refusals": sum(p["refusals"] for p in passes),
        "rss_after_first_op_mb": passes[0]["rss_after_first_op_mb"],
        "problems": [msg for p in passes for msg in p["problems"]][:20],
        "plain_passes": [{k: p[k] for k in ("points", "busy_s", "raw_s", "latencies_ms")}
                         for p in plain],
        "ops_per_pass": plain[0]["ops"],
        "points_per_pass": plain[0]["points"],
        "outputs_digest": hashlib.sha256(
            json.dumps(sorted(digests.items())).encode()).hexdigest(),
    }
    if traced_passes:
        layers = dict(traced_passes[0]["layers"])
        timed = [k for k in layers if k.endswith("_s") or k == "trace.accounted_ratio"]
        for k in timed:
            layers[k] = statistics.median(p["layers"][k] for p in traced_passes)
        counted = [k for k in layers if k not in timed]
        out["counts_repeat"] = all(
            p["layers"][k] == layers[k] for p in traced_passes for k in counted)
        layers["trace.overhead_ratio"] = (
            statistics.median(p["busy_s"] for p in traced_passes)
            / statistics.median(p["busy_s"] for p in plain))
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", metavar="PATH")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_parent)
    spans = Spans(enabled=bool(args.trace))

    def set_up():
        t0 = time.perf_counter()
        with spans.span("import"):
            import isocurv  # noqa: F401

            if cls.uses_cli:
                import isocurv.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        with spans.span("setup"):
            workload = cls(args.seed, reference, spans, os.path.relpath(workdir, os.getcwd()))
        return workload, import_s

    try:
        # Set-up is timed like an operation: rescaled to the reference host.
        done, error, _, setup_s = HostSpeed().call(set_up)
        if error is not None:
            raise error
        workload, import_s = done
        origin = Path(sys.modules["isocurv"].__file__).resolve()
        if origin.parent != (ROOT / "src" / "isocurv").resolve():
            print(f"error: imported isocurv from {origin}, not from this checkout", file=sys.stderr)
            return 3
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            attribution = None
            if args.trace:
                from layers import Attribution

                attribution = Attribution()
            result.update(measure(workload, args.seconds, bool(args.trace), spans, attribution))
            result["peak_rss_mb"] = peak_rss_mb()
            if args.spans:
                spans.write(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
