"""isocurv benchmark: one workload (or all) in fresh interpreters, checked.

    python3 bench/run.py --workload catalog-audit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # the three, one after another

Run it from the root of a checkout; the program is imported from
``src/``.  Each workload starts one interpreter that sets up and runs
the closed loop (``worker.py``), with ``SETUP_SAMPLES - 1`` interpreters
that only set up around it, half before and half after.  ``setup_s`` is
the median of all the set-ups; the other end-to-end metrics are taken
over all untraced passes.  Times are rescaled to the speed of a
reference host (``hostspeed.py``), which a shared host drifts from.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones, with the units ``BENCHMARK.json`` lists for them.  Every metric is
printed by name and unit, then the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (environment, samples, problems) goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("catalog-audit", "integral-export", "random-instances")
SETUP_SAMPLES = 32
#: A run must end within this many seconds, set-ups included.
RUN_LIMIT_S = 170.0

def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "dirty": None if status is None else bool(status),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    The tail is never put below the median: with fewer than 20 samples
    no percentile above the median has ten samples beyond it, and the
    median is reported, as percentile 50.
    """
    s = sorted(values)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def spawn(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, "-I", str(WORKER), *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, units: dict,
                 reference: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    # Set-ups are sampled before and after the measuring run, so that they
    # span the run's time on the host rather than a second of it.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [spawn(common + ["--setup-only"], deadline) for _ in range(before)]
    spans = ["--spans", str(results_dir / f"{stem}.spans.jsonl")] if trace else []
    main = spawn(common + spans, deadline)
    setups += [spawn(common + ["--setup-only"], deadline)
               for _ in range(SETUP_SAMPLES - 1 - before)]
    env["loadavg_after"] = os.getloadavg()
    load = max(env["loadavg_before"][0], env["loadavg_after"][0])
    env["overloaded"] = load > env["usable_cpus"]
    if env["overloaded"]:
        print(f"warning: load average {load:.2f} exceeds the {env['usable_cpus']} usable cores",
              file=sys.stderr)

    # Every time is rescaled to the reference host speed (hostspeed.py);
    # the record keeps the raw sums next to them.
    plain = main["plain_passes"]
    lat = [v for p in plain for v in p["latencies_ms"]]
    tail_ms, tail_pct = tail(lat)
    points = sum(p["points"] for p in plain)
    setup_samples = [s["setup_s"] for s in setups] + [main["setup_s"]]
    import_samples = [s["import_s"] for s in setups] + [main["import_s"]]
    if trace:
        values = dict(main["layers"])
        values["init.import_s"] = statistics.median(import_samples)
        vanished = [k for k in reference["nonzero_counters"][name] if not values[k]]
        if vanished:
            raise RuntimeError(
                f"{name}: {', '.join(vanished)} read 0 but were non-zero when "
                "reference.json was recorded; a layer hook no longer finds its code")
    else:
        values = {
            "points_per_s": points / sum(p["busy_s"] for p in plain),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail_ms,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "attempted": main["attempted"], "failed": main["failed"],
        "failed_ratio": main["failed"] / main["attempted"],
        "problems": main["problems"],
        "passes": main["passes"], "ops_per_pass": main["ops_per_pass"],
        "points_per_pass": main["points_per_pass"],
        "op_samples": len(lat),
        "raw_points_per_s": points / sum(p["raw_s"] for p in plain), "op_tail_percentile": tail_pct,
        "setup_samples_s": setup_samples, "import_samples_s": import_samples,
        "outputs_digest": main["outputs_digest"],
        "counts_repeat": main.get("counts_repeat"),
        "refusals": main["refusals"],
        "rss_after_first_op_mb": main["rss_after_first_op_mb"],
        "metrics": metrics,
    }
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    print(f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"({record['passes']} passes, {record['attempted']} operations)")
    for name, m in record["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ratio':30s} {record['failed_ratio']:>16.6g} "
          f"({record['failed']} of {record['attempted']})")
    if not record["trace"]:
        print(f"  op_tail_ms is p{record['op_tail_percentile']:.4g} of {record['op_samples']} "
              f"operations; times at the reference host speed, "
              f"{record['raw_points_per_s']:.6g} points/s as measured")
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    if record["counts_repeat"] is False:
        print("  warning: call counts differed between traced passes", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="isocurv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "isocurv" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'isocurv'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report(run_workload(name, args.seed, args.seconds, args.trace, units, reference))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
