"""Alternating parent/change runs of bench/run.py, summarised as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload random-instances \
        --pairs 10 --seconds 20 --seed-base 3001 --traced --digests --out BENCH.json

Both trees are byte-compiled first, so that no measured run compiles a source.
Untraced runs go one process at a time; pair i uses seed ``seed-base + i``,
and the tree that runs first alternates, the parent first.  Records come from
each tree's ``bench/results/``.  ``--traced`` adds a traced run (seed 1, 1 s)
per tree and workload; ``--digests`` the sha256 of ``isocurv list``, of
``verify --grid 41`` on every family and of the 201² FS2.K.integral CSV and
OBJ exports.  Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("catalog-audit", "integral-export", "random-instances")
METRICS = {"points_per_s": "higher", "op_p50_ms": "lower", "op_tail_ms": "lower",
           "setup_s": "lower", "peak_rss_mb": "lower"}
TREES = ("parent", "change")
DIGESTS = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
sys.path.insert(0, "src")
from isocurv import catalog, cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(list(argv))
    return f"exit {code}\n{buf.getvalue()}".encode()
sha = lambda data: hashlib.sha256(data).hexdigest()
out = {"list": sha(run("list")), "verify 41 (all families)": sha(b"".join(
    run("verify", "--family", f, "--grid", "41") for f in catalog.family_ids()))}
os.chdir(tempfile.mkdtemp())
for fmt in ("csv", "obj"):
    run("grid", "--family", "FS2.K.integral", "--grid", "201", "--format", fmt, "--out", "g")
    out[f"grid 201 {fmt}"] = sha(open("g", "rb").read())
print(json.dumps(out))
"""


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py process in ``tree``: its record, with ``correct`` added."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    path = tree / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    if done.returncode != 0 or not path.is_file():
        return {"workload": workload, "seed": seed, "correct": False, "exit": done.returncode}
    record = json.loads(path.read_text())
    return dict(record, correct=record["failed"] == 0)  # run.py's own "correct"


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name, better in METRICS.items():
        got = {t: [p[t]["metrics"][name]["value"] for p in pairs] for t in TREES}
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(*got.values()))
        row = {"better": better}
        for t in TREES:
            q = got[t] * 3 if len(pairs) < 2 else statistics.quantiles(
                got[t], n=4, method="inclusive")
            row |= {f"{t}_median": statistics.median(got[t]), f"{t}_quartiles": [q[0], q[2]]}
        out[name] = row | {"change_wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--digests", action="store_true")
    ap.add_argument("--note", help="what the change is")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--append", action="store_true", help="add to an existing --out file")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if not all(compileall.compile_dir(tree / sub, quiet=1)
               for tree in trees.values() for sub in ("src", "bench")):
        return 1
    doc = json.loads(args.out.read_text()) if args.append else {
        "description": args.note, "series": [],
        "command": "python3 bench/run.py --workload W --seed S --seconds N --trace 0"}
    records = []
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        pairs = []
        for i in range(args.pairs):
            seed, order = args.seed_base + i, TREES if i % 2 == 0 else TREES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for t in order:
                pair[t] = bench(trees[t], w, seed, args.seconds, 0)
                print(f"{w} seed {seed} {t}: correct {pair[t]['correct']}", file=sys.stderr)
            pairs.append(pair)
            records += [pair[t] for t in TREES]
        ok = all(p[t]["correct"] for p in pairs for t in TREES)
        doc["series"].append({
            "workload": w, "seconds": args.seconds,
            "summary": summary(pairs) if ok else None,
            "max_failed_ratio": max(p[t].get("failed_ratio", 1.0) for p in pairs for t in TREES),
            "pairs": pairs})
        if args.traced:
            traced = {t: bench(trees[t], w, 1, 1, 1) for t in TREES}
            doc.setdefault("traced", {})[w] = traced
            records += traced.values()
    if args.digests:
        doc["byte_identity"] = {t: json.loads(subprocess.run(
            [sys.executable, "-I", "-c", DIGESTS], cwd=tree, check=True, capture_output=True,
            text=True).stdout) for t, tree in trees.items()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    bad = [f"{r['workload']} seed {r['seed']}" for r in records if not r["correct"]]
    if bad:
        print(f"error: runs not correct: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
