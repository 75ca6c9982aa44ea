"""Alternating parent/change runs of bench/run.py, summarised as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload random-instances \
        --pairs 10 --seconds 20 --seed-base 3001 --traced --digests --out BENCH.json

Both trees are byte-compiled first, so that no measured run compiles a source.
Untraced runs go one process at a time; pair i uses seed ``seed-base + i``,
and the tree that runs first alternates, the parent first.  Records come from
each tree's ``bench/results/``.  ``--traced`` adds a traced run (seed 1, 1 s)
per tree and workload; ``--digests`` the sha256 of ``isocurv list``, of
``verify --grid 41`` on every family, of ``cross-validate --seed 7`` on each
kind and on three families with a tan, power or sqrt profile, of ``probe``
on each kind, of ``verify`` on three grids that cross a profile's branch
or overflow and on two under a shear that repeats no argument, and of the
201² FS2.K.integral CSV and OBJ exports.  Exits 1 if any run is not correct.

Every series records ``source_digests``, each tree's ``source_digest``: a
scratch copy has no commit of its own, so this names the tree that ran.
``--append`` adds to the ``--out`` file, or starts it: its series, and its
``traced``, ``byte_identity`` and ``fresh`` entries, each with its
``source_digests``, go next to the earlier ones, which it keeps.  So the
anchor's runs against the change and the parent's share one file.

Once ``--out`` is written, one line per series and metric goes to stdout: the
parent's median with its quartiles, the change's median and the difference,
the pairs the change won, and whether the claim rule holds (``claim_holds``).
A line per series then says whether every pair's two ``outputs_digest`` are
equal, a line per ``--digests`` entry whether the trees' are, and a line per
fresh series gives its verdict.

``--fresh``, with or without ``--workload``, times fresh ``python -S``
processes, start-up and import included: ``-c pass`` and a ``cli.main`` call per command in ``FRESH``, each
tree in turn per pair, the parent first in even pairs.  Their wall times go
to the output's ``fresh`` entry, in ms; it exits 1 if the trees' stdout and
exit codes differ.

    python3 tools/bench_pairs.py --parent ../parent --change . --fresh --pairs 30 \
        --out BENCH.json --append
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
import time
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
for kind in ("type-1", "type-2"):
    out[f"cross-validate {kind} seed 7"] = sha(run("cross-validate", "--kind", kind, "--seed", "7"))
# Families whose tan, power or sqrt profile takes no column: cross-validated point by point.
for fid in ("FS2.min.tan", "AFS1.flat.pow", "AFS2.cmc.f1const"):
    out[f"cross-validate {fid} seed 7"] = sha(run("cross-validate", "--family", fid, "--seed", "7"))
for kind in ("afs2-minimal", "afs2-constant-K"):
    out[f"probe {kind}"] = sha(run("probe", "--kind", kind))
# Grids that cross a profile's branch or overflow, where points are excluded with their texts.
for argv in (["FS1.flat.pow", "--param", "c2=3", "--grid", "41", "--domain", "x:-3..0.52,y:-3..0.52"],
             ["AFS2.cmc.sqrt", "--grid", "41", "--domain", "y:-1..1,z:-1..1"],
             ["AFS1.min.osc", "--domain", "x:0..1e308,y:0..1"],
             # a = 0.37 repeats no sheared argument: column blocks, then sqrt's point fallback.
             ["AFS2.flat.exp", "--param", "a=0.37", "--grid", "41"],
             ["AFS2.cmc.sqrt", "--param", "a=0.37", "--grid", "41"]):
    out[" ".join(["verify", *argv])] = sha(run("verify", "--family", *argv))
os.chdir(tempfile.mkdtemp())
for fmt in ("csv", "obj"):
    run("grid", "--family", "FS2.K.integral", "--grid", "201", "--format", fmt, "--out", "g")
    out[f"grid 201 {fmt}"] = sha(open("g", "rb").read())
print(json.dumps(out))
"""
#: The ``--fresh`` processes: ``python -S -c pass``, then ``cli.main(argv)``.
FRESH = {
    "pass": None,
    "list": ["list"],
    "verify AFS1.min.osc 41": ["verify", "--family", "AFS1.min.osc", "--grid", "41"],
    "cross-validate type-2 seed 7": ["cross-validate", "--kind", "type-2", "--seed", "7"],
}
FRESH_CODE = "import sys; sys.path.insert(0, 'src'); from isocurv.cli import main; sys.exit(main(ARGV))"


def source_digest(tree: Path) -> str:
    """sha256 over the tree's ``src/isocurv/*.py`` in name order, each file's name and bytes."""
    sha = hashlib.sha256()
    for path in sorted((tree / "src" / "isocurv").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


def byte_identity(trees: dict) -> dict:
    """The ``DIGESTS`` of each tree, from a fresh ``python -I`` process in it."""
    return {t: json.loads(subprocess.run(
        [sys.executable, "-I", "-c", DIGESTS], cwd=tree, check=True, capture_output=True,
        text=True).stdout) for t, tree in trees.items()}


def fresh(tree: Path, argv: list[str] | None) -> tuple[float, str]:
    """Wall ms of one fresh ``python -S`` process in ``tree``, and the sha256 of its exit and stdout."""
    code = "pass" if argv is None else FRESH_CODE.replace("ARGV", repr(argv))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=tree, capture_output=True)
    wall_ms = (time.perf_counter() - start) * 1e3
    return wall_ms, hashlib.sha256(b"exit %d\n" % done.returncode + done.stdout).hexdigest()


def fresh_series(trees: dict, pairs: int) -> dict:
    walls = {name: {t: [] for t in TREES} for name in FRESH}
    digests = {name: {t: set() for t in TREES} for name in FRESH}
    for i in range(pairs):
        for t in TREES if i % 2 == 0 else TREES[::-1]:
            for name, argv in FRESH.items():
                wall_ms, digest = fresh(trees[t], argv)
                walls[name][t].append(wall_ms)
                digests[name][t].add(digest)
    return {"command": f"python -S -c {FRESH_CODE!r}", "unit": "ms", "series": {
        name: compare(walls[name], "lower") | {
            "equal_stdout": len(digests[name]["parent"] | digests[name]["change"]) == 1}
        for name in FRESH}}


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


def compare(got: dict, better: str) -> dict:
    """Each tree's median and quartiles of its values, and the pairs the change won."""
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(*got.values()))
    row = {"better": better}
    for t in TREES:
        q = got[t] * 3 if len(got[t]) < 2 else statistics.quantiles(
            got[t], n=4, method="inclusive")
        row |= {f"{t}_median": statistics.median(got[t]), f"{t}_quartiles": [q[0], q[2]]}
    return row | {"change_wins": wins, "pairs": len(got["parent"])}


def claim_holds(row: dict) -> bool:
    """The claim rule on a ``compare`` row: at least 10 pairs ran, the change won at least
    9 in 10 of them, a tie counting for neither side, and its median is better than the
    parent's by more than the distance between the parent's quartiles."""
    q1, q3 = row["parent_quartiles"]
    gap = row["change_median"] - row["parent_median"]
    if row["better"] == "lower":
        gap = -gap
    pairs = row["pairs"]
    return pairs >= 10 and 10 * row["change_wins"] >= 9 * pairs and gap > q3 - q1


def verdict(name: str, metric: str, row: dict) -> str:
    """One line: the parent's median and quartiles, the change's median, the wins and the rule."""
    p, c = row["parent_median"], row["change_median"]
    q1, q3 = row["parent_quartiles"]
    diff = f"{(c - p) / p * 100:+.1f}%" if p else "n/a"
    holds = "holds" if claim_holds(row) else "does not hold"
    return (f"{name} {metric}: parent {p:.7g} [{q1:.7g}-{q3:.7g}] -> change {c:.7g} ({diff}), "
            f"won {row['change_wins']}/{row['pairs']}, claim rule {holds}")


def outputs_verdict(series: dict) -> str:
    """Whether each pair of a series gave the two trees the same ``outputs_digest``.

    A run without a digest, one that was not correct, counts as a difference.
    """
    pairs = series["pairs"]
    differ = [p["seed"] for p in pairs
              if p["parent"].get("outputs_digest") is None
              or p["parent"].get("outputs_digest") != p["change"].get("outputs_digest")]
    state = f"equal in all {len(pairs)} pairs" if not differ else f"differs at seeds {differ}"
    return f"{series['workload']} outputs_digest: {state}"


def identity_verdict(identity: dict) -> str:
    """Whether the two trees' ``--digests`` entries are equal, naming those that differ."""
    parent, change = identity["parent"], identity["change"]
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    if differ:
        return f"byte_identity differs: {differ}"
    return f"byte_identity: equal on all {len(parent)} entries"


def entries(doc: dict, key: str) -> list[dict]:
    """The ``traced``, ``byte_identity`` or ``fresh`` entries of a BENCH document, oldest first.

    A document written before ``--append`` kept them holds one entry, not a list.
    """
    entry = doc.get(key)
    return [] if entry is None else entry if isinstance(entry, list) else [entry]


def _trees(entry: dict) -> str:
    """`` (parent <digest>)``: which parent an entry compared, where it records that."""
    digests = entry.get("source_digests")
    return f" (parent {digests['parent'][:8]})" if digests else ""


def verdicts(doc: dict) -> list[str]:
    """A ``verdict`` line per series and metric of a BENCH document, and the digest lines."""
    lines = []
    for s in doc["series"]:
        if s["summary"] is None:
            lines.append(f"{s['workload']}: no summary, some runs were not correct")
        else:
            lines += [verdict(s["workload"], m, row) for m, row in s["summary"].items()]
        if "pairs" in s:
            lines.append(outputs_verdict(s))
    for identity in entries(doc, "byte_identity"):
        lines.append(identity_verdict(identity) + _trees(identity))
    for entry in entries(doc, "fresh"):
        for name, row in entry["series"].items():
            lines.append(verdict(f"fresh {name}{_trees(entry)}", "wall_ms", row))
    return lines


def summary(pairs: list[dict]) -> dict:
    return {name: compare({t: [p[t]["metrics"][name]["value"] for p in pairs] for t in TREES},
                          better) for name, better in METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--fresh", action="store_true", help="time fresh -S processes (FRESH)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--digests", action="store_true")
    ap.add_argument("--note", help="what the change is")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--append", action="store_true", help="add to an existing --out file")
    args = ap.parse_args(argv)
    if not (args.workload or args.fresh):
        ap.error("give --workload, --fresh or both")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if not all(compileall.compile_dir(tree / sub, quiet=1)
               for tree in trees.values() for sub in ("src", "bench")):
        return 1
    doc = json.loads(args.out.read_text()) if args.append and args.out.is_file() else {
        "description": args.note, "series": [],
        "command": "python3 bench/run.py --workload W --seed S --seconds N --trace 0"}
    sources = {t: source_digest(tree) for t, tree in trees.items()}
    records, added = [], {}
    for w in WORKLOADS if args.workload == "all" else (args.workload,) if args.workload else ():
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
            "workload": w, "seconds": args.seconds, "source_digests": sources,
            "summary": summary(pairs) if ok else None,
            "max_failed_ratio": max(p[t].get("failed_ratio", 1.0) for p in pairs for t in TREES),
            "pairs": pairs})
        if args.traced:
            traced = {t: bench(trees[t], w, 1, 1, 1) for t in TREES}
            added.setdefault("traced", {})[w] = traced
            records += traced.values()
    if args.digests:
        added["byte_identity"] = byte_identity(trees)
    if args.fresh:
        added["fresh"] = fresh_series(trees, args.pairs)
    for key, entry in added.items():
        doc[key] = entries(doc, key) + [entry | {"source_digests": sources}]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(verdicts(doc)))
    bad = [f"{r['workload']} seed {r['seed']}" for r in records if not r["correct"]]
    bad += [f"fresh {name} (stdout differs)" for name, row in added.get("fresh", {}).get(
        "series", {}).items() if not row["equal_stdout"]]
    if bad:
        print(f"error: runs not correct: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
