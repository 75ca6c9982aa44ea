"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py [--seed 1] [--other-seed 2] [--seconds 1]

Runs ``run.py`` the way ``BENCHMARK.json`` says and checks that

* the metric names printed with ``--trace 0`` and ``--trace 1`` are
  exactly the ``end_to_end`` and ``per_layer`` names of BENCHMARK.json;
* every count metric repeats exactly across two traced runs at one seed;
* another seed changes the outputs of ``random-instances`` but neither
  the operations nor the counts of ``catalog-audit`` and
  ``integral-export``;
* the self times of all layers plus ``other.self_s`` add up to the
  traced wall time (``trace.accounted_ratio`` within 1% of 1);
* every run reports ``correct``.

Prints one line per finding and exits 1 if there is any.  It takes a few
minutes; the traced ``integral-export`` runs dominate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] != "s" and not k.startswith("trace.")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="self-check of the benchmark")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    findings = []

    def expect(ok: bool, text: str) -> None:
        if not ok:
            findings.append(text)

    for w in (w["name"] for w in spec["workloads"]):
        plain, _ = run(spec, w, args.seed, args.seconds, 0)
        first, rec_first = run(spec, w, args.seed, args.seconds, 1)
        again, _ = run(spec, w, args.seed, args.seconds, 1)
        other, rec_other = run(spec, w, args.other_seed, args.seconds, 1)
        for label, res in (("trace 0", plain), ("trace 1", first), ("rerun", again),
                           ("other seed", other)):
            expect(res["correct"], f"{w} {label}: correct is false")
        expect(set(plain["metrics"]) == e2e,
               f"{w}: trace 0 metrics differ from end_to_end: {sorted(set(plain['metrics']) ^ e2e)}")
        expect(set(first["metrics"]) == per_layer,
               f"{w}: trace 1 metrics differ from per_layer: {sorted(set(first['metrics']) ^ per_layer)}")
        a, b = counts(first), counts(again)
        diff = sorted(k for k in a if a[k] != b.get(k))
        expect(not diff, f"{w}: count metrics differ between two runs at seed {args.seed}: {diff}")
        for res in (first, again, other):
            ratio = res["metrics"]["trace.accounted_ratio"]["value"]
            expect(abs(ratio - 1.0) <= 0.01, f"{w}: layer self times cover {ratio:.4f} of the traced wall")
        if w == "random-instances":
            expect(rec_first["outputs_digest"] != rec_other["outputs_digest"],
                   f"{w}: seeds {args.seed} and {args.other_seed} gave identical outputs")
        else:
            c = counts(other)
            diff = sorted(k for k in a if a[k] != c.get(k))
            expect(not diff, f"{w}: count metrics depend on the seed: {diff}")
            expect(rec_first["ops_per_pass"] == rec_other["ops_per_pass"]
                   and rec_first["points_per_pass"] == rec_other["points_per_pass"],
                   f"{w}: operations per pass depend on the seed")
            expect(rec_first["outputs_digest"] == rec_other["outputs_digest"],
                   f"{w}: outputs depend on the seed")
        print(f"{w}: checked", flush=True)
    for text in findings:
        print(f"FINDING: {text}")
    print("self-check:", "FAIL" if findings else "PASS")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
