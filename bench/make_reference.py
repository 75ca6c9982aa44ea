"""Record the reference outputs the benchmark compares against.

    python3 bench/make_reference.py          # writes bench/reference.json

It runs every seed-independent operation once and stores exit codes,
report quantities, sha256 digests and the derived constant of the
exported family.  Then it runs each workload traced for one pass and
stores which guarded per-layer counters read non-zero on it; a later
run in which one of them reads 0 fails (see ``layers.GUARDED``).  The file is committed; regenerate it only when a
change to the program's output bytes is intended, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import isocurv.cli as cli  # noqa: E402
from isocurv import catalog, verify  # noqa: E402
from layers import GUARDED  # noqa: E402
from run import RUN_LIMIT_S, WORKLOADS, spawn  # noqa: E402
from workloads import (  # noqa: E402
    EXPORT_FAMILY, EXPORT_GRID, FAMILY_GRID, ODE_STEPS, _call_cli, sha256,
)


def write(reference: dict) -> None:
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    families = {}
    for fid in catalog.family_ids():
        rc, stdout, _ = _call_cli(cli, ["verify", "--family", fid, "--grid", str(FAMILY_GRID)])
        families[fid] = {
            "exit_code": rc,
            "quantity": json.loads(stdout)["quantity"],
            "digest": sha256(stdout.encode()),
        }
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for fmt in ("csv", "obj"):
            path = os.path.join(tmp, f"export.{fmt}")
            _call_cli(cli, ["grid", "--family", EXPORT_FAMILY, "--grid", str(EXPORT_GRID),
                            "--format", fmt, "--out", path])
            digests[fmt] = sha256(Path(path).read_bytes())
    reference = {
        "families": families,
        "export": {
            "derived_K": catalog.expected_profile(EXPORT_FAMILY).derived_value,
            "digests": digests,
        },
        "ode": {kind: repr(verify.ode_crosscheck(kind, None, None, ODE_STEPS))
                for kind in ("afs1-minimal", "afs2-cmc")},
    }
    write(reference)  # the workers below read it
    reference["nonzero_counters"] = {}
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1"]
        layers = spawn(args, time.monotonic() + RUN_LIMIT_S)["layers"]
        reference["nonzero_counters"][name] = [k for k in GUARDED if layers[k]]
    write(reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
