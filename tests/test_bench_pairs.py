"""The claim rule that ``tools/bench_pairs.py`` prints, on synthetic pairs,
the source digests by which it names the trees of every series, and
``--append``, which keeps each earlier entry next to the new one.

A change may claim a gain on a metric only when at least 10 alternating
pairs ran, it won at least 9 in 10 of them, a tie counting for neither
side, and its median beats the parent's by more than the parent's
interquartile range.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

#: Ten parent runs with no spread, so only the wins decide.
STEADY = [100.0] * 10


@pytest.mark.parametrize(
    "change, holds",
    [
        ([110.0] * 10, True),
        ([110.0] * 9 + [90.0], True),  # 9 wins in 10
        ([110.0] * 8 + [90.0] * 2, False),  # 8 wins in 10
        ([110.0] * 9 + [100.0], True),  # 9 wins and a tie
        ([110.0] * 8 + [100.0] * 2, False),  # 8 wins and 2 ties: a tie is no win
        ([100.0] * 10, False),  # 10 ties
    ],
)
def test_the_claim_rule_counts_wins_and_ties(change, holds):
    row = bench_pairs.compare({"parent": STEADY, "change": change}, "higher")
    assert bench_pairs.claim_holds(row) is holds, row


@pytest.mark.parametrize("step, holds", [(0.25, False), (1.0, False), (5.0, True)])
def test_the_gap_must_exceed_the_parents_interquartile_range(step, holds):
    # The parent's quartiles are 100.0 and 101.0.  The change wins every
    # pair by ``step``; a gap equal to the range is not enough.
    parent = [100.0, 101.0, 99.0, 102.0, 100.5] * 2
    row = bench_pairs.compare({"parent": parent, "change": [p + step for p in parent]}, "higher")
    assert row["parent_quartiles"] == [100.0, 101.0] and row["change_wins"] == 10
    assert bench_pairs.claim_holds(row) is holds, row


@pytest.mark.parametrize("pairs, holds", [(5, False), (9, False), (10, True), (20, True)])
def test_the_claim_rule_needs_ten_pairs(pairs, holds):
    row = bench_pairs.compare({"parent": [100.0] * pairs, "change": [110.0] * pairs}, "higher")
    assert row["change_wins"] == pairs and bench_pairs.claim_holds(row) is holds, row


def test_lower_is_better_turns_the_rule_around():
    for change, holds in (([90.0] * 10, True), ([110.0] * 10, False)):
        row = bench_pairs.compare({"parent": STEADY, "change": change}, "lower")
        assert bench_pairs.claim_holds(row) is holds, row


def test_a_verdict_line_names_the_medians_the_wins_and_the_rule():
    row = bench_pairs.compare({"parent": STEADY, "change": [110.0] * 9 + [90.0]}, "higher")
    assert bench_pairs.verdict("catalog-audit", "points_per_s", row) == (
        "catalog-audit points_per_s: parent 100 [100-100] -> change 110 (+10.0%), "
        "won 9/10, claim rule holds"
    )
    doc = {"series": [{"workload": "w", "summary": None}],
           "fresh": {"series": {"pass": row}}}
    assert bench_pairs.verdicts(doc) == [
        "w: no summary, some runs were not correct",
        "fresh pass wall_ms: parent 100 [100-100] -> change 110 (+10.0%), "
        "won 9/10, claim rule holds",
    ]


def test_digest_lines_say_whether_the_trees_gave_equal_outputs():
    run = lambda digest: {"correct": True, "outputs_digest": digest}
    pairs = [{"seed": 1, "parent": run("a"), "change": run("a")},
             {"seed": 2, "parent": run("b"), "change": run("c")},
             {"seed": 3, "parent": {"correct": False}, "change": {"correct": False}}]
    doc = {"series": [{"workload": "w", "summary": None, "pairs": pairs[:1]},
                      {"workload": "v", "summary": None, "pairs": pairs}],
           "byte_identity": {"parent": {"list": "x", "verify": "y"},
                             "change": {"list": "x", "verify": "z"}}}
    assert bench_pairs.verdicts(doc) == [
        "w: no summary, some runs were not correct",
        "w outputs_digest: equal in all 1 pairs",
        "v: no summary, some runs were not correct",
        "v outputs_digest: differs at seeds [2, 3]",
        "byte_identity differs: ['verify']",
    ]
    same = {"parent": {"list": "x"}, "change": {"list": "x"}}
    assert bench_pairs.identity_verdict(same) == "byte_identity: equal on all 1 entries"


def _tree(root: Path, files: dict) -> Path:
    package = root / "src" / "isocurv"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    return root


def test_the_source_digest_names_a_tree_by_its_package_sources(tmp_path):
    # A scratch copy has no commit, so each series names its trees by
    # their src/isocurv/*.py, in name order, whatever order they were made.
    files = {"b.py": "B = 2\n", "a.py": "A = 1\n"}
    digest = bench_pairs.source_digest(_tree(tmp_path / "one", files))
    same = _tree(tmp_path / "two", dict(reversed(files.items())) | {"notes.txt": "not a source"})
    assert bench_pairs.source_digest(same) == digest
    others = ({"b.py": "B = 3\n", "a.py": "A = 1\n"},  # a changed byte
              {"c.py": "B = 2\n", "a.py": "A = 1\n"},  # a renamed module
              {"a.py": "A = 1\nB = 2\n"})  # the same bytes in one module
    for i, other in enumerate(others):
        assert bench_pairs.source_digest(_tree(tmp_path / f"other{i}", other)) != digest, other


def test_every_series_records_both_trees_source_digests(tmp_path, monkeypatch):
    # Two runs of one pair, with bench/run.py replaced by a record of the tree.
    parent = _tree(tmp_path / "parent", {"a.py": "A = 1\n"})
    change = _tree(tmp_path / "change", {"a.py": "A = 2\n"})
    metrics = {name: {"value": 1.0} for name in bench_pairs.METRICS}
    monkeypatch.setattr(bench_pairs, "bench", lambda tree, *args: {
        "correct": True, "metrics": metrics, "outputs_digest": "x"})
    monkeypatch.setattr(bench_pairs, "fresh_series", lambda trees, pairs: {"series": {}})
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main([*argv, "--workload", "all", "--fresh"]) == 0
    doc = json.loads(out.read_text())
    want = {"parent": bench_pairs.source_digest(parent), "change": bench_pairs.source_digest(change)}
    assert want["parent"] != want["change"]
    assert [s["source_digests"] for s in doc["series"]] == [want] * len(bench_pairs.WORKLOADS)
    assert [entry["source_digests"] for entry in doc["fresh"]] == [want]


def test_append_keeps_every_earlier_entry_next_to_the_new_one(tmp_path, monkeypatch, capsys):
    # The parent against the change, then the anchor against it, into one file.
    change = _tree(tmp_path / "change", {"a.py": "A = 3\n"})
    parents = [_tree(tmp_path / name, {"a.py": f"A = {i}\n"})
               for i, name in enumerate(("parent", "anchor"))]
    metrics = {name: {"value": 1.0} for name in bench_pairs.METRICS}
    monkeypatch.setattr(bench_pairs, "bench", lambda tree, *args: {
        "correct": True, "metrics": metrics, "outputs_digest": str(tree)})
    monkeypatch.setattr(bench_pairs, "byte_identity", lambda trees: {
        t: {"list": "x"} for t in trees})
    row = bench_pairs.compare({"parent": STEADY, "change": STEADY}, "lower")
    monkeypatch.setattr(bench_pairs, "fresh_series", lambda trees, pairs: {
        "series": {"pass": row | {"equal_stdout": True}}})
    out = tmp_path / "BENCH.json"
    for parent in parents:
        argv = ["--parent", str(parent), "--change", str(change), "--pairs", "1",
                "--out", str(out), "--append", "--workload", "catalog-audit", "--traced",
                "--digests", "--fresh"]
        assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text())
    want = [{"parent": bench_pairs.source_digest(p), "change": bench_pairs.source_digest(change)}
            for p in parents]
    assert [s["source_digests"] for s in doc["series"]] == want
    for key in ("traced", "byte_identity", "fresh"):
        assert [entry["source_digests"] for entry in doc[key]] == want, key
    assert [entry["catalog-audit"]["parent"]["outputs_digest"] for entry in doc["traced"]] == [
        str(p) for p in parents]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("fresh ")][-2:] == [
        f"fresh pass (parent {w['parent'][:8]}) wall_ms" for w in want]
