"""The claim rule that ``tools/bench_pairs.py`` prints, on synthetic pairs.

A change may claim a gain on a metric only when at least 10 alternating
pairs ran, it won at least 9 in 10 of them, a tie counting for neither
side, and its median beats the parent's by more than the parent's
interquartile range.
"""

import importlib.util
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
