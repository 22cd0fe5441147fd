"""CLI golden corpus: every case of `golden/cli.json` still gives the
recorded exit code and last stderr line exactly, and the recorded
stdout with keys in the recorded order, booleans, labels and integers
exact and other numbers to 1e-12 relative.  JSON stdout is laid out as
`json.dumps` lays it out: indented by 2, compact for `apply`'s field.
Regenerate with `tests/golden/regenerate.py`."""

import json
import math

import pytest

from golden.regenerate import CASES, GOLDEN, corpus_diff, run_case

CORPUS = json.loads(GOLDEN.read_text())


def assert_matches(got, want, path="stdout"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and isinstance(got, float):
        same = math.isnan(got) and math.isnan(want) or math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
        assert same, f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_matches_golden(name):
    got, want = run_case(name), CORPUS[name]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert_matches(got["stdout"], want["stdout"])
    if isinstance(want["stdout"], dict):
        indent = None if CASES[name][0][0] == "apply" else 2
        assert got["raw"] == json.dumps(json.loads(got["raw"]), indent=indent) + "\n"


def test_corpus_is_the_case_list():
    recorded = {name: [case["argv"], case["config"]] for name, case in CORPUS.items()}
    assert recorded == {name: list(case) for name, case in CASES.items()}


def test_corpus_diff_names_each_moved_case():
    old = {"kept": {"stdout": {"v": [1.0, 2.0]}}, "moved": {"stdout": {"v": [1.0, 2.0]}},
           "relabelled": {"stdout": {"v": "a"}}, "gone": {}}
    new = {"kept": {"stdout": {"v": [1.0, 2.0]}}, "moved": {"stdout": {"v": [1.001, 2.5]}},
           "relabelled": {"stdout": {"v": "b"}}, "new": {}}
    assert corpus_diff(old, new) == [
        "added new",
        "removed gone",
        "changed moved: largest relative change 0.25 at moved.stdout.v[1]",
        "changed relabelled: largest relative change inf at relabelled.stdout.v",
    ]
