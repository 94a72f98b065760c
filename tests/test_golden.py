"""Tri-state verdicts of ``analyze`` and check statuses of ``verify``
against stored golden files.

``tests/golden/verdicts.json`` holds, per case, the status vector one
``redspectra analyze`` call gave on a default-configuration record;
``tests/golden/checks.json`` holds the status of every check of
``verify --builtin`` (see ``scripts/make_golden.py``).  Speed-ups and
refactors must leave every status unchanged; a change that means to move
verdicts regenerates the files and says so.
"""

import json
import os

import pytest

from redspectra.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verdicts.json")
CHECKS = os.path.join(os.path.dirname(__file__), "golden", "checks.json")

with open(GOLDEN) as _fh:
    CASES = json.load(_fh)["cases"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    # a "_full" record is the full-line file synth writes beside the half
    for name in dict.fromkeys(c["record"].removesuffix("_full")
                              for c in CASES):
        assert main(["synth", name, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{c['record']}-{c['kind']}" + (f"-{c['class']}" if c["class"] else "")
         for c in CASES])
def test_verdicts_match_golden(records, case):
    report = records / f"{case['record']}-{case['kind']}-{case['class']}.json"
    argv = ["analyze", str(records / f"{case['record']}.csv"),
            "--kind", case["kind"], "--out", str(report)]
    if case["class"]:
        argv += ["--class", case["class"]]
    assert main(argv) == 0
    status = "".join(s[0] for s in json.loads(report.read_text())["status"])
    assert status == case["status"]


def test_check_statuses_match_golden(builtin_results):
    with open(CHECKS) as fh:
        golden = [(c["check"], c["subject"], c["status"])
                  for c in json.load(fh)]
    got = [(r.check_id, r.subject, r.status.value) for r in builtin_results]
    assert got == golden
