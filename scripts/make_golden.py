#!/usr/bin/env python3
"""Write the golden files read by tests/test_golden.py.

Usage:
    PYTHONPATH=src python scripts/make_golden.py [--out tests/golden/verdicts.json]
                                                 [--checks tests/golden/checks.json]

Each case is one ``redspectra analyze`` call on a record written by
``redspectra synth`` at the default configuration (a ``_full`` record is
the full-line file that ``synth`` writes next to the half-line one); the
file stores the case roster with its status vector (one letter per grid
point: r regular, s singular, u undecided).  Regenerate it only when a
change is meant to move verdicts, and say so where the change is
recorded.
"""

import argparse
import json
import os
import sys
import tempfile

from redspectra.cli import main as cli_main
from redspectra.config import Config
from redspectra.theorems import run_all

RECORDS = ("exp_iw1", "chirp", "sinc", "aap_mix")
KINDS = (("reduced", "c0"), ("laplace", None), ("weak-laplace", None),
         ("carleman", None))            # carleman on the zero extension
CASES = [(r, k, c) for r in RECORDS for k, c in KINDS] + \
    [("aap_mix", "reduced", "aap")] + \
    [(r, k, None) for r in ("decay_exp", "so_composite", "tchirp")
     for k in ("laplace", "weak-laplace")] + \
    [(f"{r}_full", "carleman", None)
     for r in ("exp_iw1", "chirp", "sinc", "ap_sum", "tchirp")] + \
    [(f"{r}_full", "beurling", None) for r in ("exp_iw1", "ap_sum")] + \
    [(r, "reduced", "ap") for r in ("exp_iw1", "ap_sum")]


def corpus_name(record: str) -> str:
    """Corpus signal whose ``synth`` writes ``record.csv``."""
    return record.removesuffix("_full")


def analyze_statuses(data_dir, record, kind, cls, out_dir) -> str:
    """Status letters of one ``analyze`` call on ``data_dir/record.csv``."""
    out = os.path.join(out_dir, f"{record}-{kind}-{cls}.json")
    argv = ["analyze", os.path.join(data_dir, f"{record}.csv"),
            "--kind", kind, "--out", out]
    if cls:
        argv += ["--class", cls]
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"analyze {record} --kind {kind} exited {rc}")
    with open(out) as fh:
        return "".join(s[0] for s in json.load(fh)["status"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join("tests", "golden",
                                                  "verdicts.json"))
    ap.add_argument("--checks", default=os.path.join("tests", "golden",
                                                     "checks.json"))
    args = ap.parse_args()
    cases = []
    with tempfile.TemporaryDirectory() as work:
        for name in dict.fromkeys(corpus_name(r) for r, _, _ in CASES):
            if cli_main(["synth", name, "--out", work]) != 0:
                raise RuntimeError(f"synth {name} failed")
        for record, kind, cls in CASES:
            cases.append({"record": record, "kind": kind, "class": cls,
                          "status": analyze_statuses(work, record, kind, cls,
                                                     work)})
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"grid": {"min": -5.0, "max": 5.0, "step": 0.1},
                   "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {args.out}")
    checks = [{"check": r.check_id, "subject": r.subject,
               "status": r.status.value} for r in run_all(Config())]
    with open(args.checks, "w") as fh:
        json.dump(checks, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(checks)} checks to {args.checks}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
