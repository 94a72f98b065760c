#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and summarize.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS FIRST_SEED
        [--seconds S]

Pair p (p = 1..PAIRS) runs ``python3 perfbench/run.py --workload
WORKLOAD --seed FIRST_SEED+p-1 --seconds S --trace 0`` once from each
checkout, each run a fresh process with the checkout as its working
directory: the parent runs first in odd pairs, the change first in even
pairs.  Every run has ``PYTHONDONTWRITEBYTECODE=1`` set, and the script
refuses to start a run while a ``__pycache__`` directory exists under
either checkout's ``src/``, ``perfbench/`` or ``scripts/``, so no run
reads bytecode that another wrote.  It writes nothing in either checkout
itself (``perfbench/run.py`` keeps its work files under its own
``perfbench/out/``).  It refuses to start when the absolute paths of the
two checkouts differ in length: ``peak_rss_mb`` moves by up to 1.5 MB
with the name of the checkout directory alone, so only equal lengths
compare like with like.

Each run's result line goes to standard error as it finishes.  Standard
output gets one JSON object: ``summary`` holds, for each end-to-end
metric of the change's ``BENCHMARK.json``, the pair count, the pairs the
change won (its value better than the parent's in the same pair), both
medians, both quartiles (``statistics.quantiles``, ``method='inclusive'``),
both interquartile ranges, the ratio of the medians and both ranges,
and under ``round_walls`` per side the median wall time of the first
round of each run and the median over every later round (a cold-start
cost shows in the first alone); ``operations`` holds each run's
attempted, failed and correct counts; ``runs`` holds every run's whole
result line and, as ``round_walls``, the wall time of each of its rounds
in order, parsed from the ``round k: X s wall`` lines that
``perfbench/run.py`` writes on standard error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

CACHE_ROOTS = ("src", "perfbench", "scripts")
ROUND_LINE = re.compile(r"^round (\d+): ([0-9.]+) s wall", re.M)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("workload")
    ap.add_argument("pairs", type=int)
    ap.add_argument("first_seed", type=int)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)
    for path in (args.parent, args.change):
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{path} holds no perfbench/run.py")
    parent, change = (len(os.path.abspath(p))
                      for p in (args.parent, args.change))
    if parent != change:
        ap.error(f"the absolute paths of PARENT and CHANGE differ in length "
                 f"({parent} and {change} characters); peak_rss_mb moves "
                 f"with the length of the checkout's path alone")
    if args.pairs < 2 or args.first_seed < 0 or args.seconds <= 0:
        ap.error("need PAIRS >= 2, FIRST_SEED >= 0 and --seconds > 0")
    return args


def bytecode_caches(root) -> list:
    found = []
    for top in CACHE_ROOTS:
        for dirpath, dirnames, _ in os.walk(os.path.join(root, top)):
            found += [os.path.join(dirpath, d) for d in dirnames
                      if d == "__pycache__"]
    return found


def run_once(root, workload, seed, seconds) -> tuple:
    """(result line, wall time of each round) of one fresh run."""
    caches = bytecode_caches(root)
    if caches:
        sys.exit(f"error: remove the bytecode caches first: {' '.join(caches)}")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                         text=True)
    if res.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited "
                 f"{res.returncode}: {res.stderr.strip()[-500:]}")
    rounds = [(int(k), float(v)) for k, v in ROUND_LINE.findall(res.stderr)]
    if [k for k, _ in rounds] != list(range(1, len(rounds) + 1)):
        sys.exit(f"error: {' '.join(cmd)} in {root} reported rounds "
                 f"{[k for k, _ in rounds]}")
    return (json.loads(res.stdout.strip().splitlines()[-1]),
            [v for _, v in rounds])


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q[1], "quartiles": q, "iqr": q[2] - q[0],
            "range": [min(values), max(values)]}


def summarize(metrics, runs) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = {}
        for r in runs:
            pairs.setdefault(r["pair"], {})[r["side"]] = \
                r["line"]["metrics"][name]["value"]
        par = [p["parent"] for p in pairs.values()]
        chg = [p["change"] for p in pairs.values()]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        sp, sc = spread(par), spread(chg)
        out[name] = {
            "pairs": len(pairs), "change_wins": wins,
            "parent_median": round(sp["median"], 4),
            "change_median": round(sc["median"], 4),
            "parent_quartiles": [round(v, 4) for v in sp["quartiles"]],
            "change_quartiles": [round(v, 4) for v in sc["quartiles"]],
            "parent_iqr": round(sp["iqr"], 4),
            "change_iqr": round(sc["iqr"], 4),
            "median_change_over_parent": round(sc["median"] / sp["median"], 4),
            "parent_range": [round(v, 4) for v in sp["range"]],
            "change_range": [round(v, 4) for v in sc["range"]]}
    out["round_walls"] = {}
    for side in ("parent", "change"):
        walls = [r["round_walls"] for r in runs if r["side"] == side]
        later = [w for ws in walls for w in ws[1:]]
        out["round_walls"][side] = {
            "first_median": round(statistics.median(ws[0] for ws in walls), 4),
            "later_median": round(statistics.median(later), 4) if later else None,
            "later_rounds": len(later)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    roots = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            line, walls = run_once(roots[side], args.workload, seed,
                                   args.seconds)
            runs.append({"pair": pair, "seed": seed, "workload": args.workload,
                         "side": side, "first": order[0], "line": line,
                         "round_walls": walls})
            print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    ops = {side: [{k: r["line"][k] for k in ("attempted", "failed", "correct")}
                  for r in runs if r["side"] == side] for side in roots}
    print(json.dumps({"summary": {args.workload: summarize(metrics, runs)},
                      "operations": {args.workload: ops}, "runs": runs},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
