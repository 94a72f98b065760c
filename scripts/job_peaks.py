#!/usr/bin/env python3
"""Print the time and the peak RSS after each job of ``verify --builtin``.

Usage:
    PYTHONPATH=src python scripts/job_peaks.py

Runs ``theorems.run_all`` at the default configuration in this process,
with every check function of the roster wrapped by name (``run_all``
looks each one up in ``theorems`` when it runs it).  The first line is
the process's ``ru_maxrss`` after the imports; then one line per job,
in the order ``run_all`` runs them: one subject at a time, subjects in
order of their first job in the report.  Each line gives the job's index
in that order, its check function, subject, wall time in seconds and the
process's ``ru_maxrss`` in MB once it has returned.  ``ru_maxrss`` is a
high-water mark, so a job whose figure rises above the line before it
set a new peak.  The last line names the first job that reached the
run's peak.  The run takes as long as ``verify --builtin`` (6-8 s on
2 cores).
"""

import resource
import sys
import time

from redspectra import theorems
from redspectra.config import Config


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    rows = []       # (label, seconds, MB after)

    def timed(fn_name, check):
        def run(subject, *args, **kwargs):
            label = f"{fn_name} {subject.name}" + "".join(
                f" {a:g}" for a in args if isinstance(a, (int, float)))
            t0 = time.perf_counter()
            try:
                return check(subject, *args, **kwargs)
            finally:
                rows.append((label, time.perf_counter() - t0, maxrss_mb()))
                print(f"{len(rows) - 1:3d} {label} "
                      f"{rows[-1][1]:.3f} s {rows[-1][2]:.1f} MB", flush=True)
        return run

    names = [row[1] for row in theorems.CORPUS_ROSTER]
    for fn_name in dict.fromkeys(names + ["check_evolution_spectrum"]):
        setattr(theorems, fn_name, timed(fn_name, getattr(theorems, fn_name)))
    print(f"import {maxrss_mb():.1f} MB", flush=True)
    theorems.run_all(Config())
    peak = max(mb for _, _, mb in rows)
    i = next(i for i, (_, _, mb) in enumerate(rows) if mb == peak)
    print(f"peak {peak:.1f} MB at job {i}: {rows[i][0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
