"""Benchmark of the redspectra command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one fresh process.  Set-up imports the package and, for the
analyze workloads, writes the input records with `synth`; then whole
rounds of `redspectra.cli.main(argv)` calls run until S seconds have
passed.  Every output is checked against closed-form properties of its
signal (see workloads.py).  The last line of standard output is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics (from the
span tracer in tracing.py) with --trace 1.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2            # extra set-ups in child processes; median of 3
PROBE_TIMEOUT_S = 120

sys.path.insert(0, HERE)
import workloads as W  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (program missing, set-up failed)."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import the package from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "redspectra", "cli.py")):
        raise BenchError(f"no redspectra sources under {SRC}")
    sys.path.insert(0, SRC)
    import redspectra.cli
    import redspectra.spectra   # imported lazily by `analyze`
    import redspectra.theorems  # imported lazily by `verify`
    if not os.path.abspath(redspectra.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"redspectra imported from {redspectra.cli.__file__}")
    return redspectra.cli


def cli_call(cli, argv):
    """Run one CLI call with its output captured; returns the exit code,
    or the repr of the exception it raised."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed operation
            return repr(exc)


class Run:
    """One workload's inputs and rounds, with files under ``work``."""

    def __init__(self, args, work):
        self.ops = W.WORKLOADS[args.workload]
        self.data = os.path.join(work, "data")
        self.fixed = os.path.join(work, "fixed")
        self.reports = os.path.join(work, "reports")
        os.makedirs(self.reports, exist_ok=True)
        self.config = W.write_config(os.path.join(work, "config.json"),
                                     args.seed)
        self.tracer = None

    def _traced(self, name, argv):
        sid = self.tracer.root(name) if self.tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        rc = cli_call(self.cli, argv)
        t1, c1 = time.perf_counter(), time.process_time()
        if sid is not None:
            self.tracer.close(sid)
        return rc, t1 - t0, c1 - c0

    def setup(self, cli):
        """Write the input records; the default-seed ones without --config."""
        self.cli = cli
        seeded, fixed = W.synth_names(self.ops)
        for names, out, extra in ((seeded, self.data, ["--config", self.config]),
                                  (fixed, self.fixed, [])):
            for name in names:
                rc, _, _ = self._traced("cli.synth",
                                        ["synth", name, "--out", out] + extra)
                if rc != 0:
                    raise BenchError(f"synth {name} exited {rc}")

    def round(self):
        """One whole round of the roster: (wall, cpu, attempted, failed,
        unexpected failures, digest lines)."""
        if not self.ops:
            return self._verify_round()
        wall = cpu = 0.0
        failed, bad, lines = 0, [], []
        for i, op in enumerate(self.ops):
            src = self.fixed if op.fixed_seed else self.data
            out = os.path.join(self.reports, f"{i:02d}.json")
            argv = ["analyze", os.path.join(src, f"{op.record}.csv"),
                    "--kind", op.kind, "--config", self.config, "--out", out]
            if op.cls:
                argv[4:4] = ["--class", op.cls]
            rc, dt, dc = self._traced(f"cli.analyze.{op.cli_kind}", argv)
            wall, cpu = wall + dt, cpu + dc
            msg = f"exit {rc}" if rc != 0 else None
            if msg is None:
                try:
                    statuses = W.read_statuses(out)
                except (OSError, ValueError, KeyError) as exc:
                    statuses, msg = None, f"unreadable report: {exc}"
            if msg is None:
                lines.append(W.tri_line(op.label, statuses))
                msg = op.check(statuses) if op.check else None
            if msg is not None:
                failed += 1
                if op.label not in W.KNOWN_FAULTS:
                    bad.append(f"{op.label}: {msg}")
            elif op.label in W.KNOWN_FAULTS:
                print(f"note: known fault {op.label} no longer shows",
                      file=sys.stderr)
        return wall, cpu, len(self.ops), failed, bad, lines

    def _verify_round(self):
        out = os.path.join(self.reports, "results.json")
        rc, wall, cpu = self._traced(
            "cli.verify",
            ["verify", "--builtin", "--out", out])
        if rc not in (0, 1):
            n = W.VERIFY_CHECKS
            return wall, cpu, n, n, [f"verify exited {rc}"], []
        lines = W.verify_lines(out)
        fails = [ln for ln in lines if ln.endswith(" fail")]
        failed = len(fails) + max(0, W.VERIFY_CHECKS - len(lines))
        bad = [f"verify: {ln}" for ln in fails]
        if len(lines) != W.VERIFY_CHECKS:
            bad.append(f"verify ran {len(lines)} checks, not {W.VERIFY_CHECKS}")
        if rc != (1 if fails else 0):
            bad.append(f"verify exited {rc} with {len(fails)} failing checks")
        with open(out, "rb") as fh:
            lines.append("results.json sha256 " + hashlib.sha256(fh.read()).hexdigest())
        return wall, cpu, W.VERIFY_CHECKS, failed, bad, lines


def probe_setups(args, work):
    """Repeat the whole set-up in fresh child processes; their times."""
    times = []
    for k in range(SETUP_PROBES):
        pdir = os.path.join(work, f"probe{k}")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-probe", pdir]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchError(f"set-up probe exited {res.returncode}: "
                             f"{res.stderr.strip()[-500:]}")
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(pdir, ignore_errors=True)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, setup_calls, setup_counters, rounds):
    """Per-layer values: set-up work once plus round work per round.  A
    `.s` value is self time, except for the cli rows, which are whole
    traced call times; `.calls` counts spans."""
    from tracing import PER_LAYER, span_cost
    selfs, worst = tracer.self_times()
    vals = defaultdict(float)
    round_spans = 0
    for (name, parent, call, t0, t1), s in zip(tracer.spans, selfs):
        share = 1.0 if call < setup_calls else 1.0 / rounds
        round_spans += call >= setup_calls
        vals[f"{name}.s"] += (t1 - t0 if name.startswith("cli.") else s) * share
        vals[f"{name}.calls"] += share
    c = {k: setup_counters.get(k, 0.0) + (v - setup_counters.get(k, 0.0)) / rounds
         for k, v in tracer.counters.items()}
    for key in ("transforms.eval_gb_computed", "io_utils.read_signal_csv.mb",
                "io_utils.write_signal_csv.mb"):
        vals[key] = c.get(key, 0.0)
    madds = c.get("spectra.ladder.madds", 0.0)
    vals["spectra.ladder.gmadds_computed"] = madds / 1e9
    vals["spectra.ladder.useful_share"] = (
        c["spectra.ladder.useful_madds"] / madds if madds else 0.0)
    vals["trace.overhead_s"] = span_cost() * round_spans / rounds
    return {name: metric(float(vals[name]), unit)
            for name, unit, _ in PER_LAYER if name != "cli.cpu_s"}, worst


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            cli = import_program()
            Run(args, args.setup_probe).setup(cli)
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def bench(args) -> int:
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(OUT, tag)
    cli = import_program()
    shutil.rmtree(work, ignore_errors=True)
    run = Run(args, work)
    if args.trace:
        from tracing import Tracer
        run.tracer = Tracer()
        run.tracer.install()
    run.setup(cli)
    setup_s = time.perf_counter() - T_START
    setup_calls = run.tracer.call + 1 if run.tracer else 0
    setup_counters = dict(run.tracer.counters) if run.tracer else {}

    walls, cpus, attempted, failed, problems, first = [], [], 0, 0, [], None
    t_begin = time.perf_counter()
    while True:
        wall, cpu, n, nf, bad, lines = run.round()
        walls.append(wall)
        cpus.append(cpu)
        attempted, failed = attempted + n, failed + nf
        problems += bad
        if first is None:
            first = lines
        elif lines != first:
            problems.append("outputs differ between rounds")
        print(f"round {len(walls)}: {wall:.3f} s wall, {cpu:.3f} s cpu, "
              f"{nf}/{n} failed",
              file=sys.stderr)
        if time.perf_counter() - t_begin >= args.seconds:
            break

    digest = W.digest(first)
    with open(os.path.join(OUT, f"{tag}.digest"), "w") as fh:
        fh.write("\n".join(first) + f"\ndigest {digest}\n")
    print(f"digest {digest}", file=sys.stderr)

    if args.trace:
        metrics, worst = layer_metrics(run.tracer, setup_calls, setup_counters,
                                       len(walls))
        metrics["cli.cpu_s"] = metric(statistics.median(cpus), "s")
        if worst > 1e-6:
            problems.append(f"self times miss a call's wall time by {worst:.3g} s")
        from tracing import exp_iw1_errors
        err = exp_iw1_errors(run.tracer.exp_iw1_samples)
        print(f"right_values on exp_iw1: {len(run.tracer.exp_iw1_samples)} "
              f"calls, largest relative gap {err:.3g}", file=sys.stderr)
        if err > 1e-8:
            problems.append(f"right_values on exp_iw1 off the closed form by {err:.3g}")
        run.tracer.write(os.path.join(OUT, f"{tag}.spans.tsv"))
    else:
        setups = [setup_s] + probe_setups(args, work)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {"setup_s": metric(statistics.median(setups), "s"),
                   "wall_s": metric(statistics.median(walls), "s"),
                   "peak_rss_mb": metric(peak_mb, "MB")}
    shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
