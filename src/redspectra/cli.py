"""Command-line front end.

    redspectra synth NAME [--tmax T] [--dt DT] [--out DIR]
    redspectra analyze SIGNAL.csv --kind KIND [--class CLS] [--grid a:b:s]
               [--config cfg.json] [--out report.json]
    redspectra verify [--builtin | CORPUS_DIR] [--only CHECK]
               [--config cfg.json] [--out results.json]

Exit codes: 0 success, 1 check failure, 2 input error.  Reports are
byte-deterministic for identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classes import FunctionClass
from .config import Config, DEFAULT
from .corpus import BUILDERS, build_signal
from .errors import ConfigError, RedSpectraError
from .io_utils import (canonical_json, read_signal_csv, sidecar_path,
                       write_kernel, write_plot_csv, write_signal_csv)
from .spectra import SignalAnalysis
from .theorems import CheckStatus, run_all

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR = 0, 1, 2

_KINDS = ("reduced", "beurling", "carleman", "laplace", "weak-laplace")
_CLASSES = {c.value: c for c in FunctionClass}


def _load_config(args) -> Config:
    cfg = Config.from_json(args.config) if args.config else DEFAULT
    overrides = {}
    grid = getattr(args, "grid", None)
    if grid:
        try:
            lo, hi, step = (float(x) for x in grid.split(":"))
        except ValueError as exc:
            raise ConfigError(f"--grid wants min:max:step, got {grid!r}") from exc
        overrides.update(grid_min=lo, grid_max=hi, grid_step=step)
    for key, flag in (("t_end", "tmax"), ("dt", "dt")):
        if getattr(args, flag, None) is not None:
            overrides[key] = getattr(args, flag)
    return cfg.replace(**overrides) if overrides else cfg


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    if args.name not in BUILDERS:
        raise ConfigError(f"unknown corpus signal {args.name!r}; choose "
                          f"from: {', '.join(sorted(BUILDERS))}")
    entry = build_signal(args.name, cfg)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for tag, sig in (("", entry.half), ("_full", entry.full)):
        if sig is None:
            continue
        path = os.path.join(args.out, f"{args.name}{tag}.csv")
        write_signal_csv(path, sig)
        meta = {"name": entry.name, "description": entry.description,
                "domain": sig.domain.value,
                "growth_exponent": sig.growth_exponent,
                "dt": sig.dt, "t0": sig.t0, "t_end": sig.t_end,
                "expectations": list(entry.expectations),
                "meta": entry.meta}
        if entry.extra_kernels:
            meta["kernels"] = [k.kernel_id for k in entry.extra_kernels]
        with open(sidecar_path(path), "w") as fh:
            fh.write(canonical_json(meta) + "\n")
        written.append(path)
    for k in entry.extra_kernels:
        slug = "".join(ch if ch.isalnum() else "_" for ch in k.kernel_id)
        kp = os.path.join(args.out, f"{args.name}_{slug.strip('_')}.csv")
        write_kernel(kp, k, cfg.dt)
        written.append(kp)
    print("\n".join(written))
    return EXIT_OK


def _check_out_dir(path):
    """Refuse, before any work, a report path that is a directory or whose
    directory is missing."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise NotADirectoryError(f"output directory {parent} does not exist")


def cmd_analyze(args) -> int:
    kind = args.kind
    if kind == "reduced" and args.cls is None:
        raise ConfigError("--class is required for --kind reduced")
    if kind != "reduced" and args.cls is not None:
        raise ConfigError("--class applies only to --kind reduced")
    cfg = _load_config(args)
    out = args.out or (os.path.splitext(args.signal)[0] + f".{kind}.json")
    plot = os.path.splitext(out)[0] + ".csv"
    _check_out_dir(out)
    # neither output may land on the record, its sidecar or the other
    taken = {os.path.realpath(args.signal): "the input record",
             os.path.realpath(sidecar_path(args.signal)): "its sidecar"}
    for what, path in (("report", out), ("plot CSV", plot)):
        if (real := os.path.realpath(path)) in taken:
            raise FileExistsError(f"the {what} {path} would overwrite "
                                  f"{taken[real]}")
        taken[real] = "the report"
    sig = read_signal_csv(args.signal)
    an = SignalAnalysis(sig, cfg)
    if kind == "reduced":
        est = an.reduced(_CLASSES[args.cls])
    else:
        est = {"beurling": an.beurling, "carleman": an.carleman,
               "laplace": an.laplace,
               "weak-laplace": an.weak_laplace}[kind]()
    with open(out, "w") as fh:
        fh.write(canonical_json(est.to_dict()) + "\n")
    write_plot_csv(plot, est)
    print(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.builtin and args.corpus:
        raise ConfigError("give a corpus directory or --builtin, not both")
    cfg = _load_config(args)
    if args.out:
        _check_out_dir(args.out)
    if not (args.builtin or args.corpus):
        raise ConfigError("give a corpus directory or --builtin")
    records = None if args.builtin else _load_corpus_dir(args.corpus)
    results = run_all(cfg, only=args.only, records=records)
    text = canonical_json([r.to_dict() for r in results]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    n = {s: sum(r.status is s for r in results) for s in CheckStatus}
    print(", ".join(f"{k} {s.value}" for s, k in n.items()), file=sys.stderr)
    return EXIT_CHECK_FAILED if n[CheckStatus.FAIL] else EXIT_OK


def _load_corpus_dir(path) -> dict:
    """The records of a corpus directory (synthesized or user-edited) by
    file stem: ``NAME.csv`` and ``NAME_full.csv`` for each corpus signal
    NAME, in corpus order.  They replace the built-in records of those
    names; any other file is ignored."""
    if not os.path.isdir(path):
        raise NotADirectoryError(f"corpus directory {path} does not exist")
    records = {}
    for stem in (name + tag for name in BUILDERS for tag in ("", "_full")):
        csv = os.path.join(path, f"{stem}.csv")
        if os.path.exists(csv):
            records[stem] = read_signal_csv(csv)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="redspectra",
        description="Spectra of sampled signals: reduced Beurling, Carleman, "
                    "Laplace and weak-Laplace engines, asymptotic class "
                    "detectors, and the built-in verification suite.")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="write a corpus signal to CSV + JSON")
    ps.add_argument("name")
    ps.add_argument("--tmax", type=float, default=None)
    ps.add_argument("--dt", type=float, default=None)
    ps.add_argument("--out", default=".")
    ps.add_argument("--config", default=None)
    ps.set_defaults(fn=cmd_synth)

    pa = sub.add_parser("analyze", help="estimate a spectrum of a signal file")
    pa.add_argument("signal")
    pa.add_argument("--kind", choices=_KINDS, required=True)
    pa.add_argument("--class", dest="cls", choices=sorted(_CLASSES),
                    default=None)
    pa.add_argument("--grid", default=None, help="min:max:step")
    pa.add_argument("--config", default=None)
    pa.add_argument("--out", default=None)
    pa.set_defaults(fn=cmd_analyze)

    pv = sub.add_parser("verify", help="run the theorem checks")
    pv.add_argument("corpus", nargs="?", default=None)
    pv.add_argument("--builtin", action="store_true")
    pv.add_argument("--only", default=None)
    pv.add_argument("--grid", default=None)
    pv.add_argument("--config", default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (RedSpectraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
