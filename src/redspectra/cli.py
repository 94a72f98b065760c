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
from .corpus import BUILDERS, build_corpus, build_signal
from .errors import ConfigError, ParseError, RedSpectraError
from .io_utils import (canonical_json, read_signal_csv, sidecar_path,
                       write_kernel, write_plot_csv, write_signal_csv)
from .signals import Domain

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR = 0, 1, 2

_KINDS = ("reduced", "beurling", "carleman", "laplace", "weak-laplace")
_CLASSES = {c.value: c for c in FunctionClass}


def _load_config(args) -> Config:
    cfg = Config.from_json(args.config) if getattr(args, "config", None) else DEFAULT
    overrides = {}
    grid = getattr(args, "grid", None)
    if grid:
        try:
            lo, hi, step = (float(x) for x in grid.split(":"))
        except ValueError as exc:
            raise ConfigError(f"--grid wants min:max:step, got {grid!r}") from exc
        overrides.update(grid_min=lo, grid_max=hi, grid_step=step)
    if getattr(args, "tmax", None):
        overrides["t_end"] = args.tmax
    if getattr(args, "dt", None):
        overrides["dt"] = args.dt
    return cfg.replace(**overrides) if overrides else cfg


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    if args.name not in BUILDERS:
        print(f"unknown corpus signal {args.name!r}; choose from: "
              f"{', '.join(sorted(BUILDERS))}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
        kp = os.path.join(args.out, f"{args.name}_{_slug(k.kernel_id)}.csv")
        write_kernel(kp, k, cfg.dt)
        written.append(kp)
    for p in written:
        print(p)
    return EXIT_OK


def _slug(s: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in s).strip("_")


def cmd_analyze(args) -> int:
    from .spectra import (FrequencyGrid, ReducedScanner, beurling_spectrum,
                          carleman_spectrum, laplace_spectrum,
                          reduced_spectrum, weak_laplace_spectrum)
    cfg = _load_config(args)
    try:
        sig = read_signal_csv(args.signal)
    except (ParseError, OSError, RedSpectraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    grid = FrequencyGrid.from_config(cfg)
    kind = args.kind
    try:
        if kind == "reduced":
            if not args.cls:
                print("error: --class is required for --kind reduced",
                      file=sys.stderr)
                return EXIT_INPUT_ERROR
            cls = _CLASSES[args.cls]
            candidates = None
            # one scanner: the class pass reuses the C0 pass's ladder
            sc = ReducedScanner(sig, grid.values(), cfg)
            if cls in (FunctionClass.AP, FunctionClass.AAP):
                candidates = reduced_spectrum(
                    sig, FunctionClass.C0, grid, cfg,
                    scanner=sc).singular_clusters()
            est = reduced_spectrum(sig, cls, grid, cfg, candidates=candidates,
                                   scanner=sc)
        elif kind == "beurling":
            est = beurling_spectrum(sig, grid, cfg)
        elif kind == "carleman":
            F = sig
            if sig.domain is Domain.HALF_LINE:
                from .signals import extend_by_zero
                F = extend_by_zero(sig)
            est = carleman_spectrum(F, grid, cfg)
        elif kind == "laplace":
            est = laplace_spectrum(sig, grid, cfg)
        elif kind == "weak-laplace":
            est = weak_laplace_spectrum(sig, grid, cfg)
        else:  # pragma: no cover - argparse restricts choices
            return EXIT_INPUT_ERROR
    except RedSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = args.out or (os.path.splitext(args.signal)[0] + f".{kind}.json")
    with open(out, "w") as fh:
        fh.write(canonical_json(est.to_dict()) + "\n")
    write_plot_csv(os.path.splitext(out)[0] + ".csv", est)
    print(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .theorems import CheckStatus, run_all
    cfg = _load_config(args)
    corpus = None
    if not args.builtin:
        if not args.corpus:
            print("error: give a corpus directory or --builtin", file=sys.stderr)
            return EXIT_INPUT_ERROR
        try:
            corpus = _load_corpus_dir(args.corpus, cfg)
        except (ParseError, OSError, RedSpectraError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    results = run_all(cfg, only=args.only, corpus=corpus)
    payload = [r.to_dict() for r in results]
    text = canonical_json(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    n_fail = sum(1 for r in results if r.status is CheckStatus.FAIL)
    n_pass = sum(1 for r in results if r.status is CheckStatus.PASS)
    n_vac = len(results) - n_fail - n_pass
    print(f"{n_pass} pass, {n_fail} fail, {n_vac} vacuous", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


def _load_corpus_dir(path, cfg):
    """Rebuild the built-in corpus but override records present as CSV
    files in the directory (synthesized or user-edited)."""
    import dataclasses
    corpus = build_corpus(cfg)
    out = dict(corpus)
    for name, entry in corpus.items():
        csv = os.path.join(path, f"{name}.csv")
        full_csv = os.path.join(path, f"{name}_full.csv")
        half = read_signal_csv(csv) if os.path.exists(csv) else entry.half
        full = read_signal_csv(full_csv) if os.path.exists(full_csv) else entry.full
        out[name] = dataclasses.replace(entry, half=half, full=full)
    return out


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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
