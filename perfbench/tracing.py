"""Span tracer for the traced run.

Wrappers are installed from outside the program: each patches a public
function (or method) under every name it is looked up by, records a span
(name, parent, CLI call, start, end) and, for a few layers, a counter
derived from argument shapes.  Two stages with no public entry are
wrapped by their private names: the Cauchy-circle test
(``spectra._cauchy_circle_errors``) and the rung split of
``ReducedScanner.band_output`` by its ``delta`` argument.

Spans stay in memory until the run ends; ``Tracer.self_times`` turns
them into self times.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: check function -> check id, as `theorems.run_all` names them
THEOREM_CHECKS = {
    "check_inclusion_chain": "inclusion-chain",
    "check_modulation_shift": "spectral-algebra",
    "check_translation_invariance": "spectral-algebra",
    "check_convolution_shrinking": "spectral-algebra",
    "check_mollifier_union": "mollifier-union",
    "check_ergodic_theorem": "ergodic-theorem",
    "check_tauberian": "tauberian",
    "check_regular_ft": "regular-ft",
    "check_transform_identities": "transform-identities",
    "check_evolution_spectrum": "evolution",
}

#: (module, function, span name) for plain functions
FUNCTIONS = (
    ("spectra", "reduced_spectrum", "spectra.reduced_spectrum"),
    ("spectra", "laplace_spectrum", "spectra.laplace_spectrum"),
    ("spectra", "weak_laplace_spectrum", "spectra.weak_laplace_spectrum"),
    ("spectra", "carleman_spectrum", "spectra.carleman_spectrum"),
    ("spectra", "_cauchy_circle_errors", "spectra.circle_test"),
    ("transforms", "half_plane_scan", "transforms.half_plane_scan"),
    ("classes", "detect", "classes.detect"),
    ("classes", "ap_decompose", "classes.ap_decompose"),
    ("classes", "bohr_coefficient", "classes.bohr_coefficient"),
    ("classes", "ergodic_mean", "classes.ergodic_mean"),
    ("signals", "convolve", "signals.convolve"),
    ("signals", "modulate", "signals.modulate"),
    ("kernels", "bandpass_kernel", "kernels.bandpass_kernel"),
    ("kernels", "bump_kernel", "kernels.bump_kernel"),
    ("io_utils", "read_signal_csv", "io_utils.read_signal_csv"),
    ("io_utils", "write_signal_csv", "io_utils.write_signal_csv"),
    ("io_utils", "canonical_json", "io_utils.canonical_json"),
    ("corpus", "build_corpus", "corpus.build_corpus"),
) + tuple(("theorems", fn, f"theorems.{cid}")
          for fn, cid in THEOREM_CHECKS.items())

#: per-layer metrics, in report order: (name, unit, better)
PER_LAYER = [
    ("spectra.reduced_spectrum.s", "s", "lower"),
    ("spectra.test_regular.calls", "count", "lower"),
    ("spectra.ladder.rung0.s", "s", "lower"),
    ("spectra.ladder.deep.s", "s", "lower"),
    ("spectra.ladder.deep.calls", "count", "lower"),
    ("spectra.ladder.gmadds_computed", "Gmadd", "lower"),
    ("spectra.ladder.useful_share", "ratio", "higher"),
    ("spectra.laplace_spectrum.s", "s", "lower"),
    ("spectra.weak_laplace_spectrum.s", "s", "lower"),
    ("spectra.carleman_spectrum.s", "s", "lower"),
    ("spectra.circle_test.s", "s", "lower"),
    ("transforms.scanner_build.s", "s", "lower"),
    ("transforms.scanner_build.calls", "count", "lower"),
    ("transforms.right_values.s", "s", "lower"),
    ("transforms.right_values.calls", "count", "lower"),
    ("transforms.left_values.s", "s", "lower"),
    ("transforms.half_plane_scan.s", "s", "lower"),
    ("transforms.eval_gb_computed", "GB", "lower"),
    ("classes.detect.s", "s", "lower"),
    ("classes.detect.calls", "count", "lower"),
    ("classes.ap_decompose.s", "s", "lower"),
    ("classes.bohr_coefficient.s", "s", "lower"),
    ("classes.bohr_coefficient.calls", "count", "lower"),
    ("classes.ergodic_mean.s", "s", "lower"),
    ("signals.convolve.s", "s", "lower"),
    ("signals.convolve.calls", "count", "lower"),
    ("signals.modulate.calls", "count", "lower"),
    ("kernels.bandpass_kernel.s", "s", "lower"),
    ("kernels.bandpass_kernel.calls", "count", "lower"),
    ("kernels.bump_kernel.s", "s", "lower"),
    ("io_utils.read_signal_csv.s", "s", "lower"),
    ("io_utils.read_signal_csv.mb", "MB", "lower"),
    ("io_utils.write_signal_csv.s", "s", "lower"),
    ("io_utils.write_signal_csv.mb", "MB", "lower"),
    ("io_utils.canonical_json.s", "s", "lower"),
    ("corpus.build_corpus.s", "s", "lower"),
    ("corpus.build_corpus.calls", "count", "lower"),
] + [(f"theorems.{cid}.s", "s", "lower")
     for cid in dict.fromkeys(THEOREM_CHECKS.values())] + [
    ("cli.analyze.laplace.s", "s", "lower"),
    ("cli.analyze.weak-laplace.s", "s", "lower"),
    ("cli.analyze.carleman.s", "s", "lower"),
    ("cli.analyze.reduced-c0.s", "s", "lower"),
    ("cli.analyze.reduced-aap.s", "s", "lower"),
    ("cli.analyze.beurling.s", "s", "lower"),
    ("cli.synth.s", "s", "lower"),
    ("cli.verify.s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder with shape-derived counters."""

    def __init__(self):
        self.spans = []          # [name, parent, call, start, end]
        self.stack = []
        self.call = -1
        self.counters = defaultdict(float)
        self.exp_iw1_samples = []   # (zeta, omegas, dt, n, values)
        self._useful_cols = {}

    # -- spans -----------------------------------------------------------
    def open(self, name) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           self.call, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def root(self, name):
        """Open the span of one CLI call; returns its id."""
        self.call += 1
        return self.open(name)

    def wrap(self, name, fn, namer=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(namer(args, kwargs) if namer else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        """Patch every traced entry point where it is looked up."""
        from redspectra import spectra, transforms
        pkg = {n: m for n, m in sys.modules.items()
               if n == "redspectra" or n.startswith("redspectra.")}
        for mod, fn, span in FUNCTIONS:
            orig = getattr(pkg[f"redspectra.{mod}"], fn)
            after = self._file_mb(span) if mod == "io_utils" and "csv" in fn else None
            wrapped = self.wrap(span, orig, after=after)
            for m in pkg.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

        TS, RS = transforms.TransformScanner, spectra.ReducedScanner
        TS.__init__ = self.wrap("transforms.scanner_build", TS.__init__,
                                after=self._note_scanner)
        TS.right_values = self.wrap("transforms.right_values", TS.right_values,
                                    after=self._right_values)
        TS.left_values = self.wrap("transforms.left_values", TS.left_values,
                                   after=self._left_values)
        RS.test_regular = self.wrap("spectra.test_regular", RS.test_regular)
        RS.band_output = self._wrap_band_output(RS.band_output)

    def _file_mb(self, span):
        def after(args, out):
            self.counters[f"{span}.mb"] += os.path.getsize(args[0]) / 1e6
        return after

    def _note_scanner(self, args, out):
        sc = args[0]
        F = sc.F
        t = F.t0 + F.dt * np.arange(F.n)
        sc._bench_exp_iw1 = bool(
            F.t0 == 0.0 and F.dim == 1
            and np.max(np.abs(F.values[:, 0] - np.exp(1j * t))) < 1e-9)

    def _right_values(self, args, out):
        sc, zeta = args[0], args[1]
        self.counters["transforms.eval_gb_computed"] += sc._E_pos.nbytes / 1e9
        if getattr(sc, "_bench_exp_iw1", False):
            self.exp_iw1_samples.append((complex(zeta), sc.omegas.copy(),
                                         sc.F.dt, sc.F.n, out[:, 0].copy()))

    def _left_values(self, args, out):
        self.counters["transforms.eval_gb_computed"] += args[0]._E_neg.nbytes / 1e9

    def _wrap_band_output(self, orig):
        """Split band_output into rung 0 (the batched first bandwidth) and
        the deep rungs, and count the multiply-adds of each matrix product
        actually computed (cache misses), and how many of them touch record
        samples rather than zero padding or the zero extension."""
        def namer(args, kwargs):
            sc, delta = args[0], args[1]
            first = abs(delta - sc.cfg.delta_seq[0]) < 1e-12
            return "spectra.ladder.rung0" if first else "spectra.ladder.deep"

        traced = self.wrap(None, orig, namer=namer)

        def band_output(sc, delta, j):
            batch = abs(delta - sc.cfg.delta_seq[0]) < 1e-12
            ckey = ("col", round(delta, 12), None if batch else j)
            fresh = ckey not in sc._band_cache
            out = traced(sc, delta, j)
            if fresh:
                geom = sc._band_cache[("geom", round(delta, 12))]
                count, m = geom[2][0].shape
                width = (len(sc.omegas) if batch else 1) * len(geom[2])
                self.counters["spectra.ladder.madds"] += count * m * width
                self.counters["spectra.ladder.useful_madds"] += \
                    self._useful(sc, geom) * width
            return out
        return band_output

    def _useful(self, sc, geom) -> int:
        """Strided-view entries whose sample time lies on the record: row
        r (output time t0 + r*step) meets tap s at sample time t - s."""
        key = id(geom)
        if key not in self._useful_cols:
            t0, step, views, s_rev = geom[0], geom[1], geom[2], geom[3]
            s = s_rev[::-1]
            F = sc.F
            eps = 1e-9 * F.dt
            t_out = t0 + step * np.arange(views[0].shape[0])
            hi = np.searchsorted(s, t_out - F.t0 + eps, side="right")
            lo = np.searchsorted(s, t_out - F.t_end - eps, side="left")
            self._useful_cols[key] = (geom, int(np.sum(hi - lo)))
        return self._useful_cols[key][1]

    # -- reduction ---------------------------------------------------------
    def self_times(self):
        """Self time of every span (its duration minus its children's), and
        the largest gap, over all CLI calls, between the sum of a call's
        self times and its root span's duration (zero up to rounding)."""
        child = [0.0] * len(self.spans)
        for name, parent, call, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selfs = [(t1 - t0) - c for (_, _, _, t0, t1), c in zip(self.spans, child)]
        per_call, roots = defaultdict(float), {}
        for (name, parent, call, t0, t1), s in zip(self.spans, selfs):
            per_call[call] += s
            if parent < 0:
                roots[call] = t1 - t0
        worst = max((abs(per_call[c] - d) for c, d in roots.items()),
                    default=0.0)
        return selfs, worst

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tcall\tstart\tend\n")
            for sid, (name, parent, call, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{parent}\t{call}\t{t0:.9f}\t{t1:.9f}\n")


def span_cost(n: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None
    tr = Tracer()
    tr.call = 0
    wrapped = tr.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
        tr.spans.clear()
    return max(best, 0.0)


def exp_iw1_errors(samples) -> float:
    """Largest relative gap between the scanner's right_values on the
    exp(i t) record and the closed-form trapezoid sum over [0, T]:

        dt * (sum_{k<=N} z^k - (1 + z^N)/2),  z = exp(-(zeta + i(w-1)) dt).
    """
    worst = 0.0
    for zeta, omegas, dt, n, vals in samples:
        N = n - 1
        z = np.exp(-(zeta + 1j * (omegas - 1.0)) * dt)
        zN = z ** N
        ref = dt * ((1.0 - zN * z) / (1.0 - z) - 0.5 * (1.0 + zN))
        worst = max(worst, float(np.max(np.abs(vals - ref))
                                 / max(np.max(np.abs(ref)), 1e-300)))
    return worst
