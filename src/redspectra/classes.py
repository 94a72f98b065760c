"""Quantitative membership detectors for the asymptotic function classes:
zero, vanishing at infinity (C0), bounded, uniformly continuous, ergodic
(with or without zero mean), almost periodic, asymptotically almost
periodic and slowly oscillating.

Every detector returns a tri-state ``ClassReport``: YES requires the full
threshold trace to pass, NO requires an explicit witness violating the
defining bound by more than twice the tolerance, and anything in between
is UNDECIDED.  ``_verdict`` holds that rule once; each detector supplies
its statistic, any extra condition on YES or NO, and its witness.
UNDECIDED is a first-class answer on finite records and is never coerced.

ZERO, C0 and BOUNDED read row norms alone: ``norm_reports`` reduces each
column of the (rows, k) row norms of k records on one lattice (its sup,
its tail sups, the first argmax of its witness), so one call decides a
rung of the band-pass ladder; ``is_zero``, ``is_c0`` and ``is_bounded``
are its one-column calls.  The other detectors take one record at a time.

The AP split forms the Bohr sum of a record once (``_BohrSum``), and
each pass of its peel loop forms one sum of that pass's residual.  One
zero-padded FFT per sum gives |a| on a grid of a quarter of the main
lobe; every candidate window reads its bins there, and only a window
whose coarse maximum is interior is refined, by safeguarded Newton on
the derivative of |a|^2 between that maximum's neighbouring bins (search
coarsely, then refine inside the peak found, as in Rife & Boorstyn's
single-tone estimator, 1974).

Tolerances are relative to a reference scale.  For a detector applied to
a convolution output the reference is the *input* signal's sup norm (the
kernels are normalized to unit plateau), so "vanishing" means vanishing
relative to the data the kernel saw, not relative to the output's own
possibly tiny amplitude.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Config, DEFAULT
from .errors import HorizonError
from .signals import (WORK_BYTES, Domain, FactoredLattice, SampledSignal,
                      _cumulative, _next_fast_len, mollify)

TAIL_FRACTIONS = (0.45, 0.65, 0.85)
# membership thresholds, relative to the reference scale
TOL_C0 = 0.02            # C0: last tail sup
TOL_ERG = 0.04           # ergodic: mean deviation
TOL_BOHR = 1e-2          # AP: least Bohr coefficient kept
TOL_UC = 0.02            # UC: jump at the shortest lag
TOL_ZERO = 1e-6          # zero class, floored by Config.tol_zero_abs
DECAY_FACTOR = 0.9       # required tail-sup / deviation shrink for a Yes
ERG_WINDOW_FRAC = 0.5    # ergodic sup-window length / usable record
#: resolution of a refined Bohr frequency: the Newton search's absolute
#: tolerance and the lattice the refined frequency is rounded onto
XATOL = 1e-7


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


class FunctionClass(enum.Enum):
    ZERO = "zero"
    C0 = "c0"
    BOUNDED = "bounded"
    UC = "uc"
    ERGODIC = "ergodic"
    ERGODIC_MEAN_ZERO = "ergodic_mean_zero"
    AP = "ap"
    AAP = "aap"
    SLOWLY_OSCILLATING = "slowly_oscillating"


@dataclass(frozen=True)
class ClassReport:
    cls: FunctionClass
    member: Tri
    evidence: dict
    tolerances: dict

    def to_dict(self):
        return {"class": self.cls.value, "member": self.member.value,
                "evidence": self.evidence, "tolerances": self.tolerances}


def _verdict(cls: FunctionClass, stat: float, tol: float, ev: dict, tols: dict,
             witness, yes: bool = True, no: bool = True) -> ClassReport:
    """The tri-state rule: YES when ``stat <= tol`` and ``yes``; NO when
    ``stat > 2 tol`` and ``no``, with ``witness()`` added to the evidence;
    UNDECIDED otherwise."""
    if stat <= tol and yes:
        return ClassReport(cls, Tri.YES, ev, tols)
    if stat > 2.0 * tol and no:
        ev["witness"] = witness()
        return ClassReport(cls, Tri.NO, ev, tols)
    return ClassReport(cls, Tri.UNDECIDED, ev, tols)


def _peak(norms: np.ndarray, times: np.ndarray, mask=None) -> dict:
    """Witness: time and norm of the first largest of ``norms`` within
    ``mask``."""
    idx = int(np.argmax(norms)) if mask is None \
        else np.flatnonzero(mask)[np.argmax(norms[mask])]
    return {"t": float(times[idx]), "norm": float(norms[idx])}


# ---------------------------------------------------------------------------
# zero, C0 and bounded: column reductions of row norms
# ---------------------------------------------------------------------------

#: the classes decided from a record's row norms alone
NORM_CLASSES = (FunctionClass.ZERO, FunctionClass.C0, FunctionClass.BOUNDED)


def _column_max(N: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each column's max of the row norms N over the rows selected by the
    boolean ``rows``; 0.0 where it selects none (norms are >= 0)."""
    return N.max(axis=0, where=rows[:, None], initial=0.0)


def _one(reports: list) -> ClassReport:
    """The report of a one-column ``norm_reports``; its refusal raised."""
    rep, = reports
    if isinstance(rep, HorizonError):
        raise rep
    return rep


def norm_reports(cls: FunctionClass, F: SampledSignal, N: np.ndarray,
                 cfg: Config = DEFAULT, scale_ref: float | None = None,
                 trunc_bound: float = 0.0) -> list:
    """The ZERO, C0 or BOUNDED report of each of k records on F's lattice
    (F's values are not read), given as N, the (F.n, k) matrix of their
    row norms.  Every statistic reduces one column, so a record's report
    does not depend on which records share the call; with ``scale_ref``
    None each record is its own scale.  An entry is the HorizonError
    that refuses its record when the lattice cannot carry the test."""
    if cls is FunctionClass.ZERO:
        return _zero_reports(F, N, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.C0:
        return _c0_reports(F, N, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.BOUNDED:
        return _bounded_reports(N, F.times, cfg, scale_ref)
    raise ValueError(f"{cls} is not decided from row norms")


def _tail(F: SampledSignal, T: float) -> np.ndarray:
    """Mask of the samples with t >= T (|t| >= T on the full line)."""
    t = F.times
    return t >= T if F.domain is Domain.HALF_LINE else np.abs(t) >= T


def _tail_sups(F: SampledSignal, N: np.ndarray, checkpoints) -> list:
    """Per checkpoint T, each column's sup of the row norms N over [T,
    t_end] of F's lattice (both tails on the full line)."""
    out = []
    for T in checkpoints:
        if T > F.t_end + 1e-12:
            raise HorizonError(f"checkpoint {T} beyond record end {F.t_end}")
        out.append(_column_max(N, _tail(F, T)))
    return out


def _auto_checkpoints(F: SampledSignal, cfg: Config):
    if F.domain is Domain.HALF_LINE:
        span = F.t_end - F.t0
        base = F.t0
    else:
        span = max(abs(F.t0), abs(F.t_end))
        base = 0.0
    if span < cfg.min_window:
        raise HorizonError(f"record span {span:.1f}s below the minimum "
                           f"analysis window {cfg.min_window}s")
    return [base + f * span for f in TAIL_FRACTIONS]


def _c0_reports(F: SampledSignal, N: np.ndarray, cfg: Config,
                scale_ref, trunc_bound) -> list:
    """``is_c0`` of each column of N; a column that is not trivially small
    takes the HorizonError of a lattice too short for the checkpoints."""
    sups = N.max(axis=0)
    floor = max(cfg.tol_zero_abs, 2.0 * trunc_bound)
    checkpoints = tails = None
    if not (sups <= floor).all():
        try:
            checkpoints = _auto_checkpoints(F, cfg)
            tails = np.column_stack(_tail_sups(F, N, checkpoints)).tolist()
        except HorizonError as exc:
            tails = exc
    out = []
    for c, sup in enumerate(sups.tolist()):
        scale = sup if scale_ref is None else scale_ref
        tol = TOL_C0 * scale + 2.0 * trunc_bound
        tols = {"tol_c0": TOL_C0, "scale_ref": scale, "trunc_bound": trunc_bound}
        if sup <= floor:
            out.append(ClassReport(FunctionClass.C0, Tri.YES,
                                   {"sup": sup, "trivial": True}, tols))
            continue
        if isinstance(tails, HorizonError):
            out.append(tails)
            continue
        s = tails[c]
        ev = {"checkpoints": list(checkpoints), "tail_sups": s}
        decayed = s[0] <= tol or s[-1] <= DECAY_FACTOR * s[0]
        out.append(_verdict(
            FunctionClass.C0, s[-1], tol, ev, tols,
            lambda c=c: _peak(N[:, c], F.times, _tail(F, checkpoints[-1])),
            yes=decayed))
    return out


def is_c0(F: SampledSignal, cfg: Config = DEFAULT, scale_ref: float | None = None,
          trunc_bound: float = 0.0) -> ClassReport:
    """Does F vanish at infinity, as far as the record can tell?

    YES needs the last tail sup under tolerance and the tail sups to have
    genuinely decayed (or been small throughout); NO needs a sample in the
    final tail violating the bound by more than twice the tolerance.
    """
    return _one(_c0_reports(F, F.norms[:, None], cfg, scale_ref, trunc_bound))


def _zero_reports(F: SampledSignal, N: np.ndarray, cfg: Config,
                  scale_ref, trunc_bound) -> list:
    """``is_zero`` of each column of N."""
    out = []
    for c, sup in enumerate(N.max(axis=0).tolist()):
        scale = sup if scale_ref is None else scale_ref
        tol = max(cfg.tol_zero_abs, TOL_ZERO * scale, 2.0 * trunc_bound)
        tols = {"tol": tol, "scale_ref": scale, "trunc_bound": trunc_bound}
        out.append(_verdict(FunctionClass.ZERO, sup, tol, {"sup": sup}, tols,
                            lambda c=c: _peak(N[:, c], F.times)))
    return out


def is_zero(F: SampledSignal, cfg: Config = DEFAULT, scale_ref: float | None = None,
            trunc_bound: float = 0.0) -> ClassReport:
    return _one(_zero_reports(F, F.norms[:, None], cfg, scale_ref, trunc_bound))


def _bounded_reports(N: np.ndarray, times: np.ndarray, cfg: Config,
                     scale_ref) -> list:
    """``is_bounded`` of each column of N, the row norms at ``times``."""
    at = np.abs(times)
    qs = np.quantile(at, [0.5, 0.65, 0.8, 0.95])
    inner = N[at < qs[0]].max(axis=0)
    segs = np.column_stack([_column_max(N, (at >= lo) & (at < hi))
                            for lo, hi in zip(qs[:-1], qs[1:])]).tolist()
    out = []
    for c, (s_in, s) in enumerate(zip(inner.tolist(), segs)):
        scale = float(N[:, c].max()) if scale_ref is None else scale_ref
        ev = {"inner_sup": s_in, "segment_sups": s}
        tols = {"scale_ref": scale}
        member = Tri.UNDECIDED
        if s[-1] <= 1.3 * s_in + cfg.tol_zero_abs:
            member = Tri.YES
        elif s[-1] >= 1.4 * max(s[0], cfg.tol_zero_abs) and s[-1] >= 1.4 * s_in:
            member = Tri.NO
            ev["witness"] = _peak(N[:, c], times, at >= qs[-1])
        out.append(ClassReport(FunctionClass.BOUNDED, member, ev, tols))
    return out


def is_bounded(norms: np.ndarray, times: np.ndarray, cfg: Config = DEFAULT,
               scale_ref: float | None = None) -> ClassReport:
    """Trend test on a record's row norms at its sample times: segment sups
    along the record must not keep growing."""
    return _one(_bounded_reports(norms[:, None], times, cfg, scale_ref))


# ---------------------------------------------------------------------------
# ergodic means
# ---------------------------------------------------------------------------

def ergodic_mean(F: SampledSignal, scale_ref: float | None = None,
                 trunc_bound: float = 0.0):
    """Mean and sup-deviation curve of the windowed averages at the
    horizons T of 1/8, 1/4 and 1/2 of the record's span.

    deviation(T) = sup over window start points t of ||(1/T) int_t^{t+T} F
    - m||, with the sup taken over a declared compact window (a documented
    finite-record truncation of the sup over all of J).

    Returns ``(mean vector, deviations, ClassReport)`` for the ERGODIC
    class.
    """
    span = F.t_end - F.t0
    T_list = [round(f * span, 6) for f in (0.125, 0.25, 0.5)]
    T_max = max(T_list)
    if T_max >= span:
        raise HorizonError(f"horizon {T_max} exceeds the record span {span:.1f}")
    scale = F.sup_norm() if scale_ref is None else scale_ref
    ks = [F.lattice_steps(F.dt * round(T / F.dt), "T") for T in T_list]
    if min(ks) < 1:
        raise HorizonError(f"horizon {min(T_list)} is shorter than dt={F.dt}")
    w_len = min(ERG_WINDOW_FRAC * span, span - T_max)
    n_w = min(max(2, int(w_len / F.dt)), F.n - max(ks))
    # A_T(t) = (1/T) int_t^{t+T} F at the first n_w grid t, per T, all
    # read from one cumulative trapezoid
    cum = _cumulative(F.values, F.dt)
    means = [(cum[k:k + n_w] - cum[:n_w]) / (k * F.dt) for k in ks]
    m = means[-1].mean(axis=0)
    curves = [np.linalg.norm(A - m, axis=1) for A in means]
    devs = [float(c.max()) for c in curves]
    tol = TOL_ERG * scale + 2.0 * trunc_bound
    ev = {"T_list": T_list, "deviations": devs,
          "sup_window": [float(F.t0), float(F.t0 + n_w * F.dt)],
          "mean_norm": float(np.linalg.norm(m))}
    tols = {"tol_erg": TOL_ERG, "scale_ref": scale, "trunc_bound": trunc_bound}
    decreasing = devs[-1] <= DECAY_FACTOR * devs[0] + 1e-15 or devs[0] <= tol
    rep = _verdict(FunctionClass.ERGODIC, devs[-1], tol, ev, tols,
                   lambda: {"t": float(F.t0 + int(np.argmax(curves[-1])) * F.dt),
                            "deviation": devs[-1]},
                   yes=decreasing, no=devs[-1] >= 0.9 * devs[0])
    return m, devs, rep


def is_ergodic(F, scale_ref=None, trunc_bound=0.0,
               mean_zero: bool = False) -> ClassReport:
    m, devs, rep = ergodic_mean(F, scale_ref, trunc_bound)
    if not mean_zero:
        return rep
    scale = F.sup_norm() if scale_ref is None else scale_ref
    tol = TOL_ERG * scale + 2.0 * trunc_bound
    member = rep.member
    m_norm = float(np.linalg.norm(m))
    if member is Tri.YES and m_norm > tol:
        member = Tri.NO
        ev = dict(rep.evidence)
        ev["witness"] = {"mean_norm": m_norm}
        return ClassReport(FunctionClass.ERGODIC_MEAN_ZERO, member, ev, rep.tolerances)
    return ClassReport(FunctionClass.ERGODIC_MEAN_ZERO, member, rep.evidence,
                       rep.tolerances)


def _bohr_weights(F: SampledSignal) -> np.ndarray:
    """w with a(omega) = sum_l w_l exp(-i omega t_l) F_l.

    The T-windowed means A_j = (1/k) sum_i trap_i G_(j+i) (trapezoid of
    k+1 taps, k = T/dt, T half the record's span) averaged over n_w start
    points give w = (box of n_w) * trap / (n_w k), a plateau with linear
    ramps of length n_w + k.  Its partial sums are multiples of 1/2, so w
    is exact up to the one division."""
    span = F.t_end - F.t0
    k = round(0.5 * span / F.dt)
    if k < 1:
        raise HorizonError(f"Bohr window {span / 2} is shorter than dt={F.dt}")
    n_w = max(1, min(F.n - k, int(0.45 * span / F.dt)))
    trap = np.ones(k + 1)
    trap[[0, -1]] = 0.5
    c = np.concatenate(([0.0], np.cumsum(trap)))       # c[j] = sum trap[:j]
    idx = np.arange(n_w + k)
    return (c[np.minimum(idx, k) + 1] - c[np.maximum(idx - n_w + 1, 0)]) / (n_w * k)


class _BohrSum:
    """nu -> a(nu), the weighted sum of ``_bohr_weights`` over the rows
    r_l = w_l F_l, read two ways.  A call evaluates a, a' and a'' at one
    nu: exp(-i nu t0) times one contraction at z = i nu of a
    ``signals.FactoredLattice`` whose blocks, laid out on the first call,
    stack the rows r_l, -i t_l r_l and -t_l^2 r_l.  ``peak`` reads |a|^2
    at the bins j delta, delta = 2 pi / (L dt), from one zero-padded FFT
    of length L >= 2 span / dt, so delta <= pi / span, a quarter of the
    weights' main-lobe half-width 4 pi / span; the FFT runs on the first
    ``peak``.  The weights depend on the lattice alone, so a sum of
    another record on the same lattice may pass them in."""

    def __init__(self, F: SampledSignal, weights: np.ndarray | None = None):
        w = _bohr_weights(F) if weights is None else weights
        self.rows = w[:, None] * F.values[:len(w)]
        self.t0, self.dt = F.t0, F.dt
        self.n_fft = _next_fast_len(2 * (F.n - 1))
        self.delta = 2.0 * math.pi / (self.n_fft * F.dt)

    @cached_property
    def _lattice(self):
        r = self.rows
        t = (self.t0 + self.dt * np.arange(len(r)))[:, None]
        lattice = FactoredLattice(len(r), self.dt)
        return lattice, lattice.blocks(np.hstack((r, -1j * t * r, -t * t * r)))

    def __call__(self, omega: float) -> np.ndarray:
        """a, a' and a'' at omega, the rows of a (3, d) array."""
        lattice, Y = self._lattice
        return cmath.exp(-1j * omega * self.t0) * lattice.contract(
            lattice.exp(1j * omega), Y).reshape(3, -1)

    @cached_property
    def _power(self) -> np.ndarray:
        """|a|^2 at bin j, j mod L; channels go through the FFT in groups
        whose (L, g) transform fits ``WORK_BYTES``."""
        L, d = self.n_fft, self.rows.shape[1]
        g = max(1, WORK_BYTES // (16 * L))
        power = np.zeros(L)
        for j in range(0, d, g):
            X = np.fft.fft(self.rows[:, j:j + g], L, axis=0)
            power += (X.real ** 2 + X.imag ** 2).sum(axis=1)
        return power

    def peak(self, center: float, halfwidth: float):
        """The bin of the largest coarse |a| in [center - halfwidth,
        center + halfwidth], or None when that maximum is the window's
        first or last bin (|a| may still rise past the window's edge) or
        the window holds fewer than three bins."""
        j0 = math.ceil((center - halfwidth) / self.delta)
        j1 = math.floor((center + halfwidth) / self.delta)
        if j1 - j0 < 2:
            return None
        i = int(np.argmax(self._power[np.arange(j0, j1 + 1) % self.n_fft]))
        return None if i in (0, j1 - j0) else (j0 + i) * self.delta


def bohr_coefficient(F: SampledSignal, omega: float) -> np.ndarray:
    """a(omega) = mean of gamma_{-omega} F, estimated by averaging the
    T-windowed means over their admissible start points.  Averaging over
    start points is sanctioned by the uniform-in-t convergence in the
    ergodic-mean definition and suppresses transients like 1/(T W).
    Returns the coefficient vector, one entry per channel."""
    return _BohrSum(F)(omega)[0]


# ---------------------------------------------------------------------------
# almost periodic decomposition
# ---------------------------------------------------------------------------

def _refine_frequency(a, center: float, halfwidth: float) -> float:
    """The maximizer of |a(nu)| in [center - halfwidth, center +
    halfwidth] to within ``XATOL``, rounded onto the XATOL lattice: digits
    below the certified resolution would otherwise carry the evaluator's
    rounding into the report.  ``a`` is a ``_BohrSum``; ``ap_decompose``
    passes an interior coarse peak and one bin on either side of it.

    Newton on P' = 2 Re(conj(a) a'), P = |a|^2, with P'' = 2 (|a'|^2 +
    Re(conj(a) a'')), safeguarded by bisection (rtsafe; Press et al.,
    *Numerical Recipes*, 9.4): the bracket keeps the side where P' changes
    sign, and a step that leaves it, meets P'' >= 0 or does not halve the
    previous step bisects instead.  A step is tested for convergence
    before it is taken, so one that rounds onto the bracket's edge ends
    the search instead of bisecting away from the zero of P'."""
    lo, hi = center - halfwidth, center + halfwidth
    nu, last = center, math.inf
    while True:
        v, v1, v2 = a(nu)
        slope = np.vdot(v, v1).real
        curve = np.vdot(v1, v1).real + np.vdot(v, v2).real
        if slope > 0.0:
            lo = nu
        else:
            hi = nu
        step = -slope / curve if curve < 0.0 else math.inf
        if abs(step) > 0.5 * XATOL and not (
                lo < nu + step < hi and abs(step) <= 0.5 * abs(last)):
            step = 0.5 * (lo + hi) - nu
        if abs(step) <= 0.5 * XATOL:
            return XATOL * round(nu / XATOL)
        nu, last = nu + step, step


def ap_decompose(F: SampledSignal, candidate_freqs, cfg: Config = DEFAULT,
                 scale_ref: float | None = None, trunc_bound: float = 0.0):
    """Split F into a trigonometric polynomial over the candidate
    frequencies plus a remainder; report AAP membership.

    Candidates are floats or (center, halfwidth) pairs.  Each pass forms
    one Bohr sum (``_BohrSum``), whose one FFT gives |a| on a coarse grid
    that every window reads: a window whose coarse maximum is interior is
    refined between that maximum's neighbouring bins
    (``_refine_frequency``), and a window whose maximum is its first or
    last bin gives no frequency.  The coefficients are solved jointly by
    least squares on the record (which reduces to the windowed means for
    well-separated frequencies).  AAP = YES iff the remainder passes the
    C0 detector.
    """
    scale = F.sup_norm() if scale_ref is None else scale_ref
    windows = [(c if isinstance(c, (tuple, list)) else (c, cfg.grid_step))
               for c in candidate_freqs]
    sep = 0.5 * np.pi / max(F.t_end - F.t0, 1.0)
    freqs: list = []

    def refined(a):
        """The refined frequency of each window with an interior coarse
        maximum of |a|, in window order."""
        for center, hw in windows:
            peak = a.peak(center, hw)
            if peak is not None:
                yield _refine_frequency(a, peak, a.delta)

    weights = _bohr_weights(F) if windows else None
    for nu in (refined(_BohrSum(F, weights)) if windows else ()):
        if all(abs(nu - f) > sep for f in freqs):
            freqs.append(nu)

    def solve(fs):
        if not fs:
            return np.zeros_like(F.values), [], None
        G = np.exp(1j * np.outer(F.times, np.asarray(fs)))
        sol, *_ = np.linalg.lstsq(G, F.values, rcond=None)
        keep = [j for j in range(len(fs))
                if np.linalg.norm(sol[j]) > TOL_BOHR * scale]
        if not keep:
            return np.zeros_like(F.values), [], None
        return G[:, keep] @ sol[keep], [fs[j] for j in keep], sol[keep]

    ap_vals, freqs, sol = solve(freqs)
    # peel residual tones: one candidate window can hide several close
    # frequencies, which a single refinement pass cannot separate; the
    # residual's sums reuse the record's weights
    for _ in range(3 if windows else 0):
        a = _BohrSum(SampledSignal(F.domain, F.t0, F.dt, F.values - ap_vals,
                                   F.growth_exponent, trusted=True),
                     weights)
        best, best_norm = None, 3.0 * TOL_BOHR * scale
        for nu in refined(a):
            bn = np.linalg.norm(a(nu)[0])
            if bn > best_norm and all(abs(nu - f) > sep for f in freqs):
                best, best_norm = nu, bn
        if best is None:
            break
        ap_vals, freqs, sol = solve(freqs + [best])
    coeffs = {f: sol[j] for j, f in enumerate(freqs)} if freqs else {}
    ap_part = SampledSignal(F.domain, F.t0, F.dt, ap_vals, 0, trusted=True)
    remainder = SampledSignal(F.domain, F.t0, F.dt, F.values - ap_vals,
                              F.growth_exponent, trusted=True)
    c0_rep = is_c0(remainder, cfg, scale, trunc_bound)
    ev = {"frequencies": list(coeffs.keys()),
          "coefficients": {f"{f:.9g}": v for f, v in coeffs.items()},
          "remainder_sup": remainder.sup_norm(),
          "remainder_c0": c0_rep.to_dict()}
    rep = ClassReport(FunctionClass.AAP, c0_rep.member, ev, c0_rep.tolerances)
    return ap_part, remainder, rep


def is_ap(F: SampledSignal, candidate_freqs, cfg: Config = DEFAULT,
          scale_ref: float | None = None, trunc_bound: float = 0.0) -> ClassReport:
    scale = F.sup_norm() if scale_ref is None else scale_ref
    ap_part, remainder, aap = ap_decompose(F, candidate_freqs, cfg, scale,
                                           trunc_bound)
    tol = TOL_C0 * scale + 2.0 * trunc_bound
    return _verdict(FunctionClass.AP, aap.evidence["remainder_sup"], tol,
                    dict(aap.evidence), aap.tolerances,
                    lambda: _peak(remainder.norms, remainder.times))


# ---------------------------------------------------------------------------
# uniform continuity and slow oscillation
# ---------------------------------------------------------------------------

def _jumps(F: SampledSignal, s: float) -> np.ndarray:
    """||F(t+s) - F(t)|| at every grid t with t + s on the record."""
    k = F.lattice_steps(s, "lag")
    if k <= 0 or k >= F.n:
        raise HorizonError("lag outside the record")
    return np.linalg.norm(F.values[k:] - F.values[:-k], axis=1)


def uc_modulus(F: SampledSignal):
    """modulus(s) = sup_t ||F(t+s) - F(t)|| at lags of 1, 2, 5 and 10 dt."""
    lags = [F.dt * m for m in (1, 2, 5, 10)]
    return lags, [float(_jumps(F, s).max()) for s in lags]


def is_uc(F: SampledSignal, scale_ref: float | None = None,
          trunc_bound: float = 0.0) -> ClassReport:
    scale = F.sup_norm() if scale_ref is None else scale_ref
    lags, mods = uc_modulus(F)
    tol = TOL_UC * scale + 2.0 * trunc_bound
    tols = {"tol_uc": TOL_UC, "scale_ref": scale}

    def witness():
        jumps = _jumps(F, lags[0])
        idx = int(np.argmax(jumps))
        return {"t": float(F.times[idx]), "jump": float(jumps[idx])}
    return _verdict(FunctionClass.UC, mods[0], tol,
                    {"lags": lags, "modulus": mods}, tols, witness)


def is_slowly_oscillating(F: SampledSignal, cfg: Config = DEFAULT,
                          scale_ref: float | None = None,
                          trunc_bound: float = 0.0) -> ClassReport:
    """Best-split test: u = M_{h*} F and xi = F - u must vanish at infinity.

    The sliding average is uniformly continuous by construction (Lipschitz
    constant 2 sup||F|| / h*, recorded in the evidence), so the decision
    rests on the C0 detector applied to xi; h* is recorded as well.
    """
    scale = F.sup_norm() if scale_ref is None else scale_ref
    h = max(cfg.so_mollify_h, F.dt)
    h = F.dt * max(1, round(h / F.dt))
    u = mollify(F, h)
    xi = SampledSignal(F.domain, F.t0, F.dt, F.values[:u.n] - u.values,
                       F.growth_exponent, trusted=True)
    c0_rep = is_c0(xi, cfg, scale, trunc_bound)
    ev = {"h_star": h, "u_lipschitz_bound": 2.0 * F.sup_norm() / h,
          "xi_c0": c0_rep.to_dict()}
    tols = {"tol_c0": TOL_C0, "scale_ref": scale}
    if c0_rep.member is Tri.NO:
        ev["witness"] = c0_rep.evidence.get("witness")
    return ClassReport(FunctionClass.SLOWLY_OSCILLATING, c0_rep.member, ev, tols)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def detect(cls: FunctionClass, F: SampledSignal, cfg: Config = DEFAULT,
           scale_ref: float | None = None, trunc_bound: float = 0.0,
           candidates=None) -> ClassReport:
    """Run the detector for one class; AP/AAP need candidate frequencies."""
    if cls is FunctionClass.ZERO:
        return is_zero(F, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.C0:
        return is_c0(F, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.BOUNDED:
        return is_bounded(F.norms, F.times, cfg, scale_ref)
    if cls is FunctionClass.UC:
        return is_uc(F, scale_ref, trunc_bound)
    if cls is FunctionClass.ERGODIC:
        return is_ergodic(F, scale_ref, trunc_bound)
    if cls is FunctionClass.ERGODIC_MEAN_ZERO:
        return is_ergodic(F, scale_ref, trunc_bound, mean_zero=True)
    if cls is FunctionClass.AP:
        if candidates is None:
            return ClassReport(cls, Tri.UNDECIDED,
                               {"reason": "no candidate frequencies supplied"}, {})
        return is_ap(F, candidates, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.AAP:
        if candidates is None:
            return ClassReport(cls, Tri.UNDECIDED,
                               {"reason": "no candidate frequencies supplied"}, {})
        return ap_decompose(F, candidates, cfg, scale_ref, trunc_bound)[2]
    if cls is FunctionClass.SLOWLY_OSCILLATING:
        return is_slowly_oscillating(F, cfg, scale_ref, trunc_bound)
    raise ValueError(f"no detector for {cls}")
