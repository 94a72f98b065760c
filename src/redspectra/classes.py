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

The AP split forms the Bohr sum of a record once (``_BohrSum``), and
each pass of its peel loop forms one sum of that pass's residual.  One
zero-padded FFT per sum gives |a| on a grid of a quarter of the main
lobe; every candidate window reads its bins there, and only a window
whose coarse maximum is interior is refined, by Brent between that
maximum's neighbouring bins (search coarsely, then refine inside the
peak found, as in Rife & Boorstyn's single-tone estimator, 1974).

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
#: resolution of a refined Bohr frequency: Brent's absolute tolerance and
#: the lattice the refined frequency is rounded onto
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


def _peak(F: SampledSignal, mask=None) -> dict:
    """Witness: time and norm of F's largest sample within ``mask``."""
    norms = F.norms
    idx = int(np.argmax(norms)) if mask is None \
        else np.flatnonzero(mask)[np.argmax(norms[mask])]
    return {"t": float(F.times[idx]), "norm": float(norms[idx])}


# ---------------------------------------------------------------------------
# tails and C0
# ---------------------------------------------------------------------------

def _tail(F: SampledSignal, T: float) -> np.ndarray:
    """Mask of the samples with t >= T (|t| >= T on the full line)."""
    t = F.times
    return t >= T if F.domain is Domain.HALF_LINE else np.abs(t) >= T


def tail_sup(F: SampledSignal, checkpoints) -> list:
    """sup ||F|| over [T, t_end] per checkpoint (both tails on the full line)."""
    out = []
    norms = F.norms
    for T in checkpoints:
        if T > F.t_end + 1e-12:
            raise HorizonError(f"checkpoint {T} beyond record end {F.t_end}")
        mask = _tail(F, T)
        out.append(float(norms[mask].max()) if mask.any() else 0.0)
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


def is_c0(F: SampledSignal, cfg: Config = DEFAULT, scale_ref: float | None = None,
          trunc_bound: float = 0.0) -> ClassReport:
    """Does F vanish at infinity, as far as the record can tell?

    YES needs the last tail sup under tolerance and the tail sups to have
    genuinely decayed (or been small throughout); NO needs a sample in the
    final tail violating the bound by more than twice the tolerance.
    """
    scale = F.sup_norm() if scale_ref is None else scale_ref
    tol = TOL_C0 * scale + 2.0 * trunc_bound
    tols = {"tol_c0": TOL_C0, "scale_ref": scale, "trunc_bound": trunc_bound}
    if F.sup_norm() <= max(cfg.tol_zero_abs, 2.0 * trunc_bound):
        return ClassReport(FunctionClass.C0, Tri.YES,
                           {"sup": F.sup_norm(), "trivial": True}, tols)
    checkpoints = _auto_checkpoints(F, cfg)
    sups = tail_sup(F, checkpoints)
    ev = {"checkpoints": list(checkpoints), "tail_sups": sups}
    decayed = sups[0] <= tol or sups[-1] <= DECAY_FACTOR * sups[0]
    return _verdict(FunctionClass.C0, sups[-1], tol, ev, tols,
                    lambda: _peak(F, _tail(F, checkpoints[-1])), yes=decayed)


def is_zero(F: SampledSignal, cfg: Config = DEFAULT, scale_ref: float | None = None,
            trunc_bound: float = 0.0) -> ClassReport:
    scale = F.sup_norm() if scale_ref is None else scale_ref
    tol = max(cfg.tol_zero_abs, TOL_ZERO * scale, 2.0 * trunc_bound)
    sup = F.sup_norm()
    tols = {"tol": tol, "scale_ref": scale, "trunc_bound": trunc_bound}
    return _verdict(FunctionClass.ZERO, sup, tol, {"sup": sup}, tols,
                    lambda: _peak(F))


def is_bounded(norms: np.ndarray, times: np.ndarray, cfg: Config = DEFAULT,
               scale_ref: float | None = None) -> ClassReport:
    """Trend test on a record's row norms at its sample times: segment sups
    along the record must not keep growing."""
    at = np.abs(times)
    scale = float(norms.max()) if scale_ref is None else scale_ref
    qs = np.quantile(at, [0.5, 0.65, 0.8, 0.95])
    s_in = float(norms[at < qs[0]].max())
    segs = []
    for lo, hi in zip(qs[:-1], qs[1:]):
        sel = (at >= lo) & (at < hi)
        segs.append(float(norms[sel].max()) if sel.any() else 0.0)
    ev = {"inner_sup": s_in, "segment_sups": segs}
    tols = {"scale_ref": scale}
    if segs[-1] <= 1.3 * s_in + cfg.tol_zero_abs:
        return ClassReport(FunctionClass.BOUNDED, Tri.YES, ev, tols)
    if segs[-1] >= 1.4 * max(segs[0], cfg.tol_zero_abs) and segs[-1] >= 1.4 * s_in:
        outer = at >= qs[-1]
        idx = np.where(outer)[0][np.argmax(norms[outer])]
        ev["witness"] = {"t": float(times[idx]), "norm": float(norms[idx])}
        return ClassReport(FunctionClass.BOUNDED, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.BOUNDED, Tri.UNDECIDED, ev, tols)


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
    w_l F_l, read two ways.  A call evaluates one nu: exp(-i nu t0) times
    one contraction at z = i nu of a ``signals.FactoredLattice``, whose
    blocks are laid out on the first call.  ``peak`` reads |a|^2 at the
    bins j delta, delta = 2 pi / (L dt), from one zero-padded FFT of
    length L >= 2 span / dt, so delta <= pi / span, a quarter of the
    weights' main-lobe half-width 4 pi / span; the FFT runs on the first
    ``peak``."""

    def __init__(self, F: SampledSignal):
        w = _bohr_weights(F)
        self.rows = w[:, None] * F.values[:len(w)]
        self.t0, self.dt = F.t0, F.dt
        self.n_fft = _next_fast_len(2 * (F.n - 1))
        self.delta = 2.0 * math.pi / (self.n_fft * F.dt)

    @cached_property
    def _lattice(self):
        lattice = FactoredLattice(len(self.rows), self.dt)
        return lattice, lattice.blocks(self.rows)

    def __call__(self, omega: float) -> np.ndarray:
        lattice, Y = self._lattice
        return cmath.exp(-1j * omega * self.t0) * lattice.contract(
            lattice.exp(1j * omega), Y)

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
    return _BohrSum(F)(omega)


# ---------------------------------------------------------------------------
# almost periodic decomposition
# ---------------------------------------------------------------------------

def _sign(v: float) -> float:
    """Sign of v, with a zero counted as +1."""
    return 1.0 if v >= 0.0 else -1.0


def _bounded_brent(f, lo: float, hi: float, xatol: float,
                   maxfun: int = 500) -> float:
    """A local minimizer of f on [lo, hi] to within ``xatol``: Brent's
    golden-section search with parabolic steps (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5), stopped after
    ``maxfun`` evaluations.  Step for step it is the bounded method of
    ``scipy.optimize.minimize_scalar`` (the same tolerances, sign rule and
    bracket updates), so both return the same x."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (xf, fx), (nfc, fnfc) and (fulc, ffulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def _refine_frequency(a, center: float, halfwidth: float) -> float:
    """Maximize |a(nu)| over [center-halfwidth, center+halfwidth] by
    bounded Brent to within ``XATOL``, and round the maximizer onto the
    XATOL lattice: digits below the certified resolution would otherwise
    carry the evaluator's rounding into the report.  ``a`` is a
    ``_BohrSum``; ``ap_decompose`` passes an interior coarse peak and one
    bin on either side of it."""
    def objective(w):   # -np.linalg.norm(a(w)), its sums without its checks
        v = a(w)
        return -math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    nu = _bounded_brent(objective, center - halfwidth, center + halfwidth,
                        XATOL)
    return XATOL * round(float(nu) / XATOL)


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

    for nu in (refined(_BohrSum(F)) if windows else ()):
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
    # frequencies, which a single refinement pass cannot separate
    for _ in range(3 if windows else 0):
        a = _BohrSum(SampledSignal(F.domain, F.t0, F.dt, F.values - ap_vals,
                                   F.growth_exponent, trusted=True))
        best, best_norm = None, 3.0 * TOL_BOHR * scale
        for nu in refined(a):
            bn = np.linalg.norm(a(nu))
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
                    dict(aap.evidence), aap.tolerances, lambda: _peak(remainder))


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
