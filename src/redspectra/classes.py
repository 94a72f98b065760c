"""Quantitative membership detectors for the asymptotic function classes:
zero, vanishing at infinity (C0), bounded, uniformly continuous, ergodic
(with or without zero mean), almost periodic, asymptotically almost
periodic and slowly oscillating.

Every detector returns a tri-state ``ClassReport``: YES requires the full
threshold trace to pass, NO requires an explicit witness violating the
defining bound by more than twice the tolerance, and anything in between
is UNDECIDED.  UNDECIDED is a first-class answer on finite records and is
never coerced.

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

import numpy as np
from scipy.optimize import minimize_scalar

from .config import Config, DEFAULT
from .errors import HorizonError
from .signals import Domain, Mean, SampledSignal, _cumulative, mollify

TAIL_FRACTIONS = (0.45, 0.65, 0.85)
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
                "evidence": _plain(self.evidence), "tolerances": _plain(self.tolerances)}


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class BohrCoefficient:
    omega: float
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, complex)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.a))


# ---------------------------------------------------------------------------
# tails and C0
# ---------------------------------------------------------------------------

def tail_sup(F: SampledSignal, checkpoints) -> list:
    """sup ||F|| over [T, t_end] per checkpoint (both tails on the full line)."""
    out = []
    norms = F.norms
    t = F.times
    for T in checkpoints:
        if T > F.t_end + 1e-12:
            raise HorizonError(f"checkpoint {T} beyond record end {F.t_end}")
        mask = t >= T if F.domain is Domain.HALF_LINE else np.abs(t) >= T
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
          trunc_bound: float = 0.0, checkpoints=None) -> ClassReport:
    """Does F vanish at infinity, as far as the record can tell?

    YES needs the last tail sup under tolerance and the tail sups to have
    genuinely decayed (or been small throughout); NO needs a sample in the
    final tail violating the bound by more than twice the tolerance.
    """
    scale = F.sup_norm() if scale_ref is None else scale_ref
    tol = cfg.tol_c0 * scale + 2.0 * trunc_bound
    tols = {"tol_c0": cfg.tol_c0, "scale_ref": scale, "trunc_bound": trunc_bound}
    if F.sup_norm() <= max(cfg.tol_zero_abs, 2.0 * trunc_bound):
        return ClassReport(FunctionClass.C0, Tri.YES,
                           {"sup": F.sup_norm(), "trivial": True}, tols)
    checkpoints = _auto_checkpoints(F, cfg) if checkpoints is None else checkpoints
    sups = tail_sup(F, checkpoints)
    ev = {"checkpoints": list(checkpoints), "tail_sups": sups}
    if sups[-1] <= tol and (sups[0] <= tol or sups[-1] <= cfg.decay_factor * sups[0]):
        return ClassReport(FunctionClass.C0, Tri.YES, ev, tols)
    if sups[-1] > 2.0 * tol:
        t = F.times
        mask = t >= checkpoints[-1] if F.domain is Domain.HALF_LINE \
            else np.abs(t) >= checkpoints[-1]
        idx = np.where(mask)[0][np.argmax(F.norms[mask])]
        ev["witness"] = {"t": float(F.times[idx]), "norm": float(F.norms[idx])}
        return ClassReport(FunctionClass.C0, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.C0, Tri.UNDECIDED, ev, tols)


def is_zero(F: SampledSignal, cfg: Config = DEFAULT, scale_ref: float | None = None,
            trunc_bound: float = 0.0) -> ClassReport:
    scale = F.sup_norm() if scale_ref is None else scale_ref
    tol = max(cfg.tol_zero_abs, cfg.tol_zero * scale, 2.0 * trunc_bound)
    sup = F.sup_norm()
    ev = {"sup": sup}
    tols = {"tol": tol, "scale_ref": scale, "trunc_bound": trunc_bound}
    if sup <= tol:
        return ClassReport(FunctionClass.ZERO, Tri.YES, ev, tols)
    if sup > 2.0 * tol:
        idx = int(np.argmax(F.norms))
        ev["witness"] = {"t": float(F.times[idx]), "norm": float(F.norms[idx])}
        return ClassReport(FunctionClass.ZERO, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.ZERO, Tri.UNDECIDED, ev, tols)


def is_bounded(F: SampledSignal, cfg: Config = DEFAULT,
               scale_ref: float | None = None, trunc_bound: float = 0.0) -> ClassReport:
    """Trend test: segment sups along the record must not keep growing."""
    t, norms = F.times, F.norms
    scale = F.sup_norm() if scale_ref is None else scale_ref
    qs = np.quantile(np.abs(t), [0.5, 0.65, 0.8, 0.95])
    s_in = float(norms[np.abs(t) < qs[0]].max())
    segs = []
    for lo, hi in zip(qs[:-1], qs[1:]):
        sel = (np.abs(t) >= lo) & (np.abs(t) < hi)
        segs.append(float(norms[sel].max()) if sel.any() else 0.0)
    ev = {"inner_sup": s_in, "segment_sups": segs}
    tols = {"scale_ref": scale}
    if segs[-1] <= 1.3 * s_in + cfg.tol_zero_abs:
        return ClassReport(FunctionClass.BOUNDED, Tri.YES, ev, tols)
    if segs[-1] >= 1.4 * max(segs[0], cfg.tol_zero_abs) and segs[-1] >= 1.4 * s_in:
        outer = np.abs(t) >= qs[-1]
        idx = np.where(outer)[0][np.argmax(norms[outer])]
        ev["witness"] = {"t": float(t[idx]), "norm": float(norms[idx])}
        return ClassReport(FunctionClass.BOUNDED, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.BOUNDED, Tri.UNDECIDED, ev, tols)


# ---------------------------------------------------------------------------
# ergodic means
# ---------------------------------------------------------------------------

def _window_means(F: SampledSignal, T: float):
    """A_T(t) = (1/T) int_t^{t+T} F, for every admissible grid t."""
    k = F.lattice_steps(F.dt * round(T / F.dt), "T")
    cum = _cumulative(F)
    return (cum[k:] - cum[:-k]) / (k * F.dt)


def default_horizons(F: SampledSignal, cfg: Config = DEFAULT):
    span = F.t_end - F.t0
    return [round(f * span, 6) for f in (0.125, 0.25, 0.5)]


def ergodic_mean(F: SampledSignal, T_list=None, cfg: Config = DEFAULT,
                 scale_ref: float | None = None, trunc_bound: float = 0.0):
    """Mean and sup-deviation curve of the windowed averages.

    deviation(T) = sup over window start points t of ||(1/T) int_t^{t+T} F
    - m||, with the sup taken over a declared compact window (a documented
    finite-record truncation of the sup over all of J).

    Returns ``(Mean, deviations, ClassReport)`` for the ERGODIC class.
    """
    span = F.t_end - F.t0
    if T_list is None:
        T_list = default_horizons(F, cfg)
    T_max = max(T_list)
    if T_max >= span:
        raise HorizonError(f"horizon {T_max} exceeds the record span {span:.1f}")
    scale = F.sup_norm() if scale_ref is None else scale_ref
    w_len = min(cfg.erg_window_frac * span, span - T_max)
    n_w = max(2, int(w_len / F.dt))

    A_max = _window_means(F, T_max)[:int(min(n_w, 10 ** 9))]
    n_w = min(n_w, A_max.shape[0])
    m = A_max[:n_w].mean(axis=0)
    devs = []
    for T in T_list:
        A = _window_means(F, T)
        nn = min(n_w, A.shape[0])
        devs.append(float(np.linalg.norm(A[:nn] - m, axis=1).max()))
    tol = cfg.tol_erg * scale + 2.0 * trunc_bound
    ev = {"T_list": list(T_list), "deviations": devs,
          "sup_window": [float(F.t0), float(F.t0 + n_w * F.dt)],
          "mean_norm": float(np.linalg.norm(m))}
    tols = {"tol_erg": cfg.tol_erg, "scale_ref": scale, "trunc_bound": trunc_bound}
    decreasing = devs[-1] <= cfg.decay_factor * devs[0] + 1e-15 or devs[0] <= tol
    if devs[-1] <= tol and decreasing:
        member = Tri.YES
    elif devs[-1] > 2.0 * tol and devs[-1] >= 0.9 * devs[0]:
        A = _window_means(F, T_list[-1])
        nn = min(n_w, A.shape[0])
        idx = int(np.argmax(np.linalg.norm(A[:nn] - m, axis=1)))
        ev["witness"] = {"t": float(F.t0 + idx * F.dt),
                         "deviation": devs[-1]}
        member = Tri.NO
    else:
        member = Tri.UNDECIDED
    return Mean(m), devs, ClassReport(FunctionClass.ERGODIC, member, ev, tols)


def is_ergodic(F, cfg: Config = DEFAULT, scale_ref=None, trunc_bound=0.0,
               mean_zero: bool = False, T_list=None) -> ClassReport:
    m, devs, rep = ergodic_mean(F, T_list, cfg, scale_ref, trunc_bound)
    if not mean_zero:
        return rep
    scale = F.sup_norm() if scale_ref is None else scale_ref
    tol = cfg.tol_erg * scale + 2.0 * trunc_bound
    member = rep.member
    if member is Tri.YES and m.norm() > tol:
        member = Tri.NO
        ev = dict(rep.evidence)
        ev["witness"] = {"mean_norm": m.norm()}
        return ClassReport(FunctionClass.ERGODIC_MEAN_ZERO, member, ev, rep.tolerances)
    return ClassReport(FunctionClass.ERGODIC_MEAN_ZERO, member, rep.evidence,
                       rep.tolerances)


def _bohr_weights(F: SampledSignal, T: float | None) -> np.ndarray:
    """w with a(omega) = sum_l w_l exp(-i omega t_l) F_l.

    The T-windowed means A_j = (1/k) sum_i trap_i G_(j+i) (trapezoid of
    k+1 taps, k = T/dt) averaged over n_w start points give w = (box of
    n_w) * trap / (n_w k), a plateau with linear ramps of length n_w + k.
    Its partial sums are multiples of 1/2, so w is exact up to the one
    division."""
    span = F.t_end - F.t0
    T = 0.5 * span if T is None else T
    k = F.lattice_steps(F.dt * round(min(T, 0.9 * span) / F.dt), "T")
    if k < 1:
        raise HorizonError(f"Bohr window {T} is shorter than dt={F.dt}")
    n_w = max(1, min(F.n - k, int(0.45 * span / F.dt)))
    trap = np.ones(k + 1)
    trap[[0, -1]] = 0.5
    c = np.concatenate(([0.0], np.cumsum(trap)))       # c[j] = sum trap[:j]
    idx = np.arange(n_w + k)
    return (c[np.minimum(idx, k) + 1] - c[np.maximum(idx - n_w + 1, 0)]) / (n_w * k)


def _bohr_sum(F: SampledSignal, T: float | None = None):
    """omega -> a(omega), the weighted sum of ``_bohr_weights`` on the
    factored lattice of ``signals.lattice_exp_tables``.  With m =
    ceil(sqrt(n)) and l = b m + c, exp(-i omega l dt) = outer_b inner_c,
    so P[(channel, b), c] = w_l F_l is formed once and each evaluation is
    exp(-i omega t0) (P @ inner) @ outer: one 2 sqrt(n)-long exponential
    and two small products."""
    w = _bohr_weights(F, T)
    n, d = len(w), F.dim
    m = math.isqrt(n - 1) + 1
    n_b = -(-n // m)
    P = np.zeros((n_b * m, d), complex)
    P[:n] = w[:, None] * F.values[:n]
    P = P.reshape(n_b, m, d).transpose(2, 0, 1).reshape(d * n_b, m)
    u = F.dt * np.concatenate((np.arange(m), m * np.arange(n_b)))
    t0 = F.t0

    def a(omega):
        e = np.exp(-1j * omega * u)
        return cmath.exp(-1j * omega * t0) * ((P @ e[:m]).reshape(d, n_b) @ e[m:])
    return a


def bohr_coefficient(F: SampledSignal, omega: float, cfg: Config = DEFAULT,
                     T: float | None = None) -> BohrCoefficient:
    """a(omega) = mean of gamma_{-omega} F, estimated by averaging the
    T-windowed means over their admissible start points.  Averaging over
    start points is sanctioned by the uniform-in-t convergence in the
    ergodic-mean definition and suppresses transients like 1/(T W)."""
    return BohrCoefficient(omega, _bohr_sum(F, T)(omega))


# ---------------------------------------------------------------------------
# almost periodic decomposition
# ---------------------------------------------------------------------------

def _refine_frequency(F: SampledSignal, center: float, halfwidth: float,
                      cfg: Config) -> float:
    """Maximize |a(nu)| over [center-halfwidth, center+halfwidth] by
    bounded Brent to within ``XATOL``, and round the maximizer onto the
    XATOL lattice: digits below the certified resolution would otherwise
    carry the evaluator's rounding into the report."""
    if halfwidth <= 0:
        return center
    a = _bohr_sum(F)
    res = minimize_scalar(lambda nu: -np.linalg.norm(a(nu)),
                          bounds=(center - halfwidth, center + halfwidth),
                          method="bounded", options={"xatol": XATOL})
    return XATOL * round(float(res.x) / XATOL)


def ap_decompose(F: SampledSignal, candidate_freqs, cfg: Config = DEFAULT,
                 scale_ref: float | None = None, trunc_bound: float = 0.0):
    """Split F into a trigonometric polynomial over the candidate
    frequencies plus a remainder; report AAP membership.

    Candidates are floats or (center, halfwidth) pairs; each is refined by
    maximizing the Bohr-coefficient magnitude, then the coefficients are
    solved jointly by least squares on the record (which reduces to the
    windowed means for well-separated frequencies).  AAP = YES iff the
    remainder passes the C0 detector.
    """
    scale = F.sup_norm() if scale_ref is None else scale_ref
    windows = [(c if isinstance(c, (tuple, list)) else (c, cfg.grid_step))
               for c in candidate_freqs]
    sep = 0.5 * np.pi / max(F.t_end - F.t0, 1.0)
    freqs: list = []
    for center, hw in windows:
        nu = _refine_frequency(F, center, hw, cfg)
        if all(abs(nu - f) > sep for f in freqs):
            freqs.append(nu)

    def solve(fs):
        if not fs:
            return np.zeros_like(F.values), [], None
        G = np.exp(1j * np.outer(F.times, np.asarray(fs)))
        sol, *_ = np.linalg.lstsq(G, F.values, rcond=None)
        keep = [j for j in range(len(fs))
                if np.linalg.norm(sol[j]) > cfg.tol_bohr * scale]
        if not keep:
            return np.zeros_like(F.values), [], None
        return G[:, keep] @ sol[keep], [fs[j] for j in keep], sol[keep]

    ap_vals, freqs, sol = solve(freqs)
    # peel residual tones: one candidate window can hide several close
    # frequencies, which a single refinement pass cannot separate
    for _ in range(3):
        resid = SampledSignal(F.domain, F.t0, F.dt, F.values - ap_vals,
                              F.growth_exponent, trusted=True)
        best, best_norm = None, 3.0 * cfg.tol_bohr * scale
        for center, hw in windows:
            nu = _refine_frequency(resid, center, hw, cfg)
            bn = bohr_coefficient(resid, nu, cfg).norm()
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
    tol = cfg.tol_c0 * scale + 2.0 * trunc_bound
    sup = remainder.sup_norm()
    ev = dict(aap.evidence)
    ev["remainder_sup"] = sup
    tols = dict(aap.tolerances)
    if sup <= tol:
        return ClassReport(FunctionClass.AP, Tri.YES, ev, tols)
    if sup > 2.0 * tol:
        idx = int(np.argmax(remainder.norms))
        ev["witness"] = {"t": float(remainder.times[idx]), "norm": sup}
        return ClassReport(FunctionClass.AP, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.AP, Tri.UNDECIDED, ev, tols)


# ---------------------------------------------------------------------------
# uniform continuity and slow oscillation
# ---------------------------------------------------------------------------

def uc_modulus(F: SampledSignal, lags=None, cfg: Config = DEFAULT):
    """modulus(s) = sup_t ||F(t+s) - F(t)|| for each lattice lag."""
    if lags is None:
        lags = [F.dt * m for m in (1, 2, 5, 10)]
    out = []
    for s in lags:
        k = F.lattice_steps(s, "lag")
        if k <= 0 or k >= F.n:
            raise HorizonError("lag outside the record")
        diff = F.values[k:] - F.values[:-k]
        out.append(float(np.linalg.norm(diff, axis=1).max()))
    return list(lags), out


def is_uc(F: SampledSignal, cfg: Config = DEFAULT, scale_ref: float | None = None,
          trunc_bound: float = 0.0, lags=None) -> ClassReport:
    scale = F.sup_norm() if scale_ref is None else scale_ref
    lags, mods = uc_modulus(F, lags, cfg)
    tol = cfg.tol_uc * scale + 2.0 * trunc_bound
    ev = {"lags": lags, "modulus": mods}
    tols = {"tol_uc": cfg.tol_uc, "scale_ref": scale}
    if mods[0] <= tol:
        return ClassReport(FunctionClass.UC, Tri.YES, ev, tols)
    if mods[0] > 2.0 * tol:
        k = F.lattice_steps(lags[0], "lag")
        diff = np.linalg.norm(F.values[k:] - F.values[:-k], axis=1)
        idx = int(np.argmax(diff))
        ev["witness"] = {"t": float(F.times[idx]), "jump": float(diff[idx])}
        return ClassReport(FunctionClass.UC, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.UC, Tri.UNDECIDED, ev, tols)


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
    tols = {"tol_c0": cfg.tol_c0, "scale_ref": scale}
    if c0_rep.member is Tri.YES:
        return ClassReport(FunctionClass.SLOWLY_OSCILLATING, Tri.YES, ev, tols)
    if c0_rep.member is Tri.NO:
        ev["witness"] = c0_rep.evidence.get("witness")
        return ClassReport(FunctionClass.SLOWLY_OSCILLATING, Tri.NO, ev, tols)
    return ClassReport(FunctionClass.SLOWLY_OSCILLATING, Tri.UNDECIDED, ev, tols)


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
        return is_bounded(F, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.UC:
        return is_uc(F, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.ERGODIC:
        return is_ergodic(F, cfg, scale_ref, trunc_bound)
    if cls is FunctionClass.ERGODIC_MEAN_ZERO:
        return is_ergodic(F, cfg, scale_ref, trunc_bound, mean_zero=True)
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
