"""The paper's identities and reference oracles that only the tests run,
none of them on a path of ``synth``, ``analyze`` or ``verify``: record
restriction, reflection and finite differences, and the indefinite
integral PF; the box kernel s_h, the exponential kernel f_lambda, kernel
reflection and a quadrature check of a kernel's transform; the per-point
Gauss sums of psi^ and the direct dt-lattice trapezoid sum of a
convolution, also tap by tap in convolve's order; the dilates psi_n of
the approximate identity and the Wiener division lemma; the Carleman
transform at a point and its convolution form; the two extension
conventions of the reduced spectrum.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from redspectra.classes import FunctionClass
from redspectra.config import Config, DEFAULT
from redspectra.errors import (DomainError, GridError, HorizonError,
                               RedSpectraError)
from redspectra.kernels import (SUPPORT_CUT, TestKernel, _bump_normalizer,
                                _bump_raw, _leggauss, _plateau, _table_tail,
                                bump_kernel)
from redspectra.signals import (_LATTICE_RTOL, Domain, SampledSignal,
                                _cumulative, convolve, extend_by_zero,
                                trapezoid_weights)
from redspectra.spectra import FrequencyGrid, RegStatus, reduced_spectrum
from redspectra.transforms import _check_tail, trapezoid_transform


def restrict(F: SampledSignal, t_lo: float, t_hi: float) -> SampledSignal:
    """The samples of F on [t_lo, t_hi]; a half-line record cut away from
    t = 0 becomes a full-line one."""
    i = max(0, int(np.ceil((t_lo - F.t0) / F.dt - _LATTICE_RTOL)))
    j = min(F.n - 1, int(np.floor((t_hi - F.t0) / F.dt + _LATTICE_RTOL)))
    if j < i:
        raise HorizonError("empty restriction")
    new_t0 = F.t0 + i * F.dt
    dom = F.domain
    if dom is Domain.HALF_LINE and abs(new_t0) > _LATTICE_RTOL * F.dt:
        dom = Domain.FULL_LINE
    return SampledSignal(dom, new_t0 if dom is Domain.FULL_LINE else 0.0,
                         F.dt, F.values[i:j + 1], F.growth_exponent,
                         trusted=True)


def reflect(F: SampledSignal) -> SampledSignal:
    """F-check(t) = F(-t); full-line records only."""
    if F.domain is not Domain.FULL_LINE:
        raise DomainError("reflection needs a full-line record")
    return SampledSignal(Domain.FULL_LINE, -F.t_end, F.dt, F.values[::-1],
                         F.growth_exponent, trusted=True)


def difference(F: SampledSignal, s: float) -> SampledSignal:
    """Delta_s F(t) = F(t+s) - F(t) on the common grid."""
    k = F.lattice_steps(s, "lag")
    if k < 0:
        raise DomainError("difference lag must be >= 0")
    if k >= F.n:
        raise HorizonError("lag exceeds the record")
    vals = F.values[k:] - F.values[:F.n - k]
    if F.domain is Domain.HALF_LINE:
        return SampledSignal(Domain.HALF_LINE, 0.0, F.dt, vals,
                             F.growth_exponent, trusted=True)
    return SampledSignal(Domain.FULL_LINE, F.t0, F.dt, vals,
                         F.growth_exponent, trusted=True)


def indefinite_integral(F: SampledSignal) -> SampledSignal:
    """PF(t) = integral of F from 0 to t, by cumulative trapezoid.

    t = 0 must lie on the record (always true on the half line).
    """
    if F.domain is Domain.FULL_LINE and (F.t0 > _LATTICE_RTOL or F.t_end < -_LATTICE_RTOL):
        raise DomainError("indefinite integral is anchored at 0, which is "
                          "outside the record")
    cum = _cumulative(F.values, F.dt)
    i0 = F.index_of(0.0)
    cum = cum - cum[i0]
    return SampledSignal(F.domain, F.t0, F.dt, cum, F.growth_exponent + 1,
                         trusted=True)


def box_kernel(h: float) -> TestKernel:
    """s_h = (1/h) * indicator of [-h, 0]; unit mass, transform
    s_h^(w) = (exp(i w h) - 1)/(i w h).

    The jump at -h must fall on a sample, so the box is sampled only on
    lattices whose step divides h (GridError otherwise).
    """
    if h <= 0:
        raise ValueError("h must be > 0")

    def time_fn(t):
        t = np.asarray(t, float)
        step = t[1] - t[0] if t.size > 1 else h
        if abs(h / step - round(h / step)) > 1e-9 * max(1.0, h / step):
            raise GridError("box width h must be a lattice multiple")
        inside = (t >= -h - 1e-9 * abs(step)) & (t <= 0.0)
        return np.where(inside, 1.0 / h, 0.0).astype(complex)

    def ft_fn(w):
        wh = np.atleast_1d(w) * h
        safe = np.where(wh == 0, 1.0, wh)
        return np.where(wh == 0.0, 1.0 + 0j, (np.exp(1j * safe) - 1.0) / (1j * safe))

    return TestKernel(f"box(h={h:g})", "L1", time_fn, ft_fn, -h, 0.0,
                      (-np.inf, np.inf), 1.0,
                      lambda x: max(0.0, (h - x) / h) if x > 0 else 1.0)


def exp_kernel(lam: complex) -> TestKernel:
    """f_lambda: exp(-lambda t) on t >= 0 if Re lambda > 0, and the
    reflected-negated kernel -exp(-lambda t) on t <= 0 if Re lambda < 0.
    In both cases f_lambda^(w) = 1/(lambda + i w).  Only Re lambda != 0
    gives an integrable kernel."""
    lam = complex(lam)
    if lam.real == 0:
        raise DomainError("exp kernel needs Re lambda != 0 (f_lambda is "
                          "not integrable on the imaginary axis)")
    a = abs(lam.real)
    L = np.log(1e14) / a            # support cut where |f| drops to 1e-14

    def time_fn(t):
        t = np.asarray(t, float)
        if lam.real > 0:
            return np.where(t >= 0, np.exp(-lam * t), 0.0)
        return np.where(t <= 0, -np.exp(-lam * t), 0.0)

    return TestKernel(f"exp(lam={lam:g})", "L1", time_fn,
                      lambda w: 1.0 / (lam + 1j * np.atleast_1d(w)),
                      0.0 if lam.real > 0 else -L, L if lam.real > 0 else 0.0,
                      (-np.inf, np.inf), 1.0 / a,
                      lambda x: float(np.exp(-a * max(x, 0.0)) / a))


def reflected(k: TestKernel) -> TestKernel:
    """k-check(t) = k(-t), with transform k^(-w) and the same tail mass.

    For the exponential kernels reflect(f_lam) = -f_{-lam}, which the
    Carleman-transform-as-convolution identity uses.
    """
    tf, ff = k.time_fn, k.ft_fn
    lo, hi = k.ft_support
    return replace(
        k, kernel_id=f"reflect({k.kernel_id})",
        time_fn=lambda t: tf(-np.asarray(t, float)),
        ft_fn=lambda w: ff(-np.asarray(w, float)),
        s_lo=-k.s_hi, s_hi=-k.s_lo, ft_support=(-hi, -lo))


def fourier_consistency_error(kernel, dt: float = 0.01,
                              n_check: int = 61) -> float:
    """Independent check that quadrature of the time samples reproduces the
    stored transform: max |FT_quad(samples) - k^| over a probe grid."""
    s0, vals = kernel.time_samples(dt)
    s = s0 + dt * np.arange(len(vals))
    w = trapezoid_weights(len(vals), dt)
    lo, hi = kernel.ft_support
    if not np.isfinite(lo):
        lo, hi = -4.0, 4.0
    probes = np.linspace(lo - 0.5, hi + 0.5, n_check)
    quad = np.exp(-1j * np.outer(probes, s)) @ (vals * w)
    return float(np.abs(quad - np.asarray(kernel.ft(probes), complex)).max())


def psi_hat_by_point(w) -> np.ndarray:
    """psi^ at the points w, one Gauss sum at a time: the reference for
    ``bump_kernel().ft``, which evaluates the same sums in blocks."""
    a = _bump_normalizer()
    xs, ws = _leggauss()
    w = np.atleast_1d(np.asarray(w, float))
    out = np.zeros(len(w))
    for i, wi in enumerate(w):
        lo, hi = max(-1.0, wi - 1.0), min(1.0, wi + 1.0)
        if hi <= lo:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        s = mid + half * xs
        out[i] = 2 * np.pi * half * (
            a * _bump_raw(wi - s) * a * _bump_raw(s) * ws).sum()
    return out


def lattice_trapezoid(H, kernel, t_out, omegas) -> np.ndarray:
    """sum_i H(t - s_i) k(s_i) w_i exp(i omega s_i) over every kernel tap
    s_i on H's lattice, with H zero off its record: (len(t_out),
    len(omegas), channels)."""
    s0, samples = kernel.time_samples(H.dt)
    s = s0 + H.dt * np.arange(len(samples))
    w = np.full(len(s), H.dt)
    w[0] = w[-1] = H.dt / 2
    taps = (samples * w)[:, None] * np.exp(1j * np.outer(s, omegas))
    # H's rows between len(s) zero rows on each side: tap j of the output
    # at t reads row i - j, i the padded row of t - s0
    m = len(s)
    rows = np.vstack([np.zeros((m, H.dim)), H.values, np.zeros((m, H.dim))])
    out = np.zeros((len(t_out), len(omegas), H.dim), complex)
    for k, t in enumerate(t_out):
        i = round((t - s0 - H.t0) / H.dt) + m
        out[k] = taps.T @ rows[i - m + 1:i + 1][::-1]
    return out


def tap_order_sum(H, kernel, t_out) -> np.ndarray:
    """sum_j H(t - s_j) k(s_j) w_j at each t in t_out, with H zero off its
    record, as (len(t_out), channels): one accumulator, starting at 0, to
    which each tap adds its rows times its trapezoid weight, from the last
    tap (the earliest row) to the first."""
    s0, samples = kernel.time_samples(H.dt)
    w = samples * trapezoid_weights(len(samples), H.dt)
    # tap j of the output at t reads row i - j, i the row of t - s0
    i = np.rint((np.asarray(t_out) - s0 - H.t0) / H.dt).astype(np.int64)
    acc = np.zeros((len(i), H.dim), complex)
    for j in range(len(w) - 1, -1, -1):
        rows = np.zeros_like(acc)
        on = (i - j >= 0) & (i - j < H.n)
        rows[on] = H.values[i[on] - j]
        acc += rows * w[j]
    return acc


def approximate_identity(n: int) -> TestKernel:
    """psi_n(t) = n psi(n t): unit mass, transform psi^(w/n) supported in
    [-2n, 2n]; an approximate identity for uniformly continuous functions."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    base = bump_kernel()
    if n == 1:
        return base
    bt, bf, tail = base.time_fn, base.ft_fn, base.tail_mass
    return replace(
        base, kernel_id=f"bump_n{n}",
        time_fn=lambda t: n * np.asarray(bt(n * np.asarray(t, float)), complex),
        ft_fn=lambda w: np.asarray(bf(np.asarray(w, float) / n), complex),
        s_lo=base.s_lo / n, s_hi=base.s_hi / n, ft_support=(-2.0 * n, 2.0 * n),
        tail_mass=lambda x: tail(n * x))


#: minimum |f^| that ``wiener_divide`` divides by
EPS_DIV = 1e-6


class DivisionError_(RedSpectraError):
    """Frequency-domain division attempted where the divisor transform
    drops below the safety threshold on the target interval."""


def wiener_divide(f, K: tuple) -> TestKernel:
    """g with g^ f^ = 1 on the compact interval K and g^ compactly supported.

    g^ is a smooth plateau (1 on K, Gaussian edges, zero past a slight
    enlargement) divided pointwise by f^; f^ must stay above ``EPS_DIV``
    in modulus over the enlarged interval.  The time samples come from
    inverse-transform quadrature over a frequency grid covering the
    plateau.  The postcondition
    sup_K |g^ f^ - 1| <= 1e-8 is asserted on every call.
    """
    lo, hi = float(K[0]), float(K[1])
    if hi <= lo:
        raise ValueError("K must be a nondegenerate interval")
    e = max(0.1, 0.15 * (hi - lo))
    sigma = e / 13.0
    b = 0.5 * (hi - lo) + 0.5 * e
    mid = 0.5 * (hi + lo)

    dw = min(e / 40.0, 0.02)
    half = int(np.ceil((b + 7 * sigma) / dw)) + 1
    grid = mid + dw * np.arange(-half, half + 1)

    fhat = np.asarray(f.ft(grid), complex)
    core = (grid >= lo - e) & (grid <= hi + e)
    if np.abs(fhat[core]).min() < EPS_DIV:
        raise DivisionError_(
            f"|f^| drops to {np.abs(fhat[core]).min():.3g} on the enlarged "
            f"interval around K={K}; the division hypothesis needs the "
            f"transform nonzero on a compact neighbourhood of K "
            f"(threshold EPS_DIV={EPS_DIV:g})")

    chi = _plateau(grid - mid, b, sigma)
    ghat = np.where(chi > 1e-15, chi / fhat, 0.0)

    wts = trapezoid_weights(len(grid), dw)
    gw = ghat * wts

    def time_fn(t):
        t = np.atleast_1d(np.asarray(t, float))
        out = np.empty(len(t), complex)
        for i in range(0, len(t), 512):
            tt = t[i:i + 512]
            out[i:i + 512] = (np.exp(1j * np.outer(tt, grid)) * gw).sum(axis=1) / (2 * np.pi)
        return out

    def ft_fn(w, f=f):
        w = np.atleast_1d(np.asarray(w, float))
        chi = _plateau(w - mid, b, sigma)
        fh = np.asarray(f.ft(w), complex)
        safe = (chi > 1e-15) & (np.abs(fh) > 1e-300)
        return np.where(safe, chi / np.where(safe, fh, 1.0), 0.0)

    # empirical support cut on the time side
    period = 2 * np.pi / dw
    tt = np.linspace(0.0, 0.45 * period, 3000)
    vals = np.abs(time_fn(tt)) + np.abs(time_fn(-tt))
    peak = vals.max()
    above = np.where(vals >= max(SUPPORT_CUT * peak, 1e-300))[0]
    L = float(tt[min(above[-1] + 1, len(tt) - 1)])
    cut = float(vals[tt >= L].sum() * (tt[1] - tt[0])) if (tt >= L).any() else 0.0

    mass = float(np.trapezoid(np.abs(time_fn(np.linspace(-L, L, 4001))),
                              dx=2 * L / 4000))
    g = TestKernel(f"wiener({f.kernel_id},K=[{lo:g},{hi:g}])", "S",
                   time_fn, ft_fn, -L, L,
                   (mid - b - 7 * sigma, mid + b + 7 * sigma),
                   mass, _table_tail(time_fn, L, cut), cut)

    ksel = (grid >= lo) & (grid <= hi)
    err = np.abs(ghat[ksel] * fhat[ksel] - 1.0).max()
    if err > 1e-8:
        raise DivisionError_(f"division postcondition failed: "
                             f"sup_K |g^ f^ - 1| = {err:.3g} > 1e-8")
    return g


def carleman_transform(F: SampledSignal, lam: complex) -> np.ndarray:
    """Two-half-plane transform of a full-line record:

        C F(lambda) = integral_0^inf exp(-lambda t) F(t) dt   (Re > 0)
                    = -integral_0^inf exp(lambda t) F(-t) dt  (Re < 0)
    """
    if F.domain is not Domain.FULL_LINE:
        raise DomainError("Carleman transform needs a full-line record")
    lam = complex(lam)
    if lam.real == 0:
        raise DomainError("Carleman transform undefined on the imaginary axis")
    _check_tail(F, lam.real)
    i0 = F.index_of(0.0)
    if lam.real > 0:
        vals = F.values[i0:]
        return trapezoid_transform(lam, F.dt * np.arange(len(vals)), vals, F.dt)
    vals = F.values[i0::-1]                 # F(-u), u >= 0
    return -trapezoid_transform(-lam, F.dt * np.arange(len(vals)), vals, F.dt)


def carleman_as_convolution_residual(phi: SampledSignal, lam: complex,
                                     t_probe) -> float:
    """|| (phi * reflect(f_lam))(t) - C phi_t(lam) || at the probe times.

    reflect(f_lam) = -f_{-lam} for either sign of Re lam, and the
    convolution against it reproduces the transform of the translate:
    int_0^inf exp(-lam s) phi(t+s) ds on the right half-plane and
    -int_{-inf}^0 exp(-lam s) phi(t+s) ds on the left.
    """
    lam = complex(lam)
    kern = reflected(exp_kernel(lam))
    conv = convolve(extend_by_zero(phi), kern, budget=1e-9)
    worst = 0.0
    for tp in t_probe:
        idx = conv.index_of(tp)
        if lam.real > 0:
            tail = restrict(phi, tp, phi.t_end)
            ref = trapezoid_transform(lam, tail.times - tp, tail.values,
                                      tail.dt)
        else:
            head = restrict(phi, phi.t0, tp)   # u = t - tp in [t0 - tp, 0]
            ref = -trapezoid_transform(lam, head.times - tp, head.values,
                                       head.dt)
        worst = max(worst, float(np.linalg.norm(conv.values[idx] - ref)))
    return worst


def extension_comparison(H: SampledSignal, cls: FunctionClass,
                         grid: FrequencyGrid | None = None,
                         cfg: Config = DEFAULT) -> dict:
    """Compare the spectrum of a full-line H (bounded left tail) with the
    spectrum of its restriction to the half line.

    The engine itself always tests the zero extension of the restriction;
    this helper quantifies how much the alternative convention (convolving
    H directly) would differ.  For H with a bounded left tail the two
    classifications agree up to UNDECIDED points.
    """
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    i0 = H.index_of(0.0)            # GridError if 0 is off the lattice
    half = SampledSignal(Domain.HALF_LINE, 0.0, H.dt, H.values[i0:],
                         H.growth_exponent, trusted=True)
    direct = reduced_spectrum(H, cls, grid, cfg)
    restricted = reduced_spectrum(half, cls, grid, cfg)
    disagree = []
    for w, cd, cr in zip(grid.values(), direct.certificates,
                         restricted.certificates):
        a, b = cd.status, cr.status
        if a is not b and RegStatus.UNDECIDED not in (a, b):
            disagree.append({"omega": float(w), "direct": a.value,
                             "restricted": b.value})
    return {"direct": direct, "restricted": restricted,
            "definite_disagreements": disagree}
