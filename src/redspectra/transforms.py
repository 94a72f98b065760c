"""The Laplace transform of sampled records, half-plane scans of the
Laplace and Carleman transforms on grids a_k + i omega approaching the
imaginary axis, and the finite-record transform identities the checks
read.

All integrals are composite trapezoids over the record.  Truncating the
integral at the record horizon T is the one irreducible approximation;
its growth-aware bound

    C (1 + T^2)^k  exp(-a T) / a * (1 + k)

is computed for every abscissa and recorded.  Values whose bound exceeds
``TAIL_CAP`` times the signal scale, or overflows, are refused (TailError)
rather than returned silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT
from .errors import DomainError, TailError
from .signals import (Domain, FactoredLattice, SampledSignal, _cumulative,
                      mollify, translate, trapezoid_weights)

#: admit an abscissa while its tail bound is at most this times the sup
TAIL_CAP = 0.5
#: a boundary scan needs at least this many admissible abscissae
MIN_ABSCISSAE = 3


def tail_bound(F: SampledSignal, a: float, c: float | None = None) -> float:
    """Bound on || integral_T^inf exp(-a t) F(t) dt || from the declared
    growth envelope ||F(t)|| <= C (1+t^2)^k; ``c`` is C when known."""
    T = F.t_end if F.domain is Domain.HALF_LINE else max(abs(F.t0), F.t_end)
    k = F.growth_exponent
    c = F.envelope_constant() if c is None else c
    return float(c * (1.0 + T * T) ** k * np.exp(-a * T) / a * (1.0 + k))


def trapezoid_transform(lam, u: np.ndarray, values: np.ndarray,
                        dt: float) -> np.ndarray:
    """Composite trapezoid of exp(-lam u) values over the lattice u of
    spacing dt: the one finite-record transform sum."""
    return (np.exp(-lam * u) * trapezoid_weights(len(u), dt)) @ values


def _check_tail(F: SampledSignal, a: float, c=None, sup=None) -> float:
    """``tail_bound(F, |a|)``, or TailError when it exceeds ``TAIL_CAP``
    times ``sup`` (of F when not given), overflows or is nan."""
    try:
        b = tail_bound(F, abs(a), c)
    except OverflowError:           # (1 + T^2)^k beyond the float range
        b = np.inf
    if not b <= TAIL_CAP * max(F.sup_norm() if sup is None else sup, 1e-300):
        raise TailError(f"truncation tail bound {b:.3g} at Re lambda = {a:g} "
                        f"exceeds {TAIL_CAP} * signal scale")
    return b


def laplace_transform(F: SampledSignal, lam: complex) -> np.ndarray:
    """L F(lambda) = integral_0^inf exp(-lambda t) F(t) dt, Re lambda > 0."""
    if F.domain is not Domain.HALF_LINE:
        raise DomainError("Laplace transform needs a half-line signal")
    lam = complex(lam)
    if lam.real <= 0:
        raise DomainError("Laplace transform needs Re lambda > 0")
    _check_tail(F, lam.real)
    return trapezoid_transform(lam, F.times, F.values, F.dt)


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Transform values on {s_k + i omega_j} with s_k -> 0.

    ``right``/``left`` have shape (n_a, n_omega, d); ``left`` is None for
    half-line signals.  ``tail_bounds`` records the truncation bound per
    abscissa; abscissae whose bound exceeded the cap are simply absent.
    """

    a_seq: tuple
    right: np.ndarray
    left: np.ndarray | None
    tail_bounds: tuple
    scale: float               # median |values|, the tolerance reference


class TransformScanner:
    """Batch evaluator for one signal: exp(-i omega u) on the lattice
    u = k dt, 0 <= k < max(n_right, n_left), kept as the tables of one
    ``FactoredLattice`` and shared by every abscissa and both half-lines.
    F(u) uses a prefix of the lattice; F(-u) uses the conjugate, because
    exp(+i omega u) = conj(exp(-i omega u))."""

    def __init__(self, F: SampledSignal, omegas, cfg: Config = DEFAULT):
        self.F = F
        self.cfg = cfg
        self.omegas = np.asarray(omegas, float)
        i0 = F.index_of(0.0) if F.domain is Domain.FULL_LINE else 0
        self._pos_vals = F.values[i0:]
        self._neg_vals = (F.values[i0::-1]          # F(-u), u >= 0
                          if F.domain is Domain.FULL_LINE else None)
        self.u = F.dt * np.arange(max(F.n - i0, i0 + 1))
        self.lattice = FactoredLattice(len(self.u), F.dt)
        self._E = self.lattice.exp(1j * self.omegas[:, None])
        # the inner table, under the two names perfbench/tracing.py reads
        self._E_pos = self._E_neg = self._E[:, :self.lattice.m]

    def product(self, damping: np.ndarray, left: bool = False) -> np.ndarray:
        """Trapezoid of exp(-i omega_j u) damping(u) F(u) over u >= 0 for
        every grid omega (n_omega, d); with ``left``, of exp(+i omega_j u)
        damping(u) F(-u).  ``damping`` is sampled on ``u``."""
        vals = self._neg_vals if left else self._pos_vals
        n = len(vals)
        y = (damping[:n] * trapezoid_weights(n, self.F.dt))[:, None] * vals
        if left:                            # conj(E) @ y = conj(E @ conj(y))
            y = np.conj(y)
        half = FactoredLattice(n, self.F.dt, self.lattice.m)
        out = half.contract(self._E, half.blocks(y))
        return np.conj(out) if left else out

    def right_values(self, zeta: complex) -> np.ndarray:
        """L^+ F(zeta + i omega_j) for every grid omega (n_omega, d)."""
        return self.product(np.exp(-zeta * self.u))

    def left_values(self, zeta: complex) -> np.ndarray:
        """L^- F(-zeta + i omega_j) = -int exp(-(zeta - i w) u) F(-u) du."""
        if self._neg_vals is None:
            raise DomainError("no left half-plane for a half-line signal")
        return -self.product(np.exp(-zeta * self.u), left=True)

    def admissible_a(self) -> tuple:
        # C and the sup are read once per scan, not once per abscissa
        c, sup = self.F.envelope_constant(), self.F.sup_norm()
        out, bounds = [], []
        for a in self.cfg.a_seq:
            try:
                bounds.append(_check_tail(self.F, a, c, sup))
                out.append(a)
            except TailError:
                continue
        return tuple(out), tuple(bounds)


def half_plane_scan(F: SampledSignal, omegas,
                    cfg: Config = DEFAULT) -> HalfPlaneGrid:
    """Evaluate the transform on the admissible a_k x omega grid."""
    sc = TransformScanner(F, omegas, cfg)
    a_adm, bounds = sc.admissible_a()
    if len(a_adm) < MIN_ABSCISSAE:
        raise TailError(f"fewer than {MIN_ABSCISSAE} admissible abscissae: "
                        "record too short or growth too strong for a "
                        "boundary scan")
    right = np.stack([sc.right_values(a) for a in a_adm])
    mags = np.linalg.norm(right, axis=2)
    left = None
    if F.domain is Domain.FULL_LINE:
        left = np.stack([sc.left_values(a) for a in a_adm])
        mags = np.concatenate([mags, np.linalg.norm(left, axis=2)])
    scale = float(np.median(mags))
    return HalfPlaneGrid(a_adm, right, left, bounds, scale)


# ---------------------------------------------------------------------------
# transform identities (finite-record forms)
# ---------------------------------------------------------------------------

def shift_identity_residual(F: SampledSignal, s: float, lam: complex) -> float:
    """|| L F_s - exp(lam s)(L F - int_0^s exp(-lam t) F dt) ||.

    All three integrals are trapezoids on the shared lattice, where the
    identity telescopes exactly; the residual isolates quadrature
    coherence of the implementations rather than tail mismatch.
    """
    k = F.lattice_steps(s, "shift")
    Fs = translate(F, s)
    lam = complex(lam)
    t = F.times
    LF = trapezoid_transform(lam, t, F.values, F.dt)
    Lhead = trapezoid_transform(lam, t[:k + 1], F.values[:k + 1], F.dt)
    LFs = trapezoid_transform(lam, Fs.times, Fs.values, F.dt)
    rhs = np.exp(lam * s) * (LF - Lhead)
    return float(np.linalg.norm(LFs - rhs))


def mollify_identity_residual(F: SampledSignal, h: float, lam: complex) -> float:
    """Residual of L(M_h F) = g(lam h) L F - correction, g(z) = (e^z - 1)/z.

    The correction carries the double integral of exp(lam v) I(v) over
    [0, h] and the finite-record boundary term at the right end."""
    lam = complex(lam)
    k = F.lattice_steps(h, "h")
    M = mollify(F, h)
    t = F.times
    LF = trapezoid_transform(lam, t, F.values, F.dt)
    LM = trapezoid_transform(lam, M.times, M.values, F.dt)

    # cumulative integral I(v) = int_0^v exp(-lam t) F dt on the grid
    I = _cumulative(np.exp(-lam * t)[:, None] * F.values, F.dt)
    v = t[:k + 1]
    wv = trapezoid_weights(k + 1, F.dt)
    ev = np.exp(lam * v) * wv
    corr_head = (ev[:, None] * I[:k + 1]).sum(axis=0) / h
    # right-edge boundary term: int_{T-h+v}^{T} enters because M_h F's
    # record stops at T - h while L F runs to T
    n = F.n
    tail_rows = I[n - 1] - I[n - 1 - k:n]
    corr_tail = (ev[:, None] * tail_rows).sum(axis=0) / h
    g = (np.exp(lam * h) - 1.0) / (lam * h)
    rhs = g * LF - corr_head - corr_tail
    return float(np.linalg.norm(LM - rhs))
