"""Laplace and Carleman transforms of sampled records, and half-plane
scans of their values on grids a_k + i omega approaching the imaginary
axis.

All integrals are composite trapezoids over the record.  Truncating the
integral at the record horizon T is the one irreducible approximation;
its growth-aware bound

    C (1 + T^2)^k  exp(-a T) / a * (1 + k)

is computed for every abscissa and recorded.  Values whose bound exceeds
``tail_cap`` times the signal scale are refused (TailError) rather than
returned silently wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT
from .errors import DomainError, TailError
from .signals import Domain, SampledSignal

#: |Re lambda| * T above which the truncation tail is negligible outright
_SAFE_EXPONENT = 30.0


def tail_bound(F: SampledSignal, a: float) -> float:
    """Bound on || integral_T^inf exp(-a t) F(t) dt || from the declared
    growth envelope ||F(t)|| <= C (1+t^2)^k."""
    T = F.t_end if F.domain is Domain.HALF_LINE else max(abs(F.t0), F.t_end)
    k = F.growth_exponent
    c = F.envelope_constant()
    return float(c * (1.0 + T * T) ** k * np.exp(-a * T) / a * (1.0 + k))


def _trap_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = dt / 2
    return w


def trapezoid_transform(lam, u: np.ndarray, values: np.ndarray,
                        dt: float) -> np.ndarray:
    """Composite trapezoid of exp(-lam u) values over the lattice u of
    spacing dt: the one finite-record transform sum."""
    return (np.exp(-lam * u) * _trap_weights(len(u), dt)) @ values


def _check_tail(F: SampledSignal, a: float, cfg: Config):
    if a == 0.0:
        raise DomainError("transform undefined for Re lambda = 0")
    T = F.t_end if F.domain is Domain.HALF_LINE else max(abs(F.t0), F.t_end)
    if abs(a) * T >= _SAFE_EXPONENT:
        return 0.0
    b = tail_bound(F, abs(a))
    if b > cfg.tail_cap * max(F.sup_norm(), 1e-300):
        raise TailError(f"truncation tail bound {b:.3g} at Re lambda = {a:g} "
                        f"exceeds {cfg.tail_cap} * signal scale")
    return b


def laplace_transform(F: SampledSignal, lam: complex,
                      cfg: Config = DEFAULT) -> np.ndarray:
    """L F(lambda) = integral_0^inf exp(-lambda t) F(t) dt, Re lambda > 0."""
    if F.domain is not Domain.HALF_LINE:
        raise DomainError("Laplace transform needs a half-line signal")
    lam = complex(lam)
    if lam.real <= 0:
        raise DomainError("Laplace transform needs Re lambda > 0")
    _check_tail(F, lam.real, cfg)
    return trapezoid_transform(lam, F.times, F.values, F.dt)


def carleman_transform(F: SampledSignal, lam: complex,
                       cfg: Config = DEFAULT) -> np.ndarray:
    """Two-half-plane transform of a full-line record:

        C F(lambda) = integral_0^inf exp(-lambda t) F(t) dt   (Re > 0)
                    = -integral_0^inf exp(lambda t) F(-t) dt  (Re < 0)
    """
    if F.domain is not Domain.FULL_LINE:
        raise DomainError("Carleman transform needs a full-line record")
    lam = complex(lam)
    if lam.real == 0:
        raise DomainError("Carleman transform undefined on the imaginary axis")
    _check_tail(F, lam.real, cfg)
    i0 = F.index_of(0.0)
    if lam.real > 0:
        vals = F.values[i0:]
        return trapezoid_transform(lam, F.dt * np.arange(len(vals)), vals, F.dt)
    vals = F.values[i0::-1]                 # F(-u), u >= 0
    return -trapezoid_transform(-lam, F.dt * np.arange(len(vals)), vals, F.dt)


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Transform values on {s_k + i omega_j} with s_k -> 0.

    ``right``/``left`` have shape (n_a, n_omega, d); ``left`` is None for
    half-line signals.  ``tail_bounds`` records the truncation bound per
    abscissa; abscissae whose bound exceeded the cap are simply absent.
    """

    a_seq: tuple
    omegas: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    tail_bounds: tuple
    scale: float               # median |values|, the tolerance reference


def lattice_exp_tables(z, n: int, dt: float) -> tuple:
    """Factored exp(-z_l k dt) on the lattice 0 <= k < n.

    With m = ceil(sqrt(n)) and k = b m + c, exp(-z k dt) = outer[l, b] *
    inner[l, c], where outer[l, b] = exp(-z_l b m dt) (n_z x n_b,
    n_b = ceil(n / m)) and inner[l, c] = exp(-z_l c dt) (n_z x m).  Each
    entry is one direct exponential, so both tables are accurate to a
    few ulp and the full n_z x n matrix is never formed."""
    m = math.isqrt(n - 1) + 1              # ceil(sqrt(n)), n >= 1
    n_b = -(-n // m)
    outer = np.exp(-np.outer(z, dt * (m * np.arange(n_b))))
    inner = np.exp(-np.outer(z, dt * np.arange(m)))
    return outer, inner


def lattice_exp_sum(weights, z, n: int, dt: float) -> np.ndarray:
    """sum_l weights_l exp(-z_l k dt) for 0 <= k < n, as one product of
    the factored tables: (n_b x n_z) @ (n_z x m), read row-major."""
    outer, inner = lattice_exp_tables(z, n, dt)
    return ((weights[:, None] * outer).T @ inner).reshape(-1)[:n]


class TransformScanner:
    """Batch evaluator for one signal: exp(-i omega u) on the lattice
    u = k dt, 0 <= k < max(n_right, n_left), kept as the factored tables
    of ``lattice_exp_tables`` and shared by every abscissa and both
    half-lines.  F(u) uses a prefix of the lattice; F(-u) uses the
    conjugate, because exp(+i omega u) = conj(exp(-i omega u))."""

    def __init__(self, F: SampledSignal, omegas, cfg: Config = DEFAULT):
        self.F = F
        self.cfg = cfg
        self.omegas = np.asarray(omegas, float)
        i0 = F.index_of(0.0) if F.domain is Domain.FULL_LINE else 0
        self._pos_vals = F.values[i0:]
        self._neg_vals = (F.values[i0::-1]          # F(-u), u >= 0
                          if F.domain is Domain.FULL_LINE else None)
        self.u = F.dt * np.arange(max(F.n - i0, i0 + 1))
        self._E_outer, inner = lattice_exp_tables(1j * self.omegas,
                                                  len(self.u), F.dt)
        # _E_neg names the same table: perfbench/tracing.py reads both
        self._E_pos = self._E_neg = inner

    def product(self, damping: np.ndarray, left: bool = False) -> np.ndarray:
        """Trapezoid of exp(-i omega_j u) damping(u) F(u) over u >= 0 for
        every grid omega (n_omega, d); with ``left``, of exp(+i omega_j u)
        damping(u) F(-u).  ``damping`` is sampled on ``u``.

        The lattice sum is sum_b outer[j, b] sum_c inner[j, c] y[b m + c]:
        one product with the inner table over the zero-padded samples
        laid out as (m, n_b d), then a row-wise contraction with the
        outer table."""
        vals = self._neg_vals if left else self._pos_vals
        n, d = vals.shape
        y = (damping[:n] * _trap_weights(n, self.F.dt))[:, None] * vals
        if left:                            # conj(E) @ y = conj(E @ conj(y))
            y = np.conj(y)
        inner = self._E_pos
        m = inner.shape[1]
        n_b = -(-n // m)
        Y = np.zeros((n_b * m, d), complex)
        Y[:n] = y
        Y = Y.reshape(n_b, m, d).transpose(1, 0, 2).reshape(m, n_b * d)
        P = (inner @ Y).reshape(len(self.omegas), n_b, d)
        out = np.einsum("jb,jbd->jd", self._E_outer[:, :n_b], P)
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
        out, bounds = [], []
        for a in self.cfg.a_seq:
            try:
                bounds.append(_check_tail(self.F, a, self.cfg))
                out.append(a)
            except TailError:
                continue
        return tuple(out), tuple(bounds)


def half_plane_scan(F: SampledSignal, omegas, cfg: Config = DEFAULT,
                    scanner: TransformScanner | None = None) -> HalfPlaneGrid:
    """Evaluate the transform on the admissible a_k x omega grid."""
    omegas = np.asarray(omegas, float)
    sc = scanner or TransformScanner(F, omegas, cfg)
    a_adm, bounds = sc.admissible_a()
    if len(a_adm) < 3:
        raise TailError("fewer than 3 admissible abscissae: record too short "
                        "or growth too strong for a boundary scan")
    right = np.stack([sc.right_values(a) for a in a_adm])
    mags = np.linalg.norm(right, axis=2)
    left = None
    if F.domain is Domain.FULL_LINE:
        left = np.stack([sc.left_values(a) for a in a_adm])
        mags = np.concatenate([mags, np.linalg.norm(left, axis=2)])
    scale = float(np.median(mags))
    return HalfPlaneGrid(a_adm, omegas, right, left, bounds, scale)


# ---------------------------------------------------------------------------
# transform identities (finite-record forms)
# ---------------------------------------------------------------------------

def shift_identity_residual(F: SampledSignal, s: float, lam: complex) -> float:
    """|| L F_s - exp(lam s)(L F - int_0^s exp(-lam t) F dt) ||.

    All three integrals are trapezoids on the shared lattice, where the
    identity telescopes exactly; the residual isolates quadrature
    coherence of the implementations rather than tail mismatch.
    """
    from .signals import translate
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
    from .signals import mollify
    lam = complex(lam)
    k = F.lattice_steps(h, "h")
    M = mollify(F, h)
    t = F.times
    LF = trapezoid_transform(lam, t, F.values, F.dt)
    LM = trapezoid_transform(lam, M.times, M.values, F.dt)

    # cumulative integral I(v) = int_0^v exp(-lam t) F dt on the grid
    integrand = np.exp(-lam * t)[:, None] * F.values
    steps = 0.5 * F.dt * (integrand[1:] + integrand[:-1])
    I = np.vstack([np.zeros((1, F.dim), complex), np.cumsum(steps, axis=0)])
    v = t[:k + 1]
    wv = _trap_weights(k + 1, F.dt)
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


def carleman_as_convolution_residual(phi: SampledSignal, lam: complex,
                                     t_probe, cfg: Config = DEFAULT) -> float:
    """|| (phi * reflect(f_lam))(t) - C phi_t(lam) || at the probe times.

    reflect(f_lam) = -f_{-lam} for either sign of Re lam, and the
    convolution against it reproduces the transform of the translate:
    int_0^inf exp(-lam s) phi(t+s) ds on the right half-plane and
    -int_{-inf}^0 exp(-lam s) phi(t+s) ds on the left.
    """
    from .kernels import exp_kernel, reflected
    from .signals import convolve, extend_by_zero
    lam = complex(lam)
    kern = reflected(exp_kernel(lam))
    conv = convolve(extend_by_zero(phi), kern, budget=1e-9)
    worst = 0.0
    for tp in t_probe:
        idx = conv.index_of(tp)
        if lam.real > 0:
            tail = phi.restrict(tp, phi.t_end)
            ref = trapezoid_transform(lam, tail.times - tp, tail.values,
                                      tail.dt)
        else:
            head = phi.restrict(phi.t0, tp)   # u = t - tp in [t0 - tp, 0]
            ref = -trapezoid_transform(lam, head.times - tp, head.values,
                                       head.dt)
        worst = max(worst, float(np.linalg.norm(conv.values[idx] - ref)))
    return worst
