"""Test kernels: the non-negative bump with band-limited transform, its
dilates (an approximate identity), band-pass plateau kernels, box and
exponential kernels, and division in the frequency domain.

Fourier convention, shared by every module:

    g^(w) = integral exp(-i w t) g(t) dt.

Every kernel is a ``TestKernel``: time and transform functions, the
retained support, the mass of |k| and a tail-mass function given at
construction (closed form for the box and exponential kernels, a sample
table otherwise).  ``TestKernel.scaled`` is the one scaling path and
``reflected`` the one reflection.  Kernels are immutable; sample tables
are cached per grid.  The central constructions:

* ``bump_kernel`` builds psi = (phi^)^2 for the scaled bump
  phi(x) = a exp(1/(x^2-1)) on [-1, 1], with a chosen so psi^(0) = 1.
  Then psi >= 0, psi^ = 2 pi (phi conv phi) is supported in [-2, 2].
* ``bandpass_kernel(w0, delta)`` has transform equal to 1 on
  [w0-delta, w0+delta] and negligible outside [w0-2delta, w0+2delta].
  The plateau edges are Gaussian: a box smoothed by N(0, sigma) with
  sigma = delta/12 keeps the off-band leakage below 1e-9 while giving the
  time kernel Gaussian decay, so records of a few hundred seconds suffice.
  (An edge built from compactly supported bumps would decay only like
  exp(-c sqrt(t)) and need kernels thousands of seconds long.)
* ``wiener_divide(f, K)`` returns g with g^ f^ = 1 on K and g^ compactly
  supported, the computable form of the L^1 Wiener division lemma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivisionError_, DomainError, GridError
from .signals import trapezoid_weights

_SQRT2 = np.sqrt(2.0)
#: minimum |f^| that ``wiener_divide`` divides by
EPS_DIV = 1e-6
#: kernel tails are cut where |k| falls below this fraction of its peak
SUPPORT_CUT = 1e-14


@functools.lru_cache(maxsize=1)
def _leggauss():
    """The 400-node Gauss-Legendre rule on [-1, 1], shared by every kernel
    so that no kernel's samples depend on which was built first."""
    return np.polynomial.legendre.leggauss(400)


def _bump_raw(x):
    """exp(1/(x^2-1)) on (-1, 1), zero outside."""
    x = np.asarray(x, float)
    inside = np.abs(x) < 1.0
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = np.exp(1.0 / (xi * xi - 1.0))
    return out


# ---------------------------------------------------------------------------
# the kernel object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestKernel:
    """A sampled test kernel together with its transform.

    ``time_fn`` / ``ft_fn`` evaluate the kernel and its transform at
    arbitrary points.  ``s_lo`` / ``s_hi`` bound the retained time support
    (cut where the samples fall below the support-cut threshold); the
    discarded ``cut_mass`` is propagated into convolution error bounds
    through ``tail_mass``, the function x -> mass of |k| at distance >= x
    from the origin (cut included), given in closed form or as a table
    closure (``_table_tail``).
    """

    kernel_id: str
    family: str                  # 'D' (compact time support), 'S', 'L1'
    time_fn: object
    ft_fn: object
    s_lo: float
    s_hi: float
    ft_support: tuple
    mass: float                  # integral of |k|
    tail_mass: object
    cut_mass: float = 0.0
    _cache: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    # -- sampling -------------------------------------------------------
    def time_samples(self, dt: float, quad_step: float | None = None):
        """Samples on the quadrature lattice covering the cut support.

        Returns ``(s0, values)`` with s_j = s0 + j*step; s0 is an integer
        multiple of dt so convolution windows stay on the signal lattice.
        """
        step = dt if quad_step is None else quad_step
        m = round(step / dt)
        if abs(step - m * dt) > 1e-9 * dt or m < 1:
            raise GridError("quadrature step must be a positive multiple of dt")
        key = (round(dt, 12), m)
        if key not in self._cache:
            n_lo = int(np.ceil(-self.s_lo / step - 1e-9))
            n_hi = int(np.ceil(self.s_hi / step - 1e-9))
            s = step * np.arange(-n_lo, n_hi + 1)
            self._cache[key] = (-n_lo * step, np.asarray(self.time_fn(s), complex))
        return self._cache[key]

    def ft(self, omega):
        return self.ft_fn(np.asarray(omega, float))

    def scaled(self, c: complex, tag: str = "scaled") -> "TestKernel":
        """c * k, the one way kernels are rescaled."""
        a = abs(c)
        tf, ff, tail = self.time_fn, self.ft_fn, self.tail_mass
        return replace(
            self, kernel_id=f"{tag}({self.kernel_id})",
            time_fn=lambda t: c * np.asarray(tf(t), complex),
            ft_fn=lambda w: c * np.asarray(ff(w), complex),
            mass=a * self.mass, cut_mass=a * self.cut_mass,
            tail_mass=lambda x: a * tail(x))


def _table_tail(time_fn, L: float, cut_mass: float):
    """Tail-mass function of |k| from a fine sample table on [0, L]."""
    xs = np.linspace(0.0, L, 4001)
    vals = np.abs(np.asarray(time_fn(xs), complex)) + \
        np.abs(np.asarray(time_fn(-xs), complex))
    dx = xs[1] - xs[0]
    ms = np.concatenate([[0.0], np.cumsum(0.5 * dx * (vals[:-1] + vals[1:])[::-1])])[::-1] \
        + cut_mass

    def tail_mass(x: float) -> float:
        if x <= xs[0]:
            return float(ms[0])
        if x >= xs[-1]:
            return float(cut_mass)
        return float(np.interp(x, xs, ms))

    return tail_mass


# ---------------------------------------------------------------------------
# bump kernel (non-negative, transform supported in [-2, 2])
# ---------------------------------------------------------------------------

def _bump_normalizer():
    """a with psi^(0) = 2 pi a^2 int exp(2/(x^2-1)) dx = 1."""
    xs, ws = _leggauss()
    i2 = float((np.exp(2.0 / (xs * xs - 1.0)) * ws).sum())
    return (2.0 * np.pi * i2) ** -0.5


def _phi_hat_factory(a):
    xs, ws = _leggauss()
    phiw = a * np.exp(1.0 / (xs * xs - 1.0)) * ws

    def phi_hat(t):
        t = np.atleast_1d(np.asarray(t, float))
        out = np.empty(len(t))
        for i in range(0, len(t), 1024):
            tt = t[i:i + 1024]
            out[i:i + 1024] = np.cos(np.outer(tt, xs)) @ phiw
        return out

    return phi_hat


def _psi_hat_factory(a):
    xs, ws = _leggauss()

    def psi_hat(w):
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

    return psi_hat


@functools.lru_cache(maxsize=1)
def bump_kernel() -> TestKernel:
    """The smooth non-negative kernel psi with psi^(0) = 1 and transform
    supported in [-2, 2]: psi = (phi^)^2, phi(x) = a exp(1/(x^2-1)).
    Built once; every call returns the same kernel.
    """
    a = _bump_normalizer()
    phi_hat = _phi_hat_factory(a)
    psi_hat = _psi_hat_factory(a)

    def time_fn(t):
        v = phi_hat(np.asarray(t, float))
        return (v * v).astype(complex)

    peak = float(time_fn(np.array([0.0]))[0].real)
    # locate the support cut: last point where psi >= cut * peak
    tt = np.arange(0.0, 400.0, 0.25)
    vals = np.abs(time_fn(tt))
    above = np.where(vals >= SUPPORT_CUT * peak)[0]
    L = float(tt[above[-1]]) + 0.5
    cut_mass = 2.0 * float(np.trapezoid(vals[tt >= L], dx=0.25))
    mass = 2.0 * float(np.trapezoid(vals[tt <= L], dx=0.25))

    return TestKernel(
        "bump", "S", time_fn, lambda w: psi_hat(w).astype(complex), -L, L,
        (-2.0, 2.0), mass, _table_tail(time_fn, L, cut_mass), cut_mass)


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


# ---------------------------------------------------------------------------
# band-pass plateau kernels
# ---------------------------------------------------------------------------

def _plateau(u, b, sigma):
    """box[-b, b] smoothed by N(0, sigma): 1 on the core, Gaussian edges."""
    # imported here, not at module level: scipy is slow to load
    from scipy.special import erf
    return 0.5 * (erf((u + b) / (sigma * _SQRT2)) - erf((u - b) / (sigma * _SQRT2)))


def bandpass_kernel(omega0: float, delta: float) -> TestKernel:
    """Kernel whose transform is a smooth plateau: 1 on
    [omega0-delta, omega0+delta], below 1e-9 outside [omega0-2delta, omega0+2delta].

    Time domain (closed form): exp(i omega0 t) sin(b t)/(pi t) * exp(-sigma^2 t^2/2)
    with b = 1.5 delta, sigma = delta/12.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    b = 1.5 * delta
    sigma = delta / 12.0

    def env(t):
        t = np.asarray(t, float)
        core = np.where(t == 0.0, b / np.pi,
                        np.sin(b * np.where(t == 0, 1.0, t)) /
                        (np.pi * np.where(t == 0, 1.0, t)))
        return core * np.exp(-0.5 * (sigma * t) ** 2)

    peak = b / np.pi
    # envelope is bounded by exp(-sigma^2 t^2/2)/(pi t): scan for the cut
    tt = np.arange(1.0, 60.0 / sigma, 0.5)
    bound = np.exp(-0.5 * (sigma * tt) ** 2) / (np.pi * tt)
    above = np.where(bound >= SUPPORT_CUT * peak)[0]
    L = float(np.ceil(tt[above[-1]] + 1.0)) if len(above) else 1.0

    def time_fn(t, w0=omega0):
        t = np.asarray(t, float)
        return env(t) * np.exp(1j * w0 * t)

    def ft_fn(w, w0=omega0):
        return _plateau(np.asarray(w, float) - w0, b, sigma).astype(complex)

    cut_tail = float(np.exp(-0.5 * (sigma * L) ** 2) * 2.0 / (np.pi * L * sigma * L))
    return TestKernel(f"bandpass(w0={omega0:g},delta={delta:g})", "S",
                      time_fn, ft_fn, -L, L,
                      (omega0 - 2 * delta, omega0 + 2 * delta),
                      _env_abs_mass(env, L), _table_tail(time_fn, L, cut_tail),
                      cut_tail)


def _env_abs_mass(env, L):
    t = np.linspace(-L, L, 8001)
    return float(np.trapezoid(np.abs(env(t)), dx=t[1] - t[0]))


# ---------------------------------------------------------------------------
# compactly supported (time-domain) bumps and the annihilator family
# ---------------------------------------------------------------------------

def d_bump() -> TestKernel:
    """Compactly supported smooth bump on [-1, 1], unit mass.

    This is the D-family workhorse: exact compact support in time, so
    convolutions against rapidly growing signals stay honest.
    """
    xs, ws = _leggauss()
    raw_mass = float((_bump_raw(xs) * ws).sum())
    c = 1.0 / raw_mass

    def time_fn(t):
        return (c * _bump_raw(t)).astype(complex)

    def ft_fn(w):
        w = np.atleast_1d(np.asarray(w, float))
        return (np.exp(-1j * np.outer(w, xs))
                * (c * _bump_raw(xs) * ws)).sum(axis=1)

    return TestKernel("dbump(c=0,hw=1)", "D", time_fn, ft_fn, -1.0, 1.0,
                      (-np.inf, np.inf), 1.0, _table_tail(time_fn, 1.0, 0.0))


def annihilator_kernel(a: float) -> TestKernel:
    """The two-sided kernel that annihilates exp(t) under convolution:

        f(t) = phi(t) on [0, a],   f(t) = -exp(2t) phi(-t) on [-a, 0),

    with phi a smooth bump supported in (0, a).  Substituting u = -t shows
    integral exp(-s) f(s) ds = 0, hence (exp(.) * f) = 0; its transform
    satisfies Re f^(w) > 0 whenever cos(w s) keeps one sign on (0, a).
    """
    if a <= 0:
        raise ValueError("a must be > 0")
    xs, ws = _leggauss()

    def phi(t):
        # bump supported on (0, a)
        u = 2.0 * np.asarray(t, float) / a - 1.0
        return _bump_raw(u)

    def time_fn(t):
        t = np.asarray(t, float)
        pos = phi(t)
        neg = -np.exp(2.0 * t) * phi(-t)
        return (np.where(t >= 0, pos, neg)).astype(complex)

    s_nodes = 0.5 * a * (xs + 1.0)   # (0, a)
    w_nodes = 0.5 * a * ws
    pv = phi(s_nodes)

    def ft_fn(w):
        w = np.atleast_1d(np.asarray(w, float))
        ph_pos = np.exp(-1j * np.outer(w, s_nodes))
        ph_neg = np.exp(1j * np.outer(w, s_nodes))
        return (ph_pos * (pv * w_nodes)).sum(axis=1) - \
            (ph_neg * (np.exp(-2.0 * s_nodes) * pv * w_nodes)).sum(axis=1)

    mass = float((pv * w_nodes).sum() +
                 (np.exp(-2.0 * s_nodes) * pv * w_nodes).sum())
    return TestKernel(f"annihilator(a={a:g})", "D", time_fn, ft_fn, -a, a,
                      (-np.inf, np.inf), mass, _table_tail(time_fn, a, 0.0))


# ---------------------------------------------------------------------------
# box and exponential kernels
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Wiener division
# ---------------------------------------------------------------------------

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
