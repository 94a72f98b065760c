"""Test kernels: the non-negative bump with band-limited transform,
band-pass plateau kernels, compactly supported bumps and the annihilators
of exp(t).

Fourier convention, shared by every module:

    g^(w) = integral exp(-i w t) g(t) dt.

Every kernel is a ``TestKernel``: time and transform functions, the
retained support, the mass of |k| and a tail-mass function given at
construction (a sample table, ``_table_tail``, or one rescaled).
``TestKernel.scaled`` is the one scaling path.  A kernel whose transform
vanishes off a known band also declares it (``Band``), and convolutions
with it read the record's DFT instead of its time samples.  Kernels are
immutable; sample tables are cached per grid.  The central constructions:

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
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field, replace
from typing import NamedTuple

import numpy as np

_SQRT2 = np.sqrt(2.0)
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

class Band(NamedTuple):
    """The band-limited member of the kernel interface (``signals.plan_band``
    and ``band_product`` read it with the kernel's ``ft_fn``): the
    transform is exactly 0.0 in double at |w| >= ``half_width``, and
    ``omitted(dnu)`` bounds the transform mass that a sum over the bins
    of spacing dnu within the band leaves out."""

    half_width: float
    omitted: object


@dataclass(frozen=True)
class TestKernel:
    """A sampled test kernel together with its transform.

    ``time_fn`` / ``ft_fn`` evaluate the kernel and its transform at
    arbitrary points (a real transform, as of psi or a plateau, as a real
    array).  ``s_lo`` / ``s_hi`` bound the retained time support
    (cut where the samples fall below the support-cut threshold); the
    discarded ``cut_mass`` is propagated into convolution error bounds
    through ``tail_mass``, the function x -> mass of |k| at distance >= x
    from the origin (cut included), given in closed form or as a table
    closure (``_table_tail``).

    ``band`` is the kernel's ``Band``, or None for a kernel compact in
    time only.  It is given as the init-only ``band_limit``, which
    ``dataclasses.replace`` does not copy: a kernel derived with a new
    transform declares its own band or has none.
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
    band_limit: InitVar[Band | None] = None
    band: Band | None = field(default=None, init=False, compare=False,
                              repr=False)
    _cache: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def __post_init__(self, band_limit):
        object.__setattr__(self, "band", band_limit)

    # -- sampling -------------------------------------------------------
    def time_samples(self, dt: float):
        """Samples on the record lattice covering the cut support.

        Returns ``(s0, values)`` with s_j = s0 + j*dt; s0 is an integer
        multiple of dt so convolution windows stay on the signal lattice.
        """
        key = round(dt, 12)
        if key not in self._cache:
            n_lo = int(np.ceil(-self.s_lo / dt - 1e-9))
            n_hi = int(np.ceil(self.s_hi / dt - 1e-9))
            s = dt * np.arange(-n_lo, n_hi + 1)
            self._cache[key] = (-n_lo * dt, np.asarray(self.time_fn(s), complex))
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


#: points of psi^ per block of its Gauss sums (a block's buffers hold
#: this many rows of the 400 nodes)
_PSI_BLOCK = 32


def _psi_hat_factory(a):
    xs, ws = _leggauss()

    def psi_hat(w):
        """2 pi (phi conv phi)(w), of w's shape: the Gauss rule on the
        overlap [max(-1, w-1), min(1, w+1)] of the two supports, and 0.0
        where it is empty (|w| >= 2).  The points in support go in blocks
        of rows, one row of nodes each and summed along its row alone, so
        each value has the bits of that point taken by itself."""
        w = np.atleast_1d(np.asarray(w, float))
        flat = w.ravel()
        lo, hi = np.maximum(-1.0, flat - 1.0), np.minimum(1.0, flat + 1.0)
        out = np.zeros(len(flat))
        keep = np.flatnonzero(hi > lo)
        for i in range(0, len(keep), _PSI_BLOCK):
            k = keep[i:i + _PSI_BLOCK]
            mid, half = 0.5 * (lo[k] + hi[k]), 0.5 * (hi[k] - lo[k])
            s = mid[:, None] + half[:, None] * xs
            out[k] = 2 * np.pi * half * (
                a * _bump_raw(flat[k, None] - s) * a * _bump_raw(s)
                * ws).sum(axis=1)
        return out.reshape(w.shape)

    return psi_hat


@functools.lru_cache(maxsize=1)
def bump_kernel() -> TestKernel:
    """The smooth non-negative kernel psi with psi^(0) = 1 and transform
    supported in [-2, 2]: psi = (phi^)^2, phi(x) = a exp(1/(x^2-1)).
    It declares that band, which no bin beyond it misses.  Built once;
    every call returns the same kernel.
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
        "bump", "S", time_fn, psi_hat, -L, L,
        (-2.0, 2.0), mass, _table_tail(time_fn, L, cut_mass), cut_mass,
        Band(2.0, lambda dnu: 0.0))


# ---------------------------------------------------------------------------
# band-pass plateau kernels
# ---------------------------------------------------------------------------

_math_erf = np.vectorize(math.erf, otypes=[float])
#: the plateau's edges, in sigma: within b - EDGE sigma it is exactly 1.0
#: and beyond b + EDGE sigma exactly 0.0 (erf(EDGE / sqrt 2) == 1.0); the
#: true plateau there differs by at most 0.5 erfc(EDGE / sqrt 2) < 1e-19
PLATEAU_EDGE = 9.0


def _erf(x):
    """The standard library's erf of an array, called only where it is
    not +-1.0 (it rounds to +-1.0 from |x| = 5.93 on)."""
    x = np.asarray(x, float)
    out = np.sign(x, out=np.empty_like(x))
    near = np.abs(x) < 6.0
    out[near] = _math_erf(x[near])
    return out


def _plateau(u, b, sigma):
    """box[-b, b] smoothed by N(0, sigma): 1 on the core, Gaussian edges."""
    return 0.5 * (_erf((u + b) / (sigma * _SQRT2)) - _erf((u - b) / (sigma * _SQRT2)))


def bandpass_shape(delta: float) -> tuple:
    """(b, sigma, reach = b + EDGE sigma) of ``bandpass_kernel(., delta)``."""
    b, sigma = 1.5 * delta, delta / 12.0
    return b, sigma, b + PLATEAU_EDGE * sigma


def bandpass_kernel(omega0: float, delta: float) -> TestKernel:
    """Kernel whose transform is a smooth plateau: 1 on
    [omega0-delta, omega0+delta], below 1e-9 outside [omega0-2delta, omega0+2delta].

    Time domain (closed form): exp(i omega0 t) sin(b t)/(pi t) * exp(-sigma^2 t^2/2)
    with b = 1.5 delta, sigma = delta/12.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    b, sigma, reach = bandpass_shape(delta)

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
        return _plateau(np.asarray(w, float) - w0, b, sigma)

    def omitted(dnu):
        # the plateau beyond b + EDGE sigma that the bins omit, summed over
        # both sides: 0.5 erfc((EDGE sigma + v) / (sigma sqrt 2)) <=
        # 0.5 exp(-EDGE^2 / 2 - EDGE v / sigma) at the bins v = i dnu
        return math.exp(-0.5 * PLATEAU_EDGE ** 2) / -math.expm1(
            -PLATEAU_EDGE * dnu / sigma)

    cut_tail = float(np.exp(-0.5 * (sigma * L) ** 2) * 2.0 / (np.pi * L * sigma * L))
    return TestKernel(f"bandpass(w0={omega0:g},delta={delta:g})", "S",
                      time_fn, ft_fn, -L, L,
                      (omega0 - 2 * delta, omega0 + 2 * delta),
                      _env_abs_mass(env, L), _table_tail(time_fn, L, cut_tail),
                      cut_tail,
                      Band(abs(omega0) + reach, omitted))


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
