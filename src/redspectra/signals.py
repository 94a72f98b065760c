"""Sampled signals on the half line or full line, and their elementary
operations: zero extension, translation, modulation, convolution against
test kernels and sliding-average mollification.

A signal is a finite, uniformly sampled record of a conceptually infinite
object.  Every operation that would need values outside the record either
uses the declared zero extension (half-line signals vanish for t < 0) or
accounts for the omission through an explicit truncation bound; nothing is
periodized or silently zero-filled beyond the stated budget.

Every convolution is planned by ``plan_convolution`` (window admission,
padding, strided views trimmed to the taps that meet data, and the
truncation bound).  ``convolve`` sums the plan against the kernel's
weights in tap order (``plan_product``); the band-pass ladder of
``spectra.ReducedScanner`` takes one plan to many modulated kernels at
once with ``modulated_product``, one FFT correlation of the same
trapezoid sums.

All types are immutable and all operations are pure functions, so signals
may be shared freely across threads.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError, GrowthError, HorizonError, TruncationError

#: relative slack in the on-lattice test for times and lags
_LATTICE_RTOL = 1e-9

# growth validation: outer-tail envelope may not exceed the inner envelope
# by more than this factor (catches undeclared polynomial growth)
_GROWTH_SLACK = 1.1
_GROWTH_TAIL_FRAC = 0.15
# ... unless the whole record's least-squares order stays below k + this:
# a tail rise that is no power-law trend (a beat longer than the record, a
# noise draw) is no evidence against the declared exponent
_GROWTH_ORDER_MARGIN = 0.25

#: byte bound on each transient work buffer: a block of rows, a group of
#: frequencies.  Every row and every frequency is computed alone, so no
#: value depends on it
WORK_BYTES = 2 * 2 ** 20


def row_slices(n: int, row_bytes: int) -> list:
    """Slices that cover rows 0..n-1 in order, each holding at most
    ``WORK_BYTES`` of rows of ``row_bytes`` bytes (two rows at least).  A
    lone last row joins the block before it: numpy multiplies a one-row
    matrix by another kernel, which rounds differently."""
    rows = max(2, WORK_BYTES // row_bytes)
    return [slice(i, i + rows if i + rows < n - 1 else n)
            for i in range(0, max(n - 1, 1), rows)]


class Domain(enum.Enum):
    HALF_LINE = "half_line"   # [0, inf)
    FULL_LINE = "full_line"   # (-inf, inf)


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("values must be a nonempty (n, d) array")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _fit_growth(times: np.ndarray, norms: np.ndarray) -> float:
    mask = norms > 1e-300
    if mask.sum() < 2:
        return 0.0
    x = np.log1p(times[mask] ** 2)
    y = np.log(norms[mask])
    x = x - x.mean()
    denom = (x * x).sum()
    if denom == 0:
        return 0.0
    return max(0.0, float((x * (y - y.mean())).sum() / denom))


def _check_growth(times: np.ndarray, norms: np.ndarray, k: int):
    """Reject a declared exponent the record itself contradicts.

    The declared bound is ||F(t)|| <= C (1+t^2)^k.  A finite record can
    only be checked for an envelope ratio trending upward in its outer
    tails, which is exactly what the transform tail bounds rely on.  A
    rise there counts as growth only when a power law fitted to the whole
    record confirms it.  For k = 0 the tail test alone flags |t|^p on
    [0, T] from p ~ 0.46; the fit asks for order k + 1/4 (p >= 2k + 1/2),
    so power-law growth is still caught, while a bounded record whose
    envelope happens to rise at the end fits an order near k.  A row
    whose norm is not finite (a sample near the float range squares to
    inf) is refused first: no bound holds for it.
    """
    if k < 0 or k != int(k):
        raise GrowthError(f"growth_exponent must be a nonnegative integer, got {k}")
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise GrowthError(f"the norm of the row at t={times[bad[0]]:.10g} "
                          f"is not finite")
    with np.errstate(over="ignore"):   # an inf envelope gives ratio 0
        ratio = norms / (1.0 + times * times) ** k
    peak = ratio.max()
    if peak == 0.0:
        return
    cut = np.quantile(np.abs(times), 1.0 - _GROWTH_TAIL_FRAC)
    outer = np.abs(times) >= cut
    if not outer.any() or outer.all():
        return
    # high quantiles rather than maxima: rough-but-bounded signals must not
    # trip the validator on a single tail fluctuation
    r_out = np.quantile(ratio[outer], 0.95)
    r_in = np.quantile(ratio[~outer], 0.95)
    if r_out <= _GROWTH_SLACK * r_in + 1e-12 * peak:
        return
    fit = _fit_growth(times, norms)
    if fit >= k + _GROWTH_ORDER_MARGIN:
        raise GrowthError(
            f"record outgrows (1+t^2)^{k}: outer envelope {r_out:.3g} vs "
            f"inner {r_in:.3g}; least-squares fit suggests k ~ {fit:.2f}")


def span_steps(span: float, dt: float, what: str) -> int:
    """Convert a time span to an integer number of dt steps or raise."""
    steps = span / dt
    k = round(steps)
    if abs(steps - k) > _LATTICE_RTOL * max(1.0, abs(steps)):
        raise GridError(f"{what} {span!r} is not a multiple of dt={dt}")
    return int(k)


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled function J -> C^d with grid metadata.

    Parameters
    ----------
    domain : Domain
        Half line [0, inf) or full line.
    t0 : float
        Time of the first sample.  Must be exactly 0 for half-line signals.
    dt : float
        Sample spacing, > 0.
    values : array (n, d) complex
        One row per sample.
    growth_exponent : int
        Declared k with ||F(t)|| <= C (1+t^2)^k, validated against the
        record and used by transform truncation bounds.
    """

    domain: Domain
    t0: float
    dt: float
    values: np.ndarray
    growth_exponent: int = 0
    #: set on signals produced by validated operations (convolution of a
    #: validated signal cannot raise its polynomial growth order), where
    #: budgeted edge noise would otherwise spoof the trend validator
    trusted: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        object.__setattr__(self, "values", _as_values(self.values))
        if self.domain is Domain.HALF_LINE and abs(self.t0) > _LATTICE_RTOL * self.dt:
            raise DomainError("half-line signals must start at t0 = 0")
        if not self.trusted:
            with np.errstate(over="ignore", invalid="ignore"):
                norms = self.norms
            _check_growth(self.times, norms, self.growth_exponent)

    # ---- geometry -----------------------------------------------------
    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def norms(self) -> np.ndarray:
        # by row blocks: the norm of a block makes two complex copies of it
        parts = [np.linalg.norm(self.values[r], axis=1)
                 for r in row_slices(self.n, self.values[0].nbytes)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def sup_norm(self) -> float:
        return float(self.norms.max())

    def lattice_steps(self, span: float, what: str = "value") -> int:
        return span_steps(span, self.dt, what)

    def index_of(self, t: float) -> int:
        return self.lattice_steps(
            t - self.t0, f"time {t!r} is off the lattice of a record from "
                         f"t0={self.t0!r}: its offset")

    def envelope_constant(self) -> float:
        """C with ||F(t)|| <= C (1+t^2)^k over the record."""
        with np.errstate(over="ignore"):   # an inf envelope gives ratio 0
            r = self.norms / (1.0 + self.times ** 2) ** self.growth_exponent
        return float(r.max())


@dataclass(frozen=True)
class ExtendedSignal(SampledSignal):
    """A full-line signal produced by zero extension or convolution.

    ``origin_domain`` remembers where the underlying data lived: when it is
    the half line, values for t below the record are exactly zero (or known
    smoothings of a function vanishing there), so the left end needs no
    data.  ``trunc_bound`` is the worst-case per-sample error inherited
    from quadrature windows that ran past the record within budget.
    """

    origin_domain: Domain = Domain.FULL_LINE
    trunc_bound: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.domain is not Domain.FULL_LINE:
            raise DomainError("extended signals live on the full line")

    def restrict_to_origin(self) -> SampledSignal:
        """Restriction to the original domain J (drops the t < 0 part)."""
        if self.origin_domain is Domain.FULL_LINE:
            return SampledSignal(Domain.FULL_LINE, self.t0, self.dt,
                                 self.values, self.growth_exponent, trusted=True)
        i = max(0, int(np.ceil(-self.t0 / self.dt - _LATTICE_RTOL)))
        if i >= self.n:
            raise HorizonError("nothing left of the record on [0, inf)")
        start = self.t0 + i * self.dt
        if abs(start) <= _LATTICE_RTOL * self.dt:
            return SampledSignal(Domain.HALF_LINE, 0.0, self.dt,
                                 self.values[i:], self.growth_exponent,
                                 trusted=True)
        return SampledSignal(Domain.FULL_LINE, start, self.dt,
                             self.values[i:], self.growth_exponent, trusted=True)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def extend_by_zero(F: SampledSignal, t_min: float | None = None) -> ExtendedSignal:
    """Zero extension of F to the full line.

    For a half-line signal the result agrees with F on [0, t_end] and is 0
    on [t_min, 0); a full-line signal is returned as is (its values to the
    left are unknown, not zero, so no padding is permitted).
    """
    if F.domain is Domain.FULL_LINE:
        if t_min is not None and t_min < F.t0 - _LATTICE_RTOL * F.dt:
            raise TruncationError("cannot extend a full-line record leftward: "
                                  "values there are unknown, not zero")
        return ExtendedSignal(Domain.FULL_LINE, F.t0, F.dt, F.values,
                              F.growth_exponent, trusted=True,
                              origin_domain=Domain.FULL_LINE)
    if t_min is None:
        t_min = -F.dt * round(min(50.0, 0.25 * max(F.t_end, F.dt)) / F.dt)
    if t_min > F.t0 + _LATTICE_RTOL * F.dt:
        raise GridError("t_min must not exceed the record start")
    pad = F.lattice_steps(F.t0 - t_min, "t_min offset")
    vals = np.vstack([np.zeros((pad, F.dim), complex), F.values])
    return ExtendedSignal(Domain.FULL_LINE, F.t0 - pad * F.dt, F.dt, vals,
                          F.growth_exponent, trusted=True,
                          origin_domain=Domain.HALF_LINE)


def translate(F: SampledSignal, s: float) -> SampledSignal:
    """F_s(t) = F(t + s), s on the lattice.

    On the half line only s >= 0 makes sense and the record shortens; on
    the full line the same samples are relabelled.
    """
    k = F.lattice_steps(s, "shift")
    if F.domain is Domain.HALF_LINE:
        if k < 0:
            raise DomainError("half-line signals only translate by s >= 0")
        if k >= F.n:
            raise HorizonError("shift exceeds the record")
        return SampledSignal(Domain.HALF_LINE, 0.0, F.dt, F.values[k:],
                             F.growth_exponent, trusted=True)
    return SampledSignal(Domain.FULL_LINE, F.t0 - k * F.dt, F.dt, F.values,
                         F.growth_exponent, trusted=True)


def modulate(F: SampledSignal, omega: float) -> SampledSignal:
    """gamma_omega * F with gamma_omega(t) = exp(i omega t)."""
    vals = F.values * np.exp(1j * omega * F.times)[:, None]
    return SampledSignal(F.domain, F.t0, F.dt, vals, F.growth_exponent,
                         trusted=True)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite-trapezoid weights of n samples at spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def _cumulative(values: np.ndarray, dt: float, carry=0j) -> np.ndarray:
    """Cumulative trapezoid integral of the (n, d) rows ``values`` at
    spacing dt from the first row, where it is ``carry`` (a (1, d) row)."""
    steps = 0.5 * dt * (values[1:] + values[:-1])
    return np.cumsum(np.vstack([np.full((1, values.shape[1]), carry), steps]),
                     axis=0)


def mollify(F: SampledSignal, h: float) -> SampledSignal:
    """Sliding average M_h F(t) = (1/h) * integral of F over [t, t+h].

    Computed from the cumulative trapezoid; agrees with convolving the
    zero extension against the box kernel s_h and restricting to J.
    """
    k = F.lattice_steps(h, "h")
    if k <= 0:
        raise GridError("h must be a positive lattice multiple")
    if k >= F.n:
        raise HorizonError("h exceeds the record")
    cum = _cumulative(F.values, F.dt)
    vals = (cum[k:] - cum[:-k]) / h
    return SampledSignal(F.domain, F.t0, F.dt, vals, F.growth_exponent,
                         trusted=True)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _tail_crossing(tail_mass, thr: float, width: float) -> float:
    """Smallest x with tail_mass(x) <= thr (tail_mass is non-increasing)."""
    if tail_mass(0.0) <= thr:
        return 0.0
    if tail_mass(width) > thr:
        raise TruncationError(
            "kernel support cut alone exceeds the truncation budget")
    lo, hi = 0.0, width
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail_mass(mid) <= thr:
            hi = mid
        else:
            lo = mid
    return hi


class ConvPlan(NamedTuple):
    """Output grid and operands of one trapezoid convolution.

    Row k of ``views[c]`` holds the samples of channel c under the kernel
    taps for the output at ``t0 + k*step``, so that output is
    ``views[c][k] @ weights_rev``.  ``s_rev`` holds the tap times (in the
    same reversed order) and ``trunc`` the worst admitted omission.  Only
    taps that meet a nonzero sample for some output are kept; the rest
    would multiply zeros.
    """

    t0: float
    step: float
    views: list
    s_rev: np.ndarray
    weights_rev: np.ndarray
    trunc: float


def plan_convolution(H: ExtendedSignal, kernel, out_step: float | None = None,
                     out_range: tuple | None = None, budget: float = 1e-12,
                     quad_step: float | None = None) -> ConvPlan:
    """Window admission, padding and strided views for ``convolve``.

    Output points are restricted to where the quadrature window either
    stays inside the sampled range of H or runs only over regions that are
    known (the zero left tail of a half-line origin) or negligible (kernel
    mass beyond the record, weighted by the declared growth envelope,
    below ``budget`` relative to sup||H||).  A window that would exceed
    the budget is not planned at all.  The taps are then trimmed to those
    that meet a nonzero row of H for some output.  Multiplying the views
    by a modulated copy of ``weights_rev`` convolves with the modulated
    kernel on the same grid, which is how the band-pass ladder reuses one
    plan for every frequency.
    """
    dt = H.dt
    qstep = dt if quad_step is None else quad_step
    col = H.lattice_steps(qstep, "quadrature step")
    s0, samples = kernel.time_samples(dt, quad_step=qstep)
    m = len(samples)
    if m < 2:
        raise GridError("kernel sampling too coarse for its support")
    i_s0 = H.lattice_steps(s0, "kernel start")
    s = s0 + qstep * np.arange(m)
    w = trapezoid_weights(m, qstep)

    row = col if out_step is None else H.lattice_steps(out_step, "output step")

    width = max(abs(s[0]), abs(s[-1]))
    edge = max(abs(H.t0), abs(H.t_end))
    env = max(H.envelope_constant() * (1.0 + (edge + width) ** 2)
              ** H.growth_exponent, 1e-300)
    allowance = budget * max(H.sup_norm(), 1e-300)

    # an output at t omits kernel mass at |s| >= t_end - t (right edge) or
    # |s| >= t - t0 (left edge, full-line data); admit while the omission,
    # weighted by the growth envelope, stays within the allowance
    x_star = _tail_crossing(kernel.tail_mass, allowance / env, width)
    t_hi = H.t_end - x_star
    t_lo = H.t0 if H.origin_domain is Domain.HALF_LINE else H.t0 + x_star
    if out_range is not None:
        t_lo, t_hi = max(t_lo, out_range[0]), min(t_hi, out_range[1])

    i_lo = int(np.ceil((t_lo - H.t0) / dt - _LATTICE_RTOL))
    i_hi = int(np.floor((t_hi - H.t0) / dt + _LATTICE_RTOL))
    count = (i_hi - i_lo) // row + 1 if i_hi >= i_lo else 0
    if count < 1:
        raise TruncationError("no output points satisfy the truncation budget")
    i_hi = i_lo + (count - 1) * row

    # reversed tap c of output k reads row base + k*row + c*col of H (rows
    # outside the record are zero padding); keep the taps c_lo..c_hi whose
    # rows meet the nonzero rows nz[0]..nz[-1] for some output
    base = i_lo - i_s0 - (m - 1) * col
    span = (count - 1) * row
    nz = np.flatnonzero(np.any(H.values != 0, axis=1))
    if len(nz):
        c_lo = max(0, -((base + span - int(nz[0])) // col))
        c_hi = min(m - 1, (int(nz[-1]) - base) // col)
    else:
        c_lo, c_hi = 0, -1
    taps = max(0, c_hi - c_lo + 1)
    r_lo = base + c_lo * col
    r_hi = r_lo + span + max(0, taps - 1) * col
    pad_l, pad_r = max(0, -r_lo), max(0, r_hi - (H.n - 1))
    rows = H.values[max(0, r_lo):min(H.n, r_hi + 1)]
    views = []
    for c in range(H.dim):
        base_c = np.zeros(pad_l + len(rows) + pad_r, complex)
        base_c[pad_l:pad_l + len(rows)] = rows[:, c]
        views.append(np.lib.stride_tricks.as_strided(
            base_c, shape=(count, taps),
            strides=(row * base_c.strides[0], col * base_c.strides[0]),
            writeable=False))

    omit = kernel.tail_mass(max(0.0, H.t_end - (H.t0 + i_hi * dt)))
    if H.origin_domain is not Domain.HALF_LINE:
        omit += kernel.tail_mass(max(0.0, i_lo * dt))
    keep = slice(m - 1 - c_hi, m - c_lo)
    return ConvPlan(H.t0 + i_lo * dt, row * dt, views, s[keep][::-1],
                    (samples * w)[keep][::-1], float(min(omit * env, allowance)))


def plan_product(plan: ConvPlan) -> np.ndarray:
    """``views[c] @ weights_rev`` for every channel c, as a (count,
    channels) array: the trapezoid sums of ``convolve``.

    The rows of a strided view overlap, so the product runs over
    contiguous copies of row blocks bounded by ``WORK_BYTES``.  The
    reversed weights are a strided column, which numpy sums in tap
    order, exactly as direct trapezoid summation, row by row.
    """
    count, taps = plan.views[0].shape
    K = plan.weights_rev[:, None]
    out = np.zeros((len(plan.views), count, 1), complex)
    if taps == 0:                   # no tap meets a nonzero sample
        return out[:, :, 0].T
    for c, view in enumerate(plan.views):
        for r in row_slices(count, out.itemsize * taps):
            out[c, r] += view[r].copy() @ K
    return out[:, :, 0].T


class FactoredLattice:
    """exp(-z k dt) on the lattice 0 <= k < n, factored at k = b m + c,
    m = ceil(sqrt(n)) unless given, 0 <= b < n_b = ceil(n / m): the outer
    table exp(-z b m dt) times the inner exp(-z c dt).  Each entry is one
    direct exponential, accurate to a few ulp, and no n_z x n table is
    ever formed."""

    def __init__(self, n: int, dt: float, m: int | None = None):
        self.n = n
        self.m = math.isqrt(n - 1) + 1 if m is None else m      # n >= 1
        self.n_b = -(-n // self.m)
        self._offsets = dt * np.concatenate((np.arange(self.m),
                                             self.m * np.arange(self.n_b)))

    def exp(self, z) -> np.ndarray:
        """The inner table, then the outer, from one exponential: (m +
        n_b,) at one z, (n_z, m + n_b) at a column of z (n_z, 1)."""
        return np.exp(-z * self._offsets)

    def blocks(self, rows: np.ndarray) -> np.ndarray:
        """The (n, d) rows, zero-padded to n_b m and laid out as (m, n_b
        d): entry [c, b d + j] is channel j of row b m + c."""
        Y = np.zeros((self.n_b * self.m, rows.shape[1]), complex)
        Y[:self.n] = rows
        # d = 1 stays a strided view: the rounding of the products follows it
        Y = Y.reshape(self.n_b, self.m, -1).transpose(1, 0, 2)
        return Y.reshape(self.m, -1)

    def contract(self, E: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """sum_k exp(-z k dt) y_k, (d,) at one z or (n_z, d) at a batch:
        sum_b outer[b] (inner @ Y)[b], with ``Y`` from ``blocks`` and ``E``
        from the ``exp`` of a lattice with this m and at least n_b blocks."""
        m, n_b = self.m, self.n_b
        if E.ndim == 1:
            return E[m:m + n_b] @ (E[:m] @ Y).reshape(n_b, -1)
        P = (E[:, :m] @ Y).reshape(len(E), n_b, -1)
        return np.einsum("jb,jbd->jd", E[:, m:m + n_b], P)

    def dual(self, weights, z) -> np.ndarray:
        """sum_l weights_l exp(-z_l k dt) for 0 <= k < n: one product
        (n_b x n_z) @ (n_z x m) of the tables, read row-major."""
        E = self.exp(z[:, None])
        return ((weights[:, None] * E[:, self.m:]).T
                @ E[:, :self.m]).reshape(-1)[:self.n]


@functools.cache
def _next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n, n >= 1: a length whose complex
    FFT splits into radices pocketfft handles directly (the value of
    ``scipy.fft.next_fast_len`` for complex input).  Cached: each Bohr
    sum asks for one, and a scan's records share a few lengths."""
    best = 1 << (n - 1).bit_length()       # the least power of two >= n
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # the least p3 * 2^j >= n
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def modulated_product(plan: ConvPlan, omegas) -> np.ndarray:
    """Convolutions with the planned kernel modulated to each frequency,
    k(s) exp(i omega s), as a (count, len(omegas), channels) array.

    One FFT correlation.  With g = gcd(row, col) of the view strides,
    R = row/g and D = col/g, let x be the padded record on the lattice of
    spacing g dt.  Output k is sum_c x[kR + cD] b_c, where
    b_c = a_c exp(i omega s_c) are the modulated weights (a =
    ``weights_rev``; s_c = s_rev[0] - c D q with q = step/R, from the
    tables of a ``FactoredLattice``).  The record slice the outputs
    read, of length L = (count-1)R + (taps-1)D + 1, is transformed once
    per channel at length N = R M with M >= L/R, so no lag wraps.  Per
    frequency, b spread to stride D is transformed once; per channel,
    the product of the two spectra is folded to length M (the sum of its
    R blocks keeps just the lags kR) and inverted at length M.

    Frequencies are taken in groups whose buffers, N-wide transforms and
    taps-wide phases, fit ``WORK_BYTES`` together.  Every step acts on
    each frequency alone, so a column's value does not depend on which
    others share the call.
    """
    omegas = np.asarray(omegas, float)
    view = plan.views[0]
    count, taps = view.shape
    out = np.zeros((count, len(omegas), len(plan.views)), complex)
    if taps == 0 or len(omegas) == 0:
        return out
    item = view.itemsize
    row, col = view.strides[0] // item, view.strides[1] // item
    g = math.gcd(row, col)
    R, D = row // g, col // g
    span = (taps - 1) * D + 1
    n_x = (count - 1) * R + span
    M = _next_fast_len(-(-n_x // R))
    N = R * M
    X = np.zeros((len(plan.views), N), complex)     # scaled 1/N
    for c, v in enumerate(plan.views):
        X[c, :n_x] = np.lib.stride_tricks.as_strided(
            v, shape=(n_x,), strides=(g * item,))
    np.fft.fft(X, axis=1, out=X)
    X /= N

    group = max(1, WORK_BYTES // (item * (N + taps)))
    lattice = FactoredLattice(taps, plan.step * D / R)
    for j in range(0, len(omegas), group):
        w = omegas[j:j + group]
        inner, outer = np.hsplit(lattice.exp(1j * w[:, None]), [lattice.m])
        outer *= np.exp(1j * w * plan.s_rev[0])[:, None]
        phase = (outer[:, :, None] * inner[:, None, :]).reshape(len(w), -1)
        kern = np.zeros((len(w), N), complex)
        np.multiply(phase[:, :taps], plan.weights_rev, out=kern[:, :span:D])
        del phase
        # sum_c b_c exp(+2 pi i cD f / N): the correlating spectrum of b
        np.fft.ifft(kern, axis=1, norm="forward", out=kern)
        kern = kern.reshape(len(w), R, M)
        for c, Xc in enumerate(X.reshape(-1, R, M)):
            # fold while multiplying: the sum of the R blocks of M
            folded = kern[:, 0] * Xc[0]
            for r in range(1, R):
                folded += kern[:, r] * Xc[r]
            np.fft.ifft(folded, axis=1, norm="forward", out=folded)
            out[:, j:j + group, c] = folded[:, :count].T
    return out


def convolve(H: ExtendedSignal, kernel, out_step: float | None = None,
             out_range: tuple | None = None,
             budget: float = 1e-12) -> ExtendedSignal:
    """Trapezoid quadrature of (H * k)(t) = integral H(t - s) k(s) ds.

    The output grid and its truncation bound come from
    ``plan_convolution``; the worst admitted omission is recorded on the
    result as ``trunc_bound``.

    ``out_step`` decimates the output grid; the s-quadrature runs on the
    record lattice.
    """
    plan = plan_convolution(H, kernel, out_step, out_range, budget)
    out = plan_product(plan)
    return ExtendedSignal(Domain.FULL_LINE, plan.t0, plan.step, out,
                          H.growth_exponent, trusted=True,
                          origin_domain=H.origin_domain,
                          trunc_bound=plan.trunc + H.trunc_bound * kernel.mass)
