"""Sampled signals on the half line or full line, and their elementary
operations: zero extension, translation, modulation, reflection, finite
differences, convolution against test kernels, sliding-average
mollification and the indefinite integral.

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
once with ``modulated_product``, an overlap-save FFT correlation of the
same trapezoid sums.

All types are immutable and all operations are pure functions, so signals
may be shared freely across threads.
"""

from __future__ import annotations

import enum
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
    envelope happens to rise at the end fits an order near k.
    """
    if k < 0 or k != int(k):
        raise GrowthError(f"growth_exponent must be a nonnegative integer, got {k}")
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
            _check_growth(self.times, self.norms, self.growth_exponent)

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
        return np.linalg.norm(self.values, axis=1)

    def sup_norm(self) -> float:
        return float(self.norms.max())

    def lattice_steps(self, span: float, what: str = "value") -> int:
        """Convert a time span to an integer number of dt steps or raise."""
        steps = span / self.dt
        k = round(steps)
        if abs(steps - k) > _LATTICE_RTOL * max(1.0, abs(steps)):
            raise GridError(f"{what} {span!r} is not a multiple of dt={self.dt}")
        return int(k)

    def index_of(self, t: float) -> int:
        return self.lattice_steps(t - self.t0, f"time {t}")

    def restrict(self, t_lo: float, t_hi: float) -> "SampledSignal":
        i = max(0, int(np.ceil((t_lo - self.t0) / self.dt - _LATTICE_RTOL)))
        j = min(self.n - 1, int(np.floor((t_hi - self.t0) / self.dt + _LATTICE_RTOL)))
        if j < i:
            raise HorizonError("empty restriction")
        new_t0 = self.t0 + i * self.dt
        dom = self.domain
        if dom is Domain.HALF_LINE and abs(new_t0) > _LATTICE_RTOL * self.dt:
            dom = Domain.FULL_LINE
        return SampledSignal(dom, new_t0 if dom is Domain.FULL_LINE else 0.0,
                             self.dt, self.values[i:j + 1], self.growth_exponent,
                             trusted=True)

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


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite-trapezoid weights of n samples at spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def _cumulative(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral of the (n, d) rows ``values`` at
    spacing dt, from the first row."""
    steps = 0.5 * dt * (values[1:] + values[:-1])
    return np.vstack([np.zeros((1, values.shape[1]), complex),
                      np.cumsum(steps, axis=0)])


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
    padded = np.vstack([np.zeros((pad_l, H.dim), complex),
                        H.values[max(0, r_lo):min(H.n, r_hi + 1)],
                        np.zeros((pad_r, H.dim), complex)])
    views = []
    for c in range(H.dim):
        base_c = np.ascontiguousarray(padded[:, c])
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


#: byte bound on the buffers of ``plan_product`` (a contiguous copy of a
#: row block) and of ``modulated_product`` (per group of frequencies)
BLOCK_BYTES = 16 * 2 ** 20


def plan_product(plan: ConvPlan) -> np.ndarray:
    """``views[c] @ weights_rev`` for every channel c, as a (count,
    channels) array: the trapezoid sums of ``convolve``.

    The rows of a strided view overlap, so the product runs over
    contiguous copies of row blocks bounded by ``BLOCK_BYTES``.  The
    reversed weights are a strided column, which numpy sums in tap
    order, exactly as direct trapezoid summation.  Taps are summed in
    blocks of ``BLOCK_BYTES // 256`` (65 536 by default) and the block
    sums added in order; the bytes of the verify report depend on this
    order.
    """
    count, taps = plan.views[0].shape
    K = plan.weights_rev[:, None]
    out = np.zeros((len(plan.views), count, 1), complex)
    tap_block = max(1, BLOCK_BYTES // 256)
    for a in range(0, taps, tap_block):
        Ka = K[a:a + tap_block]
        rows = max(1, BLOCK_BYTES // (out.itemsize * len(Ka)))
        for c, view in enumerate(plan.views):
            for r in range(0, count, rows):
                block = view[r:r + rows, a:a + tap_block].copy()
                out[c, r:r + rows] += block @ Ka
    return out[:, :, 0].T


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


def _next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n, n >= 1: a length whose complex
    FFT splits into radices pocketfft handles directly (the value of
    ``scipy.fft.next_fast_len`` for complex input)."""
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

    An overlap-save FFT correlation.  With g = gcd(row, col) of the view
    strides, R = row/g and D = col/g, let x be the padded record on the
    lattice of spacing g dt.  Output k is sum_c x[kR + cD] b_c, where
    b_c = a_c exp(i omega s_c) are the modulated weights (a =
    ``weights_rev``; s_c = s_rev[0] - c D q with q = step/R, from the
    factored tables of ``lattice_exp_tables``).  The outputs are cut
    into segments of K, each reading a record slice of length
    L = (K-1)R + (taps-1)D + 1; K is the whole count unless that slice
    would outgrow ``BLOCK_BYTES``.  Every slice is transformed once per
    channel at length N = R M with M >= L/R, so no lag wraps.  Per
    frequency, b spread to stride D is transformed once; per segment and
    channel, the product of the two spectra is folded to length M (the
    sum of its R blocks keeps just the lags kR) and inverted at length M.

    Frequencies are taken in groups whose buffers, N-wide transforms and
    taps-wide phases, fit ``BLOCK_BYTES`` together.  Every step acts on
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
    # a slice of at least twice the kernel span keeps most lags useful
    cap = max(BLOCK_BYTES // item, 2 * span)
    K = count if (count - 1) * R + span <= cap else (cap - span) // R + 1
    M = _next_fast_len(-(-((K - 1) * R + span) // R))
    N = R * M
    starts = range(0, count, K)
    records = [np.lib.stride_tricks.as_strided(
        v, shape=((count - 1) * R + span,), strides=(g * item,))
        for v in plan.views]
    seg_spectra = []               # per segment: (channels, N), scaled 1/N
    for k0 in starts:
        n_x = (min(K, count - k0) - 1) * R + span
        seg = np.zeros((len(records), N), complex)
        for c, x in enumerate(records):
            seg[c, :n_x] = x[k0 * R:k0 * R + n_x]
        np.fft.fft(seg, axis=1, out=seg)
        seg /= N
        seg_spectra.append(seg)

    group = max(1, BLOCK_BYTES // (item * (N + taps)))
    for j in range(0, len(omegas), group):
        w = omegas[j:j + group]
        outer, inner = lattice_exp_tables(1j * w, taps, plan.step * D / R)
        outer *= np.exp(1j * w * plan.s_rev[0])[:, None]
        phase = (outer[:, :, None] * inner[:, None, :]).reshape(len(w), -1)
        kern = np.zeros((len(w), N), complex)
        np.multiply(phase[:, :taps], plan.weights_rev, out=kern[:, :span:D])
        del phase
        # sum_c b_c exp(+2 pi i cD f / N): the correlating spectrum of b
        np.fft.ifft(kern, axis=1, norm="forward", out=kern)
        kern = kern.reshape(len(w), R, M)
        for k0, seg in zip(starts, seg_spectra):
            k1 = min(count, k0 + K)
            for c, X in enumerate(seg.reshape(-1, R, M)):
                # fold while multiplying: the sum of the R blocks of M
                folded = kern[:, 0] * X[0]
                for r in range(1, R):
                    folded += kern[:, r] * X[r]
                np.fft.ifft(folded, axis=1, norm="forward", out=folded)
                out[k0:k1, j:j + group, c] = folded[:, :k1 - k0].T
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
