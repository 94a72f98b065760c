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
truncation bound) and multiplied by ``plan_product``, which copies row
blocks of the overlapping views into contiguous memory for BLAS.
``convolve`` multiplies by the kernel's weights; the band-pass ladder of
``spectra.ReducedScanner`` multiplies one plan by the modulated weights
of many frequencies at once.

All types are immutable and all operations are pure functions, so signals
may be shared freely across threads.
"""

from __future__ import annotations

import enum
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


@dataclass(frozen=True)
class Mean:
    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value",
                           np.atleast_1d(np.asarray(self.value, complex)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


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


def _cumulative(F: SampledSignal) -> np.ndarray:
    steps = 0.5 * F.dt * (F.values[1:] + F.values[:-1])
    return np.vstack([np.zeros((1, F.dim), complex), np.cumsum(steps, axis=0)])


def indefinite_integral(F: SampledSignal) -> SampledSignal:
    """PF(t) = integral of F from 0 to t, by cumulative trapezoid.

    t = 0 must lie on the record (always true on the half line).
    """
    if F.domain is Domain.FULL_LINE and (F.t0 > _LATTICE_RTOL or F.t_end < -_LATTICE_RTOL):
        raise DomainError("indefinite integral is anchored at 0, which is "
                          "outside the record")
    cum = _cumulative(F)
    i0 = F.index_of(0.0)
    cum = cum - cum[i0]
    k = F.growth_exponent + 1 if F.sup_norm() > 0 else 0
    return SampledSignal(F.domain, F.t0, F.dt, cum, k, trusted=True)


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
    cum = _cumulative(F)
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
    w = np.full(m, qstep)
    w[0] = w[-1] = qstep / 2

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


#: byte bound on each operand block of ``plan_product``: the row block
#: copied out of a view and the block of K it multiplies
BLOCK_BYTES = 16 * 2 ** 20
#: columns of K per BLAS call in ``plan_product``
COLUMN_BLOCK = 16


def plan_product(plan: ConvPlan, K: np.ndarray) -> np.ndarray:
    """``views[c] @ K`` for every channel c, as a (count, columns,
    channels) array.

    K holds one column of tap weights (in ``weights_rev`` order) per
    output column.  The rows of a strided view overlap, so BLAS cannot
    take the view itself: the product runs over contiguous copies of row
    blocks, each multiplied by blocks of K of ``COLUMN_BLOCK`` columns
    (counted from column 0), with both operand blocks bounded by
    ``BLOCK_BYTES``.  The blocking depends only on the plan, so a
    column's value depends only on the columns of its own block, not on
    how many blocks share the call.  K is used as given: a contiguous K
    (the ladder's modulated weights) goes to BLAS, while a strided one
    (``convolve``'s reversed ``weights_rev`` column) is summed by numpy
    in tap order, exactly as direct trapezoid summation.
    """
    count, taps = plan.views[0].shape
    K = np.asarray(K, complex)
    if K.ndim != 2 or K.shape[0] != taps:
        raise ValueError(f"K must have {taps} rows, got shape {K.shape}")
    n = K.shape[1]
    out = np.zeros((len(plan.views), count, n), complex)
    item = out.itemsize
    tap_block = max(1, BLOCK_BYTES // (item * COLUMN_BLOCK))
    for a in range(0, taps, tap_block):
        Ka = K[a:a + tap_block]
        rows = max(1, BLOCK_BYTES // (item * len(Ka)))
        for c, view in enumerate(plan.views):
            for r in range(0, count, rows):
                block = view[r:r + rows, a:a + tap_block].copy()
                for j in range(0, n, COLUMN_BLOCK):
                    out[c, r:r + rows, j:j + COLUMN_BLOCK] += \
                        block @ Ka[:, j:j + COLUMN_BLOCK]
    return out.transpose(1, 2, 0)


def modulated_product(plan: ConvPlan, omegas) -> np.ndarray:
    """Convolutions with the planned kernel modulated to each frequency,
    k(s) exp(i omega s), as a (count, len(omegas), channels) array.

    The modulated weights are built about ``BLOCK_BYTES`` at a time, in
    whole blocks of ``COLUMN_BLOCK`` columns, and each batch goes through
    ``plan_product``.
    """
    omegas = np.asarray(omegas, float)
    column = np.dtype(complex).itemsize * max(1, len(plan.s_rev))
    group = COLUMN_BLOCK * max(1, BLOCK_BYTES // (COLUMN_BLOCK * column))
    parts = []
    for g in range(0, len(omegas), group):
        K = np.outer(plan.s_rev, 1j * omegas[g:g + group])
        np.exp(K, out=K)
        K *= plan.weights_rev[:, None]
        parts.append(plan_product(plan, K))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def convolve(H: ExtendedSignal, kernel, out_step: float | None = None,
             out_range: tuple | None = None, budget: float = 1e-12,
             quad_step: float | None = None) -> ExtendedSignal:
    """Trapezoid quadrature of (H * k)(t) = integral H(t - s) k(s) ds.

    The output grid and its truncation bound come from
    ``plan_convolution``; the worst admitted omission is recorded on the
    result as ``trunc_bound``.

    ``out_step`` decimates the output grid; ``quad_step`` coarsens the
    s-quadrature lattice, which is only safe for kernels whose own decay
    suppresses the aliased high-frequency content of H.
    """
    plan = plan_convolution(H, kernel, out_step, out_range, budget, quad_step)
    out = plan_product(plan, plan.weights_rev[:, None])[:, 0, :]
    return ExtendedSignal(Domain.FULL_LINE, plan.t0, plan.step, out,
                          H.growth_exponent, trusted=True,
                          origin_domain=H.origin_domain,
                          trunc_bound=plan.trunc + H.trunc_bound * kernel.mass)
