"""Sampled signals on the half line or full line, and their elementary
operations: zero extension, translation, modulation, convolution against
test kernels and sliding-average mollification.

A signal is a finite, uniformly sampled record of a conceptually infinite
object.  Every operation that would need values outside the record either
uses the declared zero extension (half-line signals vanish for t < 0) or
accounts for the omission through an explicit truncation bound; nothing is
periodized or silently zero-filled beyond the stated budget.

Every convolution's output window and truncation bound come from one
admission, ``_admit``.  A kernel that declares a band (``kernels.Band``)
is read through one record DFT (``plan_band``): by Poisson summation,
the dt-lattice trapezoid sums of the kernel, modulated to any
frequency, are a short sum over the bins where its closed-form
transform is not zero (``band_product``).  ``convolve`` takes that route
at frequency 0, and the band-pass ladder of ``spectra.ReducedScanner``
at many frequencies at once.  ``convolve`` samples any other kernel,
compact in time, on the record's lattice and sums its taps in tap order
over one strided window view of the record (``_tap_sums``).

All types are immutable and all operations are pure functions, so signals
may be shared freely across threads.
"""

from __future__ import annotations

import enum
import functools
import itertools
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

def extend_by_zero(F: SampledSignal) -> ExtendedSignal:
    """Zero extension of F to the full line.

    For a half-line signal the result agrees with F on [0, t_end] and is 0
    for min(50, t_end / 4) seconds before; a full-line signal is returned
    as is (its values to the left are unknown, not zero, so no padding).
    """
    if F.domain is Domain.FULL_LINE:
        return ExtendedSignal(Domain.FULL_LINE, F.t0, F.dt, F.values,
                              F.growth_exponent, trusted=True,
                              origin_domain=Domain.FULL_LINE)
    pad = round(min(50.0, 0.25 * max(F.t_end, F.dt)) / F.dt)
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


def _admit(H: ExtendedSignal, kernel, width: float, out_step: float,
           out_range, budget: float) -> tuple:
    """The output window of a convolution of H with a kernel of half-width
    ``width``, shared by ``_tap_sums`` and ``plan_band``: outputs
    at rows ``i_lo + k*row`` of H, k < ``count``, as ``(i_lo, row, count,
    env, trunc)``, with ``env`` the growth envelope over the record and
    the kernel's reach and ``trunc`` the worst admitted omission.

    Output points are restricted to where the quadrature window either
    stays inside the sampled range of H or runs only over regions that are
    known (the zero left tail of a half-line origin) or negligible (kernel
    mass beyond the record, weighted by the declared growth envelope,
    below ``budget`` relative to sup||H||).  A window that would exceed
    the budget is not planned at all.
    """
    dt = H.dt
    row = H.lattice_steps(out_step, "output step")
    edge = max(abs(H.t0), abs(H.t_end))
    try:
        grow = (1.0 + (edge + width) ** 2) ** H.growth_exponent
    except OverflowError:           # beyond the float range: infinite
        grow = math.inf
    env = max(H.envelope_constant() * grow, 1e-300)
    if not math.isfinite(env):      # nan when C = 0: no bound holds either
        raise TruncationError(
            f"growth envelope C (1+t^2)^{H.growth_exponent:g} is not finite "
            f"at the kernel's reach |t| = {edge + width:g}")
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
    omit = kernel.tail_mass(max(0.0, H.t_end - (H.t0 + i_hi * dt)))
    if H.origin_domain is not Domain.HALF_LINE:
        omit += kernel.tail_mass(max(0.0, i_lo * dt))
    return i_lo, row, count, env, float(min(omit * env, allowance))


def _data_rows(H: ExtendedSignal):
    """First and last row of H that is not zero, or None."""
    nz = np.flatnonzero(np.any(H.values != 0, axis=1))
    return (int(nz[0]), int(nz[-1])) if len(nz) else None


def _tap_sums(H: ExtendedSignal, kernel, out_step: float | None,
              budget: float) -> tuple:
    """``convolve`` of a kernel compact in time, as ``(t0, step, values,
    trunc)``: the output window of ``_admit``, and at each output the
    trapezoid-weighted taps on the record's lattice summed in tap order.

    Reversed tap j of output k reads row ``lo + k*row + j`` of H, laid
    out in X with zeros off the record.  The reversed weights are a
    negative-stride vector, which numpy's matmul sums without BLAS, in
    tap order, row by row; a tap on a zero row adds nothing to a sum.
    """
    dt = H.dt
    s0, samples = kernel.time_samples(dt)
    m = len(samples)
    first, row, count, _, trunc = _admit(
        H, kernel, max(abs(s0), abs(s0 + dt * (m - 1))),
        dt if out_step is None else out_step, None, budget)
    lo = first - H.lattice_steps(s0, "kernel start") - (m - 1)
    X = np.zeros(((count - 1) * row + m, H.dim), complex)
    r0, r1 = max(lo, 0), min(lo + len(X), H.n)
    if r0 < r1:
        X[r0 - lo:r1 - lo] = H.values[r0:r1]
    w_rev = (samples * trapezoid_weights(m, dt))[::-1]
    out = np.stack([np.lib.stride_tricks.sliding_window_view(X[:, c], m)[::row]
                    @ w_rev for c in range(H.dim)], axis=1)
    return H.t0 + first * dt, row * dt, out, trunc


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
    ``scipy.fft.next_fast_len`` for complex input).  Found by stepping up
    from n until the factors 2, 3, 5, 7 and 11 divide a length out.
    Cached: each Bohr sum asks for one, and a scan's records share a few
    lengths."""
    for m in itertools.count(n):
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m


class BandPlan(NamedTuple):
    """Output grid and record spectrum of a convolution with a band-limited
    kernel.

    ``spectrum[c, f]`` is the DFT, divided by N, of channel c of H's
    rows on the dt lattice, laid out circularly with the first output's
    row at index 0; bin f has frequency f * ``dnu``, dnu = 2 pi / (N dt),
    and N is ``row`` times a fast FFT length.  ``ft`` and ``band`` are
    the kernel's transform function and ``Band``, the two parts of it that
    ``band_product`` reads (the plan keeps no tail table alive), and
    ``trunc`` bounds what its sums omit.
    """

    t0: float
    step: float
    count: int
    row: int
    dnu: float
    spectrum: np.ndarray
    ft: object
    band: object
    trunc: float


def plan_band(H: ExtendedSignal, kernel, out_step: float, out_range,
              budget: float) -> BandPlan:
    """The output window of ``_admit`` for the band-limited ``kernel``
    (its ``band`` declared), and the one record DFT that the sums of
    ``band_product`` read at every frequency.

    Output p reads record row n at lag p - n, and the circular DFT adds
    the lags p - n +- N.  N exceeds the largest |p - n| by the kernel's
    reach (its cut support, in rows), so every added lag falls where the
    kernel's mass is ``tail_mass`` of the reach: with the growth
    envelope, the wrap term of ``trunc``.  The band's ``omitted`` mass
    at this bin spacing, with the envelope, is the other.
    """
    dt = H.dt
    reach = math.ceil(max(-kernel.s_lo, kernel.s_hi) / dt - _LATTICE_RTOL)
    first, row, count, env, trunc = _admit(H, kernel, reach * dt, out_step,
                                           out_range, budget)
    last = first + (count - 1) * row
    lo, hi = _data_rows(H) or (first, first)      # a zero record: one zero row
    n_min = max(hi - lo, last - first, max(last - lo, hi - first) + reach) + 1
    N = row * _next_fast_len(-(-n_min // row))
    X = np.zeros((H.dim, N), complex)
    X[:, (np.arange(lo, hi + 1) - first) % N] = H.values[lo:hi + 1].T
    np.fft.fft(X, axis=1, out=X)
    X /= N
    dnu = 2.0 * np.pi / (N * dt)
    wrap = kernel.tail_mass(reach * dt)
    return BandPlan(H.t0 + first * dt, row * dt, count, row, dnu, X,
                    kernel.ft_fn, kernel.band,
                    trunc + (wrap + kernel.band.omitted(dnu)) * env)


def band_product(plan: BandPlan, omegas) -> np.ndarray:
    """Convolutions of H with the plan's kernel modulated to each
    frequency, k(s) exp(i omega s), as a (count, len(omegas), channels)
    array: the dt-lattice trapezoid sums with the uncut kernel.

    By Poisson summation the sum at output row p is sum_f X_f K(nu_f -
    omega) exp(2 pi i f p / N), K the kernel's transform, which is
    exactly 0.0 off omega +- its band's half-width: only those bins are
    read.  Output k sits at p = k * row, and N = row * M, so the phase
    depends on f mod M alone: the bins are added into M slots (one each,
    as long as the band is narrower than M bins) and one inverse FFT of
    length M gives every output.

    Frequencies are taken in groups whose buffers fit ``WORK_BYTES``.
    Every step acts on each frequency alone, so a column's value does not
    depend on which others share the call.
    """
    omegas = np.asarray(omegas, float)
    dim, N = plan.spectrum.shape
    M = N // plan.row
    band = plan.band.half_width
    nb = int(2.0 * band / plan.dnu) + 2
    out = np.zeros((plan.count, len(omegas), dim), complex)
    group = max(1, WORK_BYTES // (16 * (M + 3 * nb)))
    for j in range(0, len(omegas), group):
        w = omegas[j:j + group, None]
        f = np.ceil((w - band) / plan.dnu).astype(np.int64) + np.arange(nb)
        K = plan.ft(f * plan.dnu - w)
        at = (np.arange(len(w))[:, None], f % M)
        for c in range(dim):
            Z = np.zeros((len(w), M), complex)
            np.add.at(Z, at, plan.spectrum[c, f % N] * K)
            np.fft.ifft(Z, axis=1, norm="forward", out=Z)
            out[:, j:j + group, c] = Z[:, :plan.count].T
    return out


def convolve(H: ExtendedSignal, kernel, out_step: float | None = None,
             budget: float = 1e-12) -> ExtendedSignal:
    """Trapezoid quadrature of (H * k)(t) = integral H(t - s) k(s) ds on
    the record lattice, at outputs ``out_step`` apart (the lattice step
    when None).

    A kernel with a declared band is summed from the record's DFT
    (``plan_band`` and ``band_product`` at frequency 0); any other, compact
    in time, by the direct tap-order sum (``_tap_sums``), so that a
    box-smoothed zero extension reads exactly 0 left of -h.  The output
    grid and its truncation bound come from ``_admit``; the worst admitted
    omission is recorded on the result as ``trunc_bound``.
    """
    if kernel.band is not None:
        plan = plan_band(H, kernel, H.dt if out_step is None else out_step,
                         None, budget)
        t0, step, out, trunc = (plan.t0, plan.step,
                                band_product(plan, [0.0])[:, 0], plan.trunc)
    else:
        t0, step, out, trunc = _tap_sums(H, kernel, out_step, budget)
    return ExtendedSignal(Domain.FULL_LINE, t0, step, out,
                          H.growth_exponent, trusted=True,
                          origin_domain=H.origin_domain,
                          trunc_bound=trunc + H.trunc_bound * kernel.mass)
