import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from redspectra.errors import DomainError, GridError, GrowthError
from redspectra.kernels import (annihilator_kernel, bandpass_kernel,
                                bump_kernel, d_bump)
from redspectra import signals
from redspectra.signals import (Domain, FactoredLattice, SampledSignal,
                                band_product, convolve, extend_by_zero,
                                modulate, mollify, plan_band, translate)

from conftest import make_full, make_half
from oracles import (box_kernel, difference, indefinite_integral,
                     lattice_trapezoid, reflect, reflected, restrict,
                     tap_order_sum)

DT = 0.01


def test_extension_is_zero_left_and_identity_right():
    F = make_half(lambda t: np.ones_like(t), t_end=50.0)
    E = extend_by_zero(F)
    assert abs(E.values[E.index_of(-1.0)]).max() == 0.0
    assert E.values[E.index_of(1.0), 0] == 1.0


def test_extension_of_full_line_is_identity():
    F = make_full(lambda t: np.sin(t), t_end=50.0)
    E = extend_by_zero(F)
    assert E.t0 == F.t0 and E.n == F.n


def test_box_convolution_of_extension_vanishes_left_of_minus_h():
    # F bounded on the half line: the smoothed extension is 0 for t <= -h
    F = make_half(lambda t: np.cos(3 * t), t_end=60.0)
    C = convolve(extend_by_zero(F), box_kernel(0.5))
    mask = C.times <= -0.5 - 1e-12
    assert mask.any() and np.abs(C.values[mask]).max() == 0.0


def test_box_convolution_ramp_of_indicator():
    # F == 1 on the half line: ramp 0 below -h, (t+h)/h on (-h, 0), 1 above
    h = 0.5
    F = make_half(lambda t: np.ones_like(t), t_end=60.0)
    C = convolve(extend_by_zero(F), box_kernel(h))
    tt = C.times
    ramp = np.clip((tt + h) / h, 0.0, 1.0)
    # the integrand jumps at t = 0, so the trapezoid is first-order there
    assert np.abs(C.values[:, 0] - ramp).max() < 1.5 * DT / h


def test_translate_constant_and_modulate_exponent_addition():
    F = make_half(lambda t: np.full_like(t, 3.0 + 0j, dtype=complex), t_end=50.0)
    assert np.allclose(translate(F, 2.0).values, 3.0)
    G = make_half(lambda t: np.exp(1j * 0.5 * t), t_end=50.0)
    M = modulate(G, 1.5)
    t = M.times
    assert np.abs(M.values[:, 0] - np.exp(2j * t)).max() < 1e-12


def test_translate_off_lattice_rejected():
    F = make_half(lambda t: np.ones_like(t), t_end=10.0)
    with pytest.raises(GridError):
        translate(F, 0.005)
    with pytest.raises(DomainError):
        translate(F, -1.0)


def test_index_of_off_the_lattice_names_time_start_and_offset():
    # the record of a full-line corpus signal at dt = 0.3 misses t = 0
    F = SampledSignal(Domain.FULL_LINE, -200.0, 0.3, np.ones(1334), 0)
    with pytest.raises(GridError) as err:
        F.index_of(0.0)
    assert str(err.value) == ("time 0.0 is off the lattice of a record from "
                              "t0=-200.0: its offset 200.0 is not a multiple "
                              "of dt=0.3")


def test_reflect_needs_full_line():
    F = make_half(lambda t: np.ones_like(t), t_end=10.0)
    with pytest.raises(DomainError):
        reflect(F)
    G = make_full(lambda t: t.astype(complex), t_end=10.0, k=1)
    R = reflect(G)
    assert np.abs(R.values[R.index_of(3.0)] + 3.0).max() < 1e-12


def test_difference_sup_norm_closed_form():
    h = 0.25
    F = make_half(lambda t: np.exp(1j * t), t_end=60.0)
    D = difference(F, h)
    assert abs(D.norms.max() - abs(np.exp(1j * h) - 1.0)) < 1e-10


def test_mollify_constant_and_oscillation():
    F = make_half(lambda t: np.full_like(t, 2.0 + 1j, dtype=complex), t_end=50.0)
    assert np.abs(mollify(F, 1.0).values - (2.0 + 1j)).max() < 1e-12
    w, h = 1.3, 0.5
    G = make_half(lambda t: np.exp(1j * w * t), t_end=50.0)
    M = mollify(G, h)
    expect = np.exp(1j * w * M.times) * (np.exp(1j * w * h) - 1) / (1j * w * h)
    assert np.abs(M.values[:, 0] - expect).max() < 5e-5


def test_mollify_agrees_with_box_convolution():
    F = make_half(lambda t: np.exp(1j * t * t), t_end=80.0)
    M = mollify(F, 0.5)
    C = convolve(extend_by_zero(F), box_kernel(0.5)).restrict_to_origin()
    n = min(M.n, C.n)
    assert np.abs(M.values[:n] - C.values[:n]).max() < 1e-12


def test_indefinite_integral_trivia():
    Z = make_half(lambda t: np.zeros_like(t), t_end=20.0)
    assert indefinite_integral(Z).sup_norm() == 0.0
    O = make_half(lambda t: np.ones_like(t), t_end=20.0)
    P = indefinite_integral(O)
    assert np.abs(P.values[:, 0] - P.times).max() < 1e-10


def test_fresnel_limit_of_chirp_integral():
    # oracle: adaptive quadrature after u = s^2, with oscillatory weights
    # on the tail: int_T^inf exp(i s^2) ds = int_{T^2}^inf exp(iu)/(2 sqrt u) du
    T, U = 10.0, 1e8
    head_re = quad(lambda s: np.cos(s * s), 0, T, limit=4000)[0]
    head_im = quad(lambda s: np.sin(s * s), 0, T, limit=4000)[0]
    tail_re = quad(lambda u: 0.5 / np.sqrt(u), T * T, U,
                   weight="cos", wvar=1.0, limit=400)[0]
    tail_im = quad(lambda u: 0.5 / np.sqrt(u), T * T, U,
                   weight="sin", wvar=1.0, limit=400)[0]
    beyond = 1j * np.exp(1j * U) / (2 * np.sqrt(U))  # integration by parts
    oracle = complex(head_re + tail_re, head_im + tail_im) + beyond
    c_inf = np.sqrt(np.pi / 8) * (1 + 1j)
    assert abs(oracle - c_inf) < 1e-7
    F = make_half(lambda t: np.exp(1j * t * t), t_end=200.0)
    P = indefinite_integral(F)
    # P oscillates around the limit with amplitude ~ 1/(2t)
    tail = P.values[P.index_of(150.0):, 0]
    assert np.abs(tail - c_inf).max() < 6e-3


def test_commutation_of_convolutions():
    # (F*phi)*psi == (F*psi)*phi within the quadrature tolerance
    F = make_half(lambda t: np.exp(1j * t) / (1 + 0.1 * t), t_end=120.0)
    E = extend_by_zero(F)
    phi = bandpass_kernel(0.5, 1.0)
    psi = box_kernel(1.0)
    A = convolve(convolve(E, phi, budget=1e-6), psi, budget=1e-6)
    B = convolve(convolve(E, psi, budget=1e-6), phi, budget=1e-6)
    lo = max(A.t0, B.t0) + 1.0
    hi = min(A.t_end, B.t_end) - 1.0
    ra, rb = restrict(A, lo, hi), restrict(B, lo, hi)
    n = min(ra.n, rb.n)
    tol = 30.0 * DT ** 2 * max(phi.mass, 1.0) + 4e-6
    assert np.abs(ra.values[:n] - rb.values[:n]).max() < tol


def test_decay_at_minus_infinity():
    # half-line signal smoothed by the bump decays along t -> -inf
    F = make_half(lambda t: 1.0 / (1.0 + t), t_end=200.0)
    C = convolve(extend_by_zero(F), bump_kernel(), budget=1e-9)
    vals = [np.linalg.norm(C.values[C.index_of(tp)]) for tp in (-10.0, -20.0, -40.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3 * F.sup_norm()


def _psi_record(case):
    """(zero-extended record, output step) of the psi route tests."""
    if case == "half-tone":
        return extend_by_zero(make_half(lambda t: np.exp(1j * t))), 0.2
    if case == "full-two-channel":
        return extend_by_zero(make_full(lambda t: np.stack(
            [np.exp(0.5j * t), np.cos(1.5 * t) / (1 + 0.01 * t * t)], axis=1),
            t_end=150.0)), 0.2
    # every output row (M = N), at a tap step that keeps the sum short
    return extend_by_zero(make_half(lambda t: np.exp(-0.05 * t), t_end=150.0,
                                    dt=0.05)), None


@pytest.mark.parametrize("case", ["half-tone", "full-two-channel",
                                  "decay-every-row"])
def test_psi_convolution_from_the_record_dft_matches_the_direct_sum(case):
    # psi declares its band, so convolve reads the record's DFT; the
    # direct dt-lattice trapezoid sum of its taps still checks the result
    H, out_step = _psi_record(case)
    psi = bump_kernel()
    conv = convolve(H, psi, out_step=out_step, budget=1e-3)
    assert conv.dt == (H.dt if out_step is None else out_step)
    ref = lattice_trapezoid(H, psi, conv.times, [0.0])[:, 0]
    assert conv.values.shape == ref.shape == (conv.n, H.dim)
    assert np.abs(conv.values - ref).max() <= 1e-12 * np.abs(ref).max()


def _cut_record(domain, dim, dt=DT, scale=1.0):
    """``scale`` times the data of the product tests, sampled at dt: zero
    for |t| > 30, so the windows of the first and last outputs meet zero
    rows, off the record too."""
    def fn(t):
        vals = np.stack([np.exp(1j * t), np.cos(0.5 * t) / (1 + 0.01 * t * t)],
                        axis=1)[:, :dim]
        return scale * vals * (np.abs(t) <= 30.0)[:, None]
    return extend_by_zero((make_half if domain == "half" else make_full)(
        fn, t_end=100.0, dt=dt))


@pytest.mark.parametrize("kernel", ["box", "box-right", "d_bump",
                                    "annihilator", "plateau"])
def test_kernels_compact_in_time_keep_the_direct_sum(kernel):
    # no band declared: convolve returns the tap-order sums themselves, bit
    # for bit (signed zeros count), for every kernel compact in time and
    # the band-pass plateau with its band dropped (on the 0.04 lattice,
    # which keeps the oracle's tap loop short): one and two channels on
    # the half and full line, a record cut to |t| <= 30 and a zero one,
    # four output strides.  At stride 1 the boxes' 51 taps leave gaps
    # between windows, which numpy's matmul would hand to BLAS, in
    # another order, but for the reversed weights
    kern = {"box": box_kernel(0.5), "box-right": reflected(box_kernel(0.5)),
            "d_bump": d_bump(), "annihilator": annihilator_kernel(2.0),
            "plateau": replace(bandpass_kernel(0.0, 1.0))}[kernel]
    assert kern.band is None
    dt = 0.04 if kernel == "plateau" else DT
    for domain, dim, scale in itertools.product(("half", "full"), (1, 2),
                                                (1.0, 0.0)):
        H = _cut_record(domain, dim, dt, scale)
        for out_step in (None, 0.2, 0.04, 1.0):
            conv = convolve(H, kern, out_step=out_step, budget=1e-3)
            assert conv.dt == (H.dt if out_step is None else out_step)
            ref = tap_order_sum(H, kern, conv.times)
            assert np.array_equal(conv.values.view(np.int64),
                                  ref.view(np.int64)), \
                (domain, dim, scale, out_step)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
@example(seed=18536)
def test_convolution_linearity(seed):
    # seed 18536: a noise draw whose tail quantile is 11% above the inner
    # one; the growth validator must accept it
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, 40.0 + DT / 2, DT)
    a = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
    b = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
    al, be = complex(rng.standard_normal()), complex(rng.standard_normal())
    mk = lambda v: extend_by_zero(SampledSignal(Domain.HALF_LINE, 0.0, DT, v))
    k = box_kernel(0.5)
    lhs = convolve(mk(al * a + be * b), k).values
    rhs = al * convolve(mk(a), k).values + be * convolve(mk(b), k).values
    assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(rhs).max())


def _direct_kernel(kernel):
    """The kernels of the direct-sum tests, the band-pass plateau with its
    band dropped: the wide boxes on [-60, 0] and [0, 60] weigh their
    edge taps fully, so a window one row off shows."""
    return {"bandpass": replace(bandpass_kernel(0.0, 1.0)),
            "box-left": box_kernel(60.0),
            "box-right": reflected(box_kernel(60.0))}[kernel]


def _band_case(H, out_step, delta=1.0, out_range=(-0.4, np.inf)):
    """The band-pass ladder's plan of H, with its centred kernel."""
    kern = bandpass_kernel(0.0, delta)
    return kern, plan_band(H, kern, out_step, out_range, 1e-3)


def _check_band_product(H, out_step, out_range=(-0.4, np.inf)):
    # the ladder's sums are the dt-lattice trapezoid sums of the kernel,
    # whose cut (below 1e-14 of its peak) the bound absorbs
    kern, plan = _band_case(H, out_step, out_range=out_range)
    omegas = np.linspace(-2.0, 2.0, 21)
    got = band_product(plan, omegas)
    t_out = plan.t0 + plan.step * np.arange(plan.count)
    ref = lattice_trapezoid(H, kern, t_out, omegas)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _check_direct_sum(kernel, domain, dim, out_step):
    H, kern = _cut_record(domain, dim), _direct_kernel(kernel)
    conv = convolve(H, kern, out_step=out_step, budget=1e-3)
    ref = lattice_trapezoid(H, kern, conv.times, [0.0])[:, 0]
    assert conv.values.shape == ref.shape
    assert np.abs(conv.values - ref).max() <= 1e-12 * np.abs(ref).max()
    if kernel == "bandpass":
        _check_band_product(H, out_step)


@pytest.mark.parametrize("work_bytes", [None, 1 << 16])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("domain", ["half", "full"])
@pytest.mark.parametrize("kernel", ["bandpass", "box-left", "box-right"])
def test_trimmed_plan_product_matches_naive_sum(monkeypatch, kernel, domain,
                                                dim, work_bytes):
    # convolve's direct sums and the band ladder's, with a small work
    # budget as well (frequency groups of the ladder)
    if work_bytes:
        monkeypatch.setattr(signals, "WORK_BYTES", work_bytes)
    _check_direct_sum(kernel, domain, dim, 0.2)


@pytest.mark.parametrize("work_bytes", [None, 1 << 12])
@pytest.mark.parametrize("domain", ["half", "full"])
@pytest.mark.parametrize("kernel", ["bandpass", "box-left", "box-right"])
@pytest.mark.parametrize("out_step", [0.2, 0.04])
def test_plan_product_matches_naive_sum_at_each_output_step(
        monkeypatch, out_step, kernel, domain, work_bytes):
    # a coarse and a fine output stride over the same taps; the small
    # work budget takes one ladder frequency per group
    if work_bytes:
        monkeypatch.setattr(signals, "WORK_BYTES", work_bytes)
    _check_direct_sum(kernel, domain, 2, out_step)


# (record and tap step, output step): taps 0.04 apart under a 0.2 output
# stride, and a coarse and a fine stride over taps 0.01 apart
STEP_CASES = [(0.04, 0.2), (0.01, 0.2), (0.01, 0.04)]


@pytest.mark.parametrize("dt, out_step", STEP_CASES)
def test_overlap_save_segments_match_naive_sum(dt, out_step):
    # data on the whole record and outputs wherever the window fits: the
    # record's first and last samples meet nonzero taps, so a slice (of
    # convolve's window view, or of the ladder's DFT input) one sample
    # short shows
    F = make_full(lambda t: np.stack([np.exp(1j * t), np.cos(0.5 * t)],
                                     axis=1), t_end=100.0, dt=dt)
    H, kern = extend_by_zero(F), box_kernel(60.0)
    got = convolve(H, kern, out_step=out_step, budget=1e-3)
    ref = lattice_trapezoid(H, kern, got.times, [0.0])[:, 0]
    assert np.abs(got.values - ref).max() <= 1e-12 * np.abs(ref).max()
    _check_band_product(H, out_step, None)


@pytest.mark.parametrize("work_bytes", [None, 1 << 12])
@pytest.mark.parametrize("d_omega, out_step",
                         [(0.04, 0.2), (0.03, 0.2), (0.06, 0.04)])
def test_modulated_product_column_independent_of_its_batch(monkeypatch,
                                                           d_omega, out_step,
                                                           work_bytes):
    # a verdict must not depend on which frequencies share a call: each
    # column of the band ladder's modulated-kernel product equals, bit for
    # bit, the same frequency computed alone (also with one frequency per
    # group); frequency grids of three spacings put neighbouring bands on
    # overlapping bins and split the groups at different columns
    if work_bytes:
        monkeypatch.setattr(signals, "WORK_BYTES", work_bytes)
    _, plan = _band_case(_cut_record("full", 2), out_step)
    omegas = np.arange(-2.0, 2.0 + d_omega / 2, d_omega)
    full = band_product(plan, omegas)
    for j in range(len(omegas)):
        assert np.array_equal(full[:, j], band_product(plan, omegas[j:j + 1])[:, 0])
    assert np.array_equal(full[:, 5:9], band_product(plan, omegas[5:9]))


@pytest.mark.parametrize("dt, out_step", STEP_CASES)
def test_products_independent_of_the_work_budget(monkeypatch, dt, out_step):
    # the work budget bounds buffers, never a sum: frequency groups of any
    # size give the same bits
    _, band = _band_case(_cut_record("full", 2, dt), out_step)
    omegas = np.linspace(-2.0, 2.0, 21)
    mod = band_product(band, omegas)
    monkeypatch.setattr(signals, "WORK_BYTES", 1 << 10)
    assert np.array_equal(band_product(band, omegas), mod)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("domain", ["half", "full"])
@pytest.mark.parametrize("kernel, dt, out_step",
                         [("bandpass", 0.04, 0.2), ("box-left", 0.01, 0.2),
                          ("box-right", 0.01, 0.04)])
def test_channel_padding_matches_the_stacked_record(kernel, dt, out_step,
                                                    domain, dim):
    # the channels share one zero-padded layout of the record's rows;
    # each channel's sums are, bit for bit, those of a record holding
    # that channel alone
    def fn(t):
        vals = np.stack([np.exp(1j * t), np.cos(0.5 * t), t / 30.0],
                        axis=1)[:, :dim]
        return vals * (np.abs(t) <= 30.0)[:, None]
    F = (make_half if domain == "half" else make_full)(fn, t_end=100.0,
                                                       dt=dt)
    kern = _direct_kernel(kernel)
    conv = convolve(extend_by_zero(F), kern, out_step=out_step, budget=1e-3)
    assert conv.dim == dim
    for c in range(dim):
        alone = convolve(extend_by_zero(replace(F, values=F.values[:, c])),
                         kern, out_step=out_step, budget=1e-3)
        assert (alone.t0, alone.n) == (conv.t0, conv.n)
        assert np.array_equal(alone.values.view(np.int64),
                              conv.values[:, c:c + 1].copy().view(np.int64))


def test_products_of_a_plan_with_no_taps_are_zero():
    # a zero record meets no tap with data: both products are zeros over
    # the one output window that both routes admit
    F = make_half(lambda t: 0.0 * t, t_end=100.0)
    H = extend_by_zero(F)
    conv = convolve(H, _direct_kernel("bandpass"), out_step=0.2, budget=1e-3)
    count = conv.n
    assert count > 0
    assert np.array_equal(conv.values, np.zeros((count, 1)))
    _, band = _band_case(H, 0.2, out_range=None)
    assert band.count == count
    assert np.array_equal(band_product(band, [0.0, 1.0]),
                          np.zeros((count, 2, 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 10, 100])
def test_row_slices_cover_in_order_without_a_lone_row(monkeypatch, n):
    monkeypatch.setattr(signals, "WORK_BYTES", 48)      # three 16-byte rows
    slices = signals.row_slices(n, 16)
    assert [i for r in slices for i in range(n)[r]] == list(range(n))
    assert all(r.stop - r.start <= 4 for r in slices)
    assert n == 1 or all(r.stop - r.start >= 2 for r in slices)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_row_block_norms_equal_the_whole_array_formula(dim):
    # one block holds WORK_BYTES // (16 dim) rows: records of one row,
    # one block, one block and a lone row, and two blocks
    rows = signals.WORK_BYTES // (16 * dim)
    rng = np.random.default_rng(dim)
    for n in (1, rows, rows + 1, rows + 2):
        vals = ((rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
                * 10.0 ** rng.uniform(-8.0, 8.0, (n, dim)))
        F = SampledSignal(Domain.HALF_LINE, 0.0, DT, vals, 0, trusted=True)
        assert np.array_equal(F.norms, np.linalg.norm(F.values, axis=1)), n


def test_next_fast_len_matches_scipy():
    # scipy is only the oracle here; the engine computes the length itself
    from scipy.fft import next_fast_len
    for n in [*range(1, 20_001), 2 ** 20 + 1, 3 ** 11 + 1, 7 ** 7 + 1,
              11 ** 5 + 1, 999_983]:
        m = signals._next_fast_len(n)
        assert m == next_fast_len(n), n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        assert m == 1, n


def test_growth_validation():
    t = np.arange(0.0, 200.0 + DT / 2, DT)
    with pytest.raises(GrowthError):
        SampledSignal(Domain.HALF_LINE, 0.0, DT, t * np.exp(1j * t * t), 0)
    ok = SampledSignal(Domain.HALF_LINE, 0.0, DT, t * np.exp(1j * t * t), 1)
    assert ok.growth_exponent == 1
    te = np.arange(-5.0, 10.0 + DT / 2, DT)
    e = SampledSignal(Domain.FULL_LINE, -5.0, DT, np.exp(te), 8)
    assert e.envelope_constant() > 0



def _beat_record():
    # the beat of exp(1.03125 i t) against cos t is longer than the record:
    # its envelope rises from 1.0 towards 1.75 at t = 60
    t = np.arange(0.0, 60.0 + DT / 2, DT)
    return t, -np.exp(1.03125j * t) + np.cos(t)


def test_growth_validation_accepts_a_bounded_tail_rise():
    t, beat = _beat_record()
    rng = np.random.default_rng(18536)
    tn = np.arange(0.0, 40.0 + DT / 2, DT)
    noise = rng.standard_normal(len(tn)) + 1j * rng.standard_normal(len(tn))
    for times, vals in ((t, beat), (tn, noise)):
        norms = np.abs(vals)
        outer = times >= np.quantile(times, 1.0 - signals._GROWTH_TAIL_FRAC)
        # the tail test alone flags both records ...
        assert np.quantile(norms[outer], 0.95) > \
            signals._GROWTH_SLACK * np.quantile(norms[~outer], 0.95)
        # ... but neither fits a growth order: both are accepted as k = 0
        assert SampledSignal(Domain.HALF_LINE, 0.0, DT, vals).growth_exponent == 0


@pytest.mark.parametrize("p,k", [(0.5, 0), (3, 1)])
def test_growth_validation_rejects_power_laws(p, k):
    t = np.arange(0.0, 200.0 + DT / 2, DT)
    with pytest.raises(GrowthError):
        SampledSignal(Domain.HALF_LINE, 0.0, DT, t ** p * np.exp(1j * t), k)
    assert SampledSignal(Domain.HALF_LINE, 0.0, DT, t ** p * np.exp(1j * t),
                         k + 2).growth_exponent == k + 2

def test_half_line_must_start_at_zero():
    with pytest.raises(DomainError):
        SampledSignal(Domain.HALF_LINE, 1.0, DT, np.ones(100))


def _rel_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# n = 1, m^2 = 4900 and m^2 + 1 = 4901 (where m steps from 70 to 71);
# ``short`` cuts the rows below a lattice whose m is given
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5000), short=st.integers(0, 5000),
       d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, short=0, d=1, seed=0)
@example(n=4900, short=70, d=2, seed=1)
@example(n=4901, short=4900, d=3, seed=2)
def test_factored_lattice_matches_dense(n, short, d, seed):
    rng = np.random.default_rng(seed)
    dt = 0.01
    z = rng.uniform(0.0, 0.5, 5) + 1j * rng.uniform(-5.0, 5.0, 5)
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    dense = np.exp(-np.outer(z, dt * np.arange(n)))
    lattice = FactoredLattice(n, dt)
    E = lattice.exp(z[:, None])
    Y = lattice.blocks(rows)
    got = lattice.contract(E, Y)
    assert got.shape == (5, d)
    assert _rel_gap(got, dense @ rows) < 1e-13
    one = lattice.contract(lattice.exp(z[2]), Y)
    assert one.shape == (d,)
    assert _rel_gap(one, dense[2] @ rows) < 1e-13
    k = n - short % n                      # 1 <= k <= n rows
    part = FactoredLattice(k, dt, lattice.m)
    got = part.contract(E, part.blocks(rows[:k]))
    assert _rel_gap(got, dense[:, :k] @ rows[:k]) < 1e-13
    w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    got = lattice.dual(w, z)
    assert got.shape == (n,)
    assert _rel_gap(got, w @ dense) < 1e-13
