import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from redspectra.errors import (DomainError, GridError, GrowthError,
                               TruncationError)
from redspectra.kernels import bandpass_kernel, box_kernel, bump_kernel, reflected
from redspectra import signals
from redspectra.signals import (Domain, SampledSignal, convolve, difference,
                                extend_by_zero, indefinite_integral, modulate,
                                modulated_product, mollify, plan_convolution,
                                plan_product, reflect, translate)

from conftest import make_full, make_half

DT = 0.01


def test_extension_is_zero_left_and_identity_right():
    F = make_half(lambda t: np.ones_like(t), t_end=50.0)
    E = extend_by_zero(F, -5.0)
    assert abs(E.values[E.index_of(-1.0)]).max() == 0.0
    assert E.values[E.index_of(1.0), 0] == 1.0


def test_extension_of_full_line_is_identity():
    F = make_full(lambda t: np.sin(t), t_end=50.0)
    E = extend_by_zero(F)
    assert E.t0 == F.t0 and E.n == F.n
    with pytest.raises(TruncationError):
        extend_by_zero(F, t_min=F.t0 - 1.0)


def test_box_convolution_of_extension_vanishes_left_of_minus_h():
    # F bounded on the half line: the smoothed extension is 0 for t <= -h
    F = make_half(lambda t: np.cos(3 * t), t_end=60.0)
    C = convolve(extend_by_zero(F, -10.0), box_kernel(0.5))
    mask = C.times <= -0.5 - 1e-12
    assert mask.any() and np.abs(C.values[mask]).max() == 0.0


def test_box_convolution_ramp_of_indicator():
    # F == 1 on the half line: ramp 0 below -h, (t+h)/h on (-h, 0), 1 above
    h = 0.5
    F = make_half(lambda t: np.ones_like(t), t_end=60.0)
    C = convolve(extend_by_zero(F, -10.0), box_kernel(h))
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
    C = convolve(extend_by_zero(F, -5.0), box_kernel(0.5)).restrict_to_origin()
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
    E = extend_by_zero(F, -10.0)
    phi = bandpass_kernel(0.5, 1.0)
    psi = box_kernel(1.0)
    A = convolve(convolve(E, phi, budget=1e-6), psi, budget=1e-6)
    B = convolve(convolve(E, psi, budget=1e-6), phi, budget=1e-6)
    lo = max(A.t0, B.t0) + 1.0
    hi = min(A.t_end, B.t_end) - 1.0
    ra, rb = A.restrict(lo, hi), B.restrict(lo, hi)
    n = min(ra.n, rb.n)
    tol = 30.0 * DT ** 2 * max(phi.mass, 1.0) + 4e-6
    assert np.abs(ra.values[:n] - rb.values[:n]).max() < tol


def test_decay_at_minus_infinity():
    # half-line signal smoothed by the bump decays along t -> -inf
    F = make_half(lambda t: 1.0 / (1.0 + t), t_end=200.0)
    C = convolve(extend_by_zero(F, -60.0), bump_kernel(), budget=1e-9)
    vals = [np.linalg.norm(C.values[C.index_of(tp)]) for tp in (-10.0, -20.0, -40.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3 * F.sup_norm()


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
    mk = lambda v: extend_by_zero(
        SampledSignal(Domain.HALF_LINE, 0.0, DT, v), -5.0)
    k = box_kernel(0.5)
    lhs = convolve(mk(al * a + be * b), k).values
    rhs = al * convolve(mk(a), k).values + be * convolve(mk(b), k).values
    assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(rhs).max())


def _naive_trapezoid(H, kernel, quad_step, t_out, omegas):
    """sum_i H(t - s_i) k(s_i) w_i exp(i omega s_i) over every kernel tap,
    with H zero off its record."""
    s0, samples = kernel.time_samples(H.dt, quad_step=quad_step)
    s = s0 + quad_step * np.arange(len(samples))
    w = np.full(len(s), quad_step)
    w[0] = w[-1] = quad_step / 2
    taps = (samples * w)[:, None] * np.exp(1j * np.outer(s, omegas))
    out = np.zeros((len(t_out), len(omegas), H.dim), complex)
    for k, t in enumerate(t_out):
        idx = np.rint((t - s - H.t0) / H.dt).astype(int)
        on = (idx >= 0) & (idx < H.n)
        out[k] = np.einsum("iw,id->wd", taps[on], H.values[idx[on]])
    return out


def _plan_case(kernel, domain, dim, q, out_step):
    """(H, kernel, plan) of the ladder-product tests.  The data vanish
    for |t| > 30, so taps are trimmed at both ends, and the wide boxes on
    [-60, 0] and [0, 60] weigh their edge taps fully: a trim one tap off
    shows."""
    def fn(t):
        vals = np.stack([np.exp(1j * t), np.cos(0.5 * t) / (1 + 0.01 * t * t)],
                        axis=1)[:, :dim]
        return vals * (np.abs(t) <= 30.0)[:, None]
    F = (make_half if domain == "half" else make_full)(fn, t_end=100.0)
    H = extend_by_zero(F)
    kern = {"bandpass": bandpass_kernel(0.0, 1.0),
            "box-left": box_kernel(60.0),
            "box-right": reflected(box_kernel(60.0))}[kernel]
    return H, kern, plan_convolution(H, kern, out_step, (-0.4, np.inf), 1e-3, q)


def _check_plan_product(kernel, domain, dim, q, out_step):
    H, kern, plan = _plan_case(kernel, domain, dim, q, out_step)
    omegas = np.linspace(-2.0, 2.0, 21)
    got = modulated_product(plan, omegas)
    t_out = plan.t0 + plan.step * np.arange(len(got))
    ref = _naive_trapezoid(H, kern, q, t_out, omegas)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # convolve's product is the same sum with the unmodulated weights
    conv = plan_product(plan)
    j0 = int(np.argmin(np.abs(omegas)))
    assert conv.shape == got[:, j0].shape
    assert np.abs(conv - ref[:, j0]).max() <= 1e-12 * np.abs(ref).max()
    # the trim is tight: the first and last kept taps meet data
    for c in (0, -1):
        assert any(np.any(v[:, c] != 0) for v in plan.views)


@pytest.mark.parametrize("block_bytes", [None, 1 << 16])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("domain", ["half", "full"])
@pytest.mark.parametrize("kernel", ["bandpass", "box-left", "box-right"])
def test_trimmed_plan_product_matches_naive_sum(monkeypatch, kernel, domain,
                                                dim, block_bytes):
    # the ladder's product: trimmed plan times modulated weights, with
    # small blocks as well (several overlap-save segments, frequency
    # groups and tap and row blocks of convolve)
    if block_bytes:
        monkeypatch.setattr(signals, "BLOCK_BYTES", block_bytes)
    _check_plan_product(kernel, domain, dim, 0.04, 0.2)


@pytest.mark.parametrize("block_bytes", [None, 1 << 12])
@pytest.mark.parametrize("domain", ["half", "full"])
@pytest.mark.parametrize("kernel", ["bandpass", "box-left", "box-right"])
@pytest.mark.parametrize("q, out_step", [(0.03, 0.2), (0.06, 0.04)])
def test_plan_product_matches_naive_sum_off_stride(monkeypatch, q, out_step,
                                                   kernel, domain,
                                                   block_bytes):
    # output steps that are no multiple of the tap step: the correlation
    # runs on the gcd lattice (0.01 and 0.02) with R = 20, D = 3 and
    # R = 2, D = 3; the small block bound cuts the outputs into
    # overlap-save segments
    if block_bytes:
        monkeypatch.setattr(signals, "BLOCK_BYTES", block_bytes)
    _check_plan_product(kernel, domain, 2, q, out_step)


@pytest.mark.parametrize("q, out_step", [(0.04, 0.2), (0.03, 0.2), (0.06, 0.04)])
def test_overlap_save_segments_match_naive_sum(monkeypatch, q, out_step):
    # data on the whole record and outputs wherever the window fits: the
    # small block bound splits the outputs into several overlap-save
    # segments, and every segment's first and last samples meet nonzero
    # taps, so a slice one sample short shows
    monkeypatch.setattr(signals, "BLOCK_BYTES", 1 << 12)
    F = make_full(lambda t: np.stack([np.exp(1j * t), np.cos(0.5 * t)],
                                     axis=1), t_end=100.0)
    H, kern = extend_by_zero(F), box_kernel(60.0)
    plan = plan_convolution(H, kern, out_step, None, 1e-3, q)
    omegas = np.linspace(-2.0, 2.0, 5)
    got = modulated_product(plan, omegas)
    t_out = plan.t0 + plan.step * np.arange(len(got))
    ref = _naive_trapezoid(H, kern, q, t_out, omegas)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("block_bytes", [None, 1 << 12])
@pytest.mark.parametrize("q, out_step", [(0.04, 0.2), (0.03, 0.2), (0.06, 0.04)])
def test_modulated_product_column_independent_of_its_batch(monkeypatch, q,
                                                           out_step,
                                                           block_bytes):
    # a verdict must not depend on which frequencies share a call: each
    # column equals, bit for bit, the same frequency computed alone (also
    # with overlap-save segments and one frequency per group)
    if block_bytes:
        monkeypatch.setattr(signals, "BLOCK_BYTES", block_bytes)
    _, _, plan = _plan_case("bandpass", "full", 2, q, out_step)
    omegas = np.linspace(-2.0, 2.0, 21)
    full = modulated_product(plan, omegas)
    for j in range(len(omegas)):
        assert np.array_equal(full[:, j], modulated_product(plan, omegas[j:j + 1])[:, 0])
    assert np.array_equal(full[:, 5:9], modulated_product(plan, omegas[5:9]))


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
