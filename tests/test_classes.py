import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.optimize import minimize_scalar

from redspectra import classes
from redspectra.classes import (TOL_ERG, XATOL, FunctionClass, Tri,
                                _BohrSum, _refine_frequency, ap_decompose,
                                bohr_coefficient, detect, ergodic_mean, is_c0,
                                is_slowly_oscillating, is_uc, tail_sup,
                                uc_modulus)
from redspectra.config import Config
from redspectra.corpus import build_signal
from redspectra.errors import HorizonError
from redspectra.signals import Domain, SampledSignal, convolve, extend_by_zero, \
    modulate, mollify

from conftest import make_half
from oracles import box_kernel

CFG = Config()


# ---------------------------------------------------------------------------
# C0
# ---------------------------------------------------------------------------

def test_c0_explicit_decay_and_oscillation():
    assert is_c0(make_half(lambda t: np.exp(-t)), CFG).member is Tri.YES
    rep = is_c0(make_half(np.sin), CFG)
    assert rep.member is Tri.NO
    assert "witness" in rep.evidence           # NO always carries a witness


def test_c0_mollified_chirp():
    ch = make_half(lambda t: np.exp(1j * t * t))
    for h in (0.5, 1.0, 2.0):
        assert is_c0(mollify(ch, h), CFG, scale_ref=1.0).member is Tri.YES


def test_tail_sup_is_nested_monotone():
    F = make_half(lambda t: np.exp(-0.05 * t) * np.cos(t))
    sups = tail_sup(F, [50.0, 100.0, 150.0])
    assert sups[0] >= sups[1] >= sups[2]
    with pytest.raises(HorizonError):
        tail_sup(F, [250.0])


# ---------------------------------------------------------------------------
# ergodic means
# ---------------------------------------------------------------------------

def test_ergodic_mean_constant():
    F = make_half(lambda t: np.full(len(t), 2.0 - 1.0j))
    m, devs, rep = ergodic_mean(F)
    assert rep.member is Tri.YES
    assert abs(m[0] - (2.0 - 1.0j)) < 1e-10
    assert max(devs) < 1e-9


def test_ergodic_mean_rejects_a_horizon_below_one_step():
    # a 0.03 s record: its shortest horizon, 0.00375 s, rounds to no step
    with pytest.raises(HorizonError, match="shorter than dt=0.01"):
        ergodic_mean(make_half(np.cos, t_end=0.03))


def test_ergodic_mean_oscillation_rate():
    # windowed means of exp(i w t) decay like 2/(w T)
    w = 0.7
    F = make_half(lambda t: np.exp(1j * w * t))
    m, devs, rep = ergodic_mean(F)
    assert np.linalg.norm(m) < 5e-3
    for T, d in zip((25, 50, 100), devs):
        assert d <= 2.0 / (w * T) + 1e-9


def test_ergodic_chirp_fresnel():
    F = make_half(lambda t: np.exp(1j * t * t))
    m, devs, rep = ergodic_mean(F)
    assert rep.member is Tri.YES and np.linalg.norm(m) <= 1e-2
    assert devs[0] > devs[1] > devs[2]


def test_ergodic_no_for_drifting_signal():
    F = make_half(lambda t: np.exp(1j * np.sqrt(1 + t)), k=0)
    m, devs, rep = ergodic_mean(F)
    assert rep.member in (Tri.NO, Tri.UNDECIDED)


# ---------------------------------------------------------------------------
# Bohr coefficients and the AP/AAP split
# ---------------------------------------------------------------------------

def test_bohr_coefficients_of_cosine():
    F = make_half(lambda t: 2.0 * np.cos(t))
    for w in (1.0, -1.0):
        assert abs(bohr_coefficient(F, w)[0] - 1.0) < 1e-2
    assert np.linalg.norm(bohr_coefficient(F, 0.35)) < 5e-2
    with pytest.raises(HorizonError):       # a window of no whole step
        bohr_coefficient(make_half(np.cos, t_end=0.01), 1.0)


def _bohr_by_definition(F, omega):
    """Mean over n_w start points of the T-windowed means of exp(-i omega
    t) F, T = span/2, from a cumulative trapezoid."""
    G = modulate(F, -omega).values
    cum = np.vstack([np.zeros((1, F.dim)),
                     np.cumsum(0.5 * F.dt * (G[1:] + G[:-1]), axis=0)])
    span = F.t_end - F.t0
    k = round(0.5 * span / F.dt)
    A = (cum[k:] - cum[:-k]) / (k * F.dt)
    n_w = max(1, min(A.shape[0], int(0.45 * span / F.dt)))
    return A[:n_w].mean(axis=0)


def _random_record(domain, n, seed):
    rng = np.random.default_rng(seed)
    t0 = 0.0 if domain is Domain.HALF_LINE else -0.37 * n * 0.01
    t = t0 + 0.01 * np.arange(n)
    vals = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            + np.exp(1j * np.outer(t, [1.3, -0.6])))
    return SampledSignal(domain, t0, 0.01, vals, 0, trusted=True)


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.HALF_LINE, 4001),
                                       (Domain.FULL_LINE, 1001),
                                       (Domain.FULL_LINE, 3000)])
def test_bohr_coefficient_is_the_windowed_mean(domain, n):
    F = _random_record(domain, n, n)
    for omega in (-4.1, -0.6, 0.0, 0.77, 1.3, 4.9):
        a = bohr_coefficient(F, omega)
        ref = _bohr_by_definition(F, omega)
        assert a.shape == (2,)
        assert np.linalg.norm(a - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.FULL_LINE, 1001)])
def test_refined_frequency_is_the_snapped_brent_maximizer(domain, n):
    # Brent on the definition's |a| lands on the same XATOL lattice point:
    # the snap hides how the weighted sum is ordered
    F = _random_record(domain, n, 7 * n)
    for center, hw in ((1.25, 0.2), (-0.5, 0.3), (0.3, 0.1)):
        nu = _refine_frequency(_BohrSum(F), center, hw)
        assert nu == XATOL * round(nu / XATOL)
        res = minimize_scalar(
            lambda x: -np.linalg.norm(_bohr_by_definition(F, x)),
            bounds=(center - hw, center + hw), method="bounded",
            options={"xatol": XATOL})
        assert XATOL * round(res.x / XATOL) == nu


def test_coarse_power_is_a_at_the_bins():
    # four channels of a 200 s record take two FFT groups within
    # WORK_BYTES; bins on both sides of zero read |a|^2 of the lattice sum
    rng = np.random.default_rng(5)
    t = 0.01 * np.arange(20001)
    vals = (rng.standard_normal((t.size, 4))
            + np.exp(1j * np.outer(t, [1.0, -2.0, 0.5, 3.0])))
    a = _BohrSum(SampledSignal(Domain.HALF_LINE, 0.0, 0.01, vals, 0,
                               trusted=True))
    assert a.delta <= np.pi / 200.0 and a.n_fft >= 40000
    assert 16 * a.n_fft * 4 > classes.WORK_BYTES
    for j in (-637, -1, 0, 1, 64, 955):
        ref = np.linalg.norm(a(j * a.delta)) ** 2
        assert abs(a._power[j % a.n_fft] - ref) <= 1e-12 * max(ref, 1.0)


def _whole_window_brent(a, center, hw):
    """The refinement of every window before the coarse scan: bounded
    Brent over the whole window, snapped onto the XATOL lattice."""
    nu = classes._bounded_brent(lambda w: -np.linalg.norm(a(w)),
                                center - hw, center + hw, XATOL)
    return XATOL * round(nu / XATOL)


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.FULL_LINE, 1001)])
def test_an_interior_peak_is_the_whole_window_maximizer(domain, n):
    # windows that hold at most one of the record's two tones: whole-window
    # Brent then finds the same peak, and its snapped frequency differs by
    # at most one XATOL step from the refinement between the peak's bins
    F = _random_record(domain, n, 7 * n)
    a = _BohrSum(F)
    peaks = 0
    for hw in (0.6, 0.8, 1.0):
        for center in np.arange(-3.0, 3.01, 0.25):
            if abs(center - 1.3) <= hw and abs(center + 0.6) <= hw:
                continue
            peak = a.peak(center, hw)
            if peak is None:
                continue
            peaks += 1
            nu = _refine_frequency(a, peak, a.delta)
            assert abs(nu - _whole_window_brent(a, center, hw)) <= 1.5 * XATOL
    assert peaks >= 20


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.FULL_LINE, 1001)])
def test_a_window_of_fewer_than_three_bins_gives_no_frequency(domain, n):
    # an 8-10 s record has bins 0.31-0.37 apart: no window of
    # test_refined_frequency_is_the_snapped_brent_maximizer holds an
    # interior bin, nor does a window of no width
    a = _BohrSum(_random_record(domain, n, 7 * n))
    for center, hw in ((1.25, 0.2), (-0.5, 0.3), (0.3, 0.1), (1.3, 0.0)):
        assert hw < a.delta
        assert a.peak(center, hw) is None


def test_a_window_on_one_flank_of_a_tone_gives_no_frequency(monkeypatch):
    # [1.02, 1.06] lies on the falling flank of exp(it)'s main lobe (half
    # width 4 pi / 200): its coarse maximum is its first bin, so it gives
    # no frequency and no objective call (whole-window Brent stops at the
    # edge 1.0200001, which is no maximum, and peels 1.0501793)
    calls = []
    brent = classes._bounded_brent

    def counting_brent(f, lo, hi, xatol, maxfun=500):
        def counted(x):
            calls.append(x)
            return f(x)
        return brent(counted, lo, hi, xatol, maxfun)
    monkeypatch.setattr(classes, "_bounded_brent", counting_brent)
    F = make_half(lambda t: np.exp(1j * t))
    assert _BohrSum(F).peak(1.04, 0.02) is None
    ap, rem, rep = ap_decompose(F, [(1.04, 0.02)], CFG)
    assert rep.evidence["frequencies"] == [] and calls == []
    # the window that holds the lobe's top refines it
    ap, rem, rep = ap_decompose(F, [(1.0, 0.04)], CFG)
    assert rep.evidence["frequencies"] == [1.0] and 0 < len(calls) < 40


def _brent_objectives(rng, lo, hi, bohr):
    """One objective per kind on [lo, hi], drawn from ``rng``."""
    w = hi - lo
    c = lo + w * rng.uniform()
    s = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
    k = 2.0 * np.pi * rng.uniform(1.0, 20.0) / w
    x0 = lo + 0.5 * (3.0 - np.sqrt(5.0)) * w          # Brent's first probe

    def multimodal(x):
        return np.sin(k * (x - lo)) + 0.3 * np.cos(2.7 * k * (x - c))
    return {
        "quadratic": lambda x: s * s * (x - c) ** 2,
        # a minimum on the first probe gives zero steps, counted as +1
        "quadratic at the first probe": lambda x: (x - x0) ** 2,
        # the minimum at a bracket end, as where |a| still rises at the
        # edge of a candidate window
        "monotone": lambda x: np.arctan(s * (x - lo) / w),
        "constant": lambda x: s,
        "multimodal": multimodal,
        # ties between evaluations
        "staircase": lambda x: np.round(4.0 * multimodal(x)),
        "bohr": lambda x: -np.linalg.norm(bohr(x)),
    }


def test_bounded_brent_matches_scipy_bounded_minimizer():
    # scipy serves only as the oracle: the port must stop on the same x,
    # bit for bit, over widths 1e-8 to 10 and both tolerances in use
    rng = np.random.default_rng(2105)
    bohr = _BohrSum(_random_record(Domain.HALF_LINE, 836, 11))
    n = 0
    for width in np.geomspace(1e-8, 10.0, 10):
        for xatol in (1e-7, 1e-5):
            for _ in range(4):
                lo = rng.uniform(-5.0, 5.0)
                hi = lo + width
                for kind, f in _brent_objectives(rng, lo, hi, bohr).items():
                    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                          options={"xatol": xatol})
                    x = classes._bounded_brent(f, lo, hi, xatol)
                    assert x == res.x, (kind, lo, hi, xatol)
                    n += 1
    assert n == 560


def test_bounded_brent_stops_where_scipy_stops_when_maxfun_runs_out():
    f = _brent_objectives(np.random.default_rng(7), -1.0, 3.0,
                          None)["multimodal"]
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    res = minimize_scalar(f, bounds=(-1.0, 3.0), method="bounded",
                          options={"xatol": 1e-7, "maxiter": 7})
    assert res.status == 1 and res.nfev == 7           # maxfun ran out
    assert classes._bounded_brent(counted, -1.0, 3.0, 1e-7, maxfun=7) == res.x
    assert len(calls) == 7


def test_ap_decompose_mix():
    F = make_half(lambda t: np.exp(1j * t) + np.exp(-t))
    ap, rem, rep = ap_decompose(F, [(1.0, 0.2)], CFG)
    assert rep.member is Tri.YES
    freqs = rep.evidence["frequencies"]
    assert len(freqs) == 1 and abs(freqs[0] - 1.0) < 1e-3
    coeff = list(rep.evidence["coefficients"].values())[0]
    assert abs(coeff[0] - 1.0) < 1e-2


def test_ap_decompose_pure_decay_has_no_tones():
    F = make_half(lambda t: np.exp(-t))
    ap, rem, rep = ap_decompose(F, [(0.5, 0.5)], CFG)
    assert ap.sup_norm() < 1e-6
    assert rep.member is Tri.YES


def test_ap_two_tones_recovered_from_one_seed():
    F = make_half(lambda t: np.exp(1j * t) + np.exp(1j * np.sqrt(2) * t))
    ap, rem, rep = ap_decompose(F, [(1.2, 0.6)], CFG)
    freqs = sorted(rep.evidence["frequencies"])
    assert len(freqs) == 2
    assert abs(freqs[0] - 1.0) < 1e-4 and abs(freqs[1] - np.sqrt(2)) < 1e-4
    assert all(f == XATOL * round(f / XATOL) for f in freqs)
    assert rem.sup_norm() < 5e-3


def test_ap_decompose_forms_one_bohr_sum_per_pass(monkeypatch):
    # the record's sum serves the first refinement of every window, and
    # each peel pass forms one sum of its residual; with one window the
    # refinements count 1 + the passes
    built, refined = [], []

    def counting_sum(F):
        built.append(F)
        return _BohrSum(F)

    def counting_refine(a, center, hw):
        refined.append(center)
        return _refine_frequency(a, center, hw)
    monkeypatch.setattr(classes, "_BohrSum", counting_sum)
    monkeypatch.setattr(classes, "_refine_frequency", counting_refine)
    F = build_signal("aap_mix", CFG).half
    ap, rem, rep = ap_decompose(F, [(1.0, 0.2)], CFG)
    assert rep.member is Tri.YES and len(refined) >= 2
    assert 1 <= len(built) <= len(refined)
    built.clear()
    ap, rem, rep = ap_decompose(F, [], CFG)
    assert built == [] and rep.evidence["frequencies"] == []


# ---------------------------------------------------------------------------
# UC / SO / bounded
# ---------------------------------------------------------------------------

def test_uc_modulus_and_verdicts():
    lags, mods = uc_modulus(make_half(np.sin))
    assert lags[:2] == [0.01, 0.02] and mods[0] <= 0.011
    assert is_uc(make_half(np.sin)).member is Tri.YES
    chirp = make_half(lambda t: np.exp(1j * t * t))
    rep = is_uc(chirp)
    assert rep.member is Tri.NO and "witness" in rep.evidence


def test_slowly_oscillating_composite_and_chirp():
    rng = np.random.default_rng(7)
    def f(t):
        return np.sin(t) + np.where(t < 10, 0.5 * rng.standard_normal(len(t)), 0.0)
    assert is_slowly_oscillating(make_half(f), CFG).member is Tri.YES
    chirp = make_half(lambda t: np.exp(1j * t * t))
    assert is_slowly_oscillating(chirp, CFG).member is Tri.NO


def test_bounded_trend():
    assert detect(FunctionClass.BOUNDED, make_half(np.sin), CFG).member is Tri.YES
    rep = detect(FunctionClass.BOUNDED,
                 make_half(lambda t: t * np.exp(1j * t * t), k=1), CFG)
    assert rep.member is Tri.NO


# ---------------------------------------------------------------------------
# closure properties of ergodic means under smoothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w,h", [(0.8, 0.5), (0.0, 1.0)])
def test_ergodic_closure_under_mollification(w, h):
    # gamma_w F ergodic  =>  gamma_w M_h F ergodic, and M_h(gamma_w F)
    # ergodic with the same mean
    F = make_half(lambda t: np.exp(1j * t))
    G = modulate(F, w)
    m0, _, rep0 = ergodic_mean(G)
    assert rep0.member is Tri.YES
    m1, _, rep1 = ergodic_mean(modulate(mollify(F, h), w))
    assert rep1.member is Tri.YES
    m2, _, rep2 = ergodic_mean(mollify(G, h))
    assert rep2.member is Tri.YES
    assert np.linalg.norm(m2 - m0) < 2 * TOL_ERG


def test_ergodic_closure_under_convolution():
    # bounded F with gamma_w F ergodic: the smoothed extension stays
    # ergodic and uniformly continuous
    F = make_half(lambda t: np.exp(1j * 0.5 * t))
    conv = convolve(extend_by_zero(F), box_kernel(1.0)).restrict_to_origin()
    m, devs, rep = ergodic_mean(conv)
    assert rep.member is Tri.YES
    assert is_uc(conv).member is Tri.YES


def test_c0_closure_2_9_2_10():
    # signals vanishing at infinity: M_h F vanishes and is ergodic, mean 0
    F = make_half(lambda t: np.exp(-0.1 * t) * np.exp(2j * t))
    for h in (0.5, 1.0):
        M = mollify(F, h)
        assert is_c0(M, CFG).member is Tri.YES
        m, _, rep = ergodic_mean(M)
        assert rep.member is Tri.YES and np.linalg.norm(m) < TOL_ERG


def test_uc_and_ergodic_implies_bounded_on_corpus():
    for f in (np.sin, lambda t: np.exp(1j * t * 0.5)):
        F = make_half(f)
        if is_uc(F).member is Tri.YES and \
                ergodic_mean(F)[2].member is Tri.YES:
            assert detect(FunctionClass.BOUNDED, F, CFG).member is Tri.YES


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
@example(w=1.03125, a=-1.0)
def test_mollify_linearity_random(w, a):
    # w = 1.03125, a = -1: the beat is longer than the record, so its
    # envelope rises towards t = 60; the growth validator must accept it
    t = np.arange(0.0, 60.0 + 0.005, 0.01)
    F = SampledSignal(Domain.HALF_LINE, 0.0, 0.01,
                      a * np.exp(1j * w * t) + np.cos(t))
    lhs = mollify(F, 0.5).values
    G1 = SampledSignal(Domain.HALF_LINE, 0.0, 0.01, a * np.exp(1j * w * t))
    G2 = SampledSignal(Domain.HALF_LINE, 0.0, 0.01, np.cos(t))
    rhs = mollify(G1, 0.5).values + mollify(G2, 0.5).values
    assert np.abs(lhs - rhs).max() < 1e-12 * (1 + abs(a))
