import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.optimize import minimize_scalar

from redspectra import classes
from redspectra.classes import (TOL_ERG, XATOL, FunctionClass, Tri,
                                _BohrSum, _bohr_weights, _refine_frequency,
                                ap_decompose, bohr_coefficient, detect,
                                ergodic_mean, is_c0, is_slowly_oscillating,
                                is_uc, uc_modulus)
from redspectra.config import Config
from redspectra.corpus import build_signal
from redspectra.errors import HorizonError
from redspectra.io_utils import canonical_json
from redspectra.signals import Domain, SampledSignal, convolve, extend_by_zero, \
    modulate, mollify

from conftest import make_full, make_half
from oracles import box_kernel, norm_class_by_column

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
    sups = classes._tail_sups(F, F.norms[:, None], [50.0, 100.0, 150.0])
    assert sups[0] >= sups[1] >= sups[2]
    with pytest.raises(HorizonError):
        classes._tail_sups(F, F.norms[:, None], [250.0])


def _norm_block(domain, t0, n, d, seed):
    """A (n, 6, d) block of records on the lattice t0 + 0.25 k: a decaying
    one, a steady one, an all-zero one, one trivially small under 2 trunc
    (1e-3), one whose last-tail maximum is a tie, and a growing one."""
    rng = np.random.default_rng(seed)
    t = t0 + 0.25 * np.arange(n)
    X = rng.standard_normal((n, 6, d)) + 1j * rng.standard_normal((n, 6, d))
    X[:, 0] *= np.exp(-np.abs(t) / 10.0)[:, None]
    X[:, 2] = 0.0
    X[:, 3] *= 1e-4
    X[:, 4] *= 0.1
    X[[-7, -3], 4] = 5.0 - 2.0j              # two equal rows, the largest
    X[:, 5] *= (1.0 + np.abs(t) / 5.0)[:, None]
    return X


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("domain, t0, n", [
    (Domain.HALF_LINE, 0.0, 401),           # 100 s
    (Domain.FULL_LINE, -50.0, 401),         # |t| <= 50
    (Domain.FULL_LINE, -80.0, 401),         # a checkpoint past t_end
    (Domain.HALF_LINE, 0.0, 61)])           # 15 s, below min_window
def test_norm_reports_are_the_detectors_column_by_column(domain, t0, n, d):
    X = _norm_block(domain, t0, n, d, seed=n + d)
    G = SampledSignal(domain, t0, 0.25, X[:, 0], trusted=True)
    N = np.empty((n, X.shape[1]))
    for c in range(X.shape[1]):
        N[:, c] = np.linalg.norm(X[:, c], axis=1)
    seen = set()
    for cls in classes.NORM_CLASSES:
        for scale_ref in (None, 1.0):
            for trunc in (0.0, 1e-3):
                got = classes.norm_reports(cls, G, N, CFG, scale_ref, trunc)
                for c, rep in enumerate(got):
                    F = SampledSignal(domain, t0, 0.25, X[:, c], trusted=True)
                    want = norm_class_by_column(cls, F, CFG, scale_ref, trunc)
                    if isinstance(want, HorizonError):
                        assert isinstance(rep, HorizonError)
                        assert str(rep) == str(want)
                        with pytest.raises(HorizonError, match=str(want)):
                            detect(cls, F, CFG, scale_ref, trunc)
                        seen.add("refused")
                        continue
                    one = detect(cls, F, CFG, scale_ref, trunc)
                    assert canonical_json(rep.to_dict()) == \
                        canonical_json(want.to_dict()) == \
                        canonical_json(one.to_dict())
                    seen.add(rep.member)
                    seen.add("trivial" if rep.evidence.get("trivial") else "")
                    if rep.member is Tri.NO and cls is not FunctionClass.BOUNDED \
                            and c == 4:
                        # the first of the two equal largest rows
                        assert rep.evidence["witness"]["t"] == F.times[-7]
                        seen.add("tie")
    assert {Tri.YES, Tri.NO, "trivial", "tie"} <= seen
    assert ("refused" in seen) == (t0 == -80.0 or n == 61)


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


def _interior_peaks(a):
    """(center, hw, peak) of every window of half-width 0.6, 0.8 or 1.0
    centred on -3, -2.75, ..., 3 whose coarse maximum of |a| is interior."""
    for hw in (0.6, 0.8, 1.0):
        for center in np.arange(-3.0, 3.01, 0.25):
            peak = a.peak(center, hw)
            if peak is not None:
                yield center, hw, peak


def _snapped_maximizer(F, lo, hi, xatol):
    """scipy's bounded maximizer of the definition's |a| on [lo, hi],
    rounded onto the XATOL lattice."""
    res = minimize_scalar(lambda x: -np.linalg.norm(_bohr_by_definition(F, x)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    return XATOL * round(res.x / XATOL)


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.FULL_LINE, 1001),
                                       (Domain.HALF_LINE, 4001),
                                       (Domain.FULL_LINE, 3000)])
def test_refined_frequency_is_the_snapped_maximizer(domain, n):
    # every interior coarse peak refines to the XATOL lattice point
    # nearest the maximizer of the definition's |a| between the peak's
    # neighbouring bins, found to 1e-12
    F = _random_record(domain, n, 7 * n)
    a = _BohrSum(F)
    peaks = 0
    for _, _, peak in _interior_peaks(a):
        peaks += 1
        assert _refine_frequency(a, peak, a.delta) == _snapped_maximizer(
            F, peak - a.delta, peak + a.delta, 1e-12)
    assert peaks >= 20


@pytest.mark.parametrize("nu0", [1.0, np.sqrt(2.0), -0.6180339887, 3.3])
def test_a_pure_tone_refines_to_its_lattice_point(nu0):
    # the Bohr weights are symmetric about their centre, so |a| of a pure
    # tone is even about nu0 and its maximizer is nu0 itself; a search
    # started on the main lobe's convex flank (0.4 and 0.5 of its
    # half-width h = 4 pi / span from nu0, where |a|^2'' > 0) needs the
    # bisection safeguard there, for a Newton step past the bracket's edge
    # and for one that does not halve the previous step
    def tone(t):
        return 2.5 * np.exp(1j * (nu0 * t + 0.7))
    snapped = XATOL * round(nu0 / XATOL)
    for F in (make_half(tone), make_half(tone, t_end=83.6), make_full(tone)):
        a = _BohrSum(F)
        peak = a.peak(nu0, 0.2)
        assert peak is not None
        assert _refine_frequency(a, peak, a.delta) == snapped
        h = 4.0 * np.pi / (F.t_end - F.t0)
        for start, hw in ((0.5, 0.6), (0.4, 0.5)):
            assert _refine_frequency(a, nu0 + start * h, hw * h) == snapped
        # a window on one flank holds no maximum: the search ends at the
        # edge nearer nu0, where a Newton step would leave the bracket
        for side in (1.0, -1.0):
            nu = _refine_frequency(a, nu0 + 0.3 * side * h, 0.2 * h)
            assert abs(nu - (nu0 + 0.1 * side * h)) <= 1.5 * XATOL


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
        ref = np.linalg.norm(a(j * a.delta)[0]) ** 2
        assert abs(a._power[j % a.n_fft] - ref) <= 1e-12 * max(ref, 1.0)


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.FULL_LINE, 1001)])
def test_an_interior_peak_is_the_whole_window_maximizer(domain, n):
    # windows that hold at most one of the record's two tones: the bounded
    # maximizer over the whole window (the refinement of every window
    # before the coarse scan) then finds the same peak, and its snapped
    # frequency differs by at most one XATOL step from the refinement
    # between the peak's bins
    F = _random_record(domain, n, 7 * n)
    a = _BohrSum(F)
    peaks = 0
    for center, hw, peak in _interior_peaks(a):
        if abs(center - 1.3) <= hw and abs(center + 0.6) <= hw:
            continue
        peaks += 1
        nu = _refine_frequency(a, peak, a.delta)
        whole = _snapped_maximizer(F, center - hw, center + hw, XATOL)
        assert abs(nu - whole) <= 1.5 * XATOL
    assert peaks >= 20


@pytest.mark.parametrize("domain, n", [(Domain.HALF_LINE, 836),
                                       (Domain.FULL_LINE, 1001)])
def test_a_window_of_fewer_than_three_bins_gives_no_frequency(domain, n):
    # an 8-10 s record has bins 0.31-0.37 apart: no window of half-width
    # 0.3 or less holds an interior bin, nor does a window of no width
    a = _BohrSum(_random_record(domain, n, 7 * n))
    for center, hw in ((1.25, 0.2), (-0.5, 0.3), (0.3, 0.1), (1.3, 0.0)):
        assert hw < a.delta
        assert a.peak(center, hw) is None


def test_a_window_on_one_flank_of_a_tone_gives_no_frequency(monkeypatch):
    # [1.02, 1.06] lies on the falling flank of exp(it)'s main lobe (half
    # width 4 pi / 200): its coarse maximum is its first bin, so it gives
    # no frequency and evaluates no Bohr sum (a whole-window search would
    # stop at the edge 1.0200001, which is no maximum)
    calls = []

    class CountingSum(_BohrSum):
        def __call__(self, omega):
            calls.append(omega)
            return super().__call__(omega)
    monkeypatch.setattr(classes, "_BohrSum", CountingSum)
    F = make_half(lambda t: np.exp(1j * t))
    assert _BohrSum(F).peak(1.04, 0.02) is None
    ap, rem, rep = ap_decompose(F, [(1.04, 0.02)], CFG)
    assert rep.evidence["frequencies"] == [] and calls == []
    # the window that holds the lobe's top refines it
    ap, rem, rep = ap_decompose(F, [(1.0, 0.04)], CFG)
    assert rep.evidence["frequencies"] == [1.0] and 0 < len(calls) < 40


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

    def counting_sum(F, *weights):
        built.append(F)
        return _BohrSum(F, *weights)

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


def test_ap_decompose_computes_the_bohr_weights_once(monkeypatch):
    # the weights depend on the lattice alone: the peel passes' sums of
    # the residual reuse the record's
    calls = []

    def counting_weights(F):
        calls.append(F)
        return _bohr_weights(F)
    monkeypatch.setattr(classes, "_bohr_weights", counting_weights)
    F = build_signal("aap_mix", CFG).half
    ap, rem, rep = ap_decompose(F, [(1.0, 0.2)], CFG)
    assert rep.member is Tri.YES and calls == [F]


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
