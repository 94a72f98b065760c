import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redspectra.classes import (FunctionClass, Tri, ap_decompose,
                                bohr_coefficient, detect, ergodic_mean, is_c0,
                                is_slowly_oscillating, is_uc, tail_sup,
                                uc_modulus)
from redspectra.config import Config
from redspectra.errors import HorizonError
from redspectra.signals import Domain, SampledSignal, convolve, extend_by_zero, \
    modulate, mollify
from redspectra.kernels import box_kernel

from conftest import make_half

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
    m, devs, rep = ergodic_mean(F, [25, 50, 100], CFG)
    assert rep.member is Tri.YES
    assert abs(m.value[0] - (2.0 - 1.0j)) < 1e-10
    assert max(devs) < 1e-9


def test_ergodic_mean_oscillation_rate():
    # windowed means of exp(i w t) decay like 2/(w T)
    w = 0.7
    F = make_half(lambda t: np.exp(1j * w * t))
    m, devs, rep = ergodic_mean(F, [25, 50, 100], CFG)
    assert m.norm() < 5e-3
    for T, d in zip((25, 50, 100), devs):
        assert d <= 2.0 / (w * T) + 1e-9


def test_ergodic_chirp_fresnel():
    F = make_half(lambda t: np.exp(1j * t * t))
    m, devs, rep = ergodic_mean(F, [25, 50, 100], CFG)
    assert rep.member is Tri.YES and m.norm() <= 1e-2
    assert devs[0] > devs[1] > devs[2]


def test_ergodic_no_for_drifting_signal():
    F = make_half(lambda t: np.exp(1j * np.sqrt(1 + t)), k=0)
    m, devs, rep = ergodic_mean(F, [25, 50, 100], CFG)
    assert rep.member in (Tri.NO, Tri.UNDECIDED)


# ---------------------------------------------------------------------------
# Bohr coefficients and the AP/AAP split
# ---------------------------------------------------------------------------

def test_bohr_coefficients_of_cosine():
    F = make_half(lambda t: 2.0 * np.cos(t))
    for w in (1.0, -1.0):
        assert abs(bohr_coefficient(F, w, CFG).a[0] - 1.0) < 1e-2
    assert bohr_coefficient(F, 0.35, CFG).norm() < 5e-2


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
    assert rem.sup_norm() < 5e-3


# ---------------------------------------------------------------------------
# UC / SO / bounded
# ---------------------------------------------------------------------------

def test_uc_modulus_and_verdicts():
    lags, mods = uc_modulus(make_half(np.sin), [0.01, 0.02], CFG)
    assert mods[0] <= 0.011
    assert is_uc(make_half(np.sin), CFG).member is Tri.YES
    chirp = make_half(lambda t: np.exp(1j * t * t))
    rep = is_uc(chirp, CFG)
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
    m0, _, rep0 = ergodic_mean(G, None, CFG)
    assert rep0.member is Tri.YES
    m1, _, rep1 = ergodic_mean(modulate(mollify(F, h), w), None, CFG)
    assert rep1.member is Tri.YES
    m2, _, rep2 = ergodic_mean(mollify(G, h), None, CFG)
    assert rep2.member is Tri.YES
    assert np.linalg.norm(m2.value - m0.value) < 2 * CFG.tol_erg


def test_ergodic_closure_under_convolution():
    # bounded F with gamma_w F ergodic: the smoothed extension stays
    # ergodic and uniformly continuous
    F = make_half(lambda t: np.exp(1j * 0.5 * t))
    conv = convolve(extend_by_zero(F, -5.0), box_kernel(1.0)).restrict_to_origin()
    m, devs, rep = ergodic_mean(conv, None, CFG)
    assert rep.member is Tri.YES
    assert is_uc(conv, CFG).member is Tri.YES


def test_c0_closure_2_9_2_10():
    # signals vanishing at infinity: M_h F vanishes and is ergodic, mean 0
    F = make_half(lambda t: np.exp(-0.1 * t) * np.exp(2j * t))
    for h in (0.5, 1.0):
        M = mollify(F, h)
        assert is_c0(M, CFG).member is Tri.YES
        m, _, rep = ergodic_mean(M, None, CFG)
        assert rep.member is Tri.YES and m.norm() < CFG.tol_erg


def test_uc_and_ergodic_implies_bounded_on_corpus():
    for f in (np.sin, lambda t: np.exp(1j * t * 0.5)):
        F = make_half(f)
        if is_uc(F, CFG).member is Tri.YES and \
                ergodic_mean(F, None, CFG)[2].member is Tri.YES:
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
