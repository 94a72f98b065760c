import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

import redspectra
from redspectra.errors import DomainError, GridError
from redspectra.kernels import (_erf, annihilator_kernel, bandpass_kernel,
                                bump_kernel, d_bump)
from redspectra.signals import extend_by_zero, plan_band

from conftest import make_half
from oracles import (DivisionError_, approximate_identity, box_kernel,
                     exp_kernel, fourier_consistency_error, psi_hat_by_point,
                     reflected, wiener_divide)


# ---------------------------------------------------------------------------
# bump kernel
# ---------------------------------------------------------------------------

def test_bump_normalization_against_adaptive_quadrature():
    # a = (2 pi int_{-1}^{1} exp(2/(t^2-1)) dt)^(-1/2); with that a the
    # transform at 0 is exactly 1
    i2 = quad(lambda t: np.exp(2.0 / (t * t - 1.0)), -1, 1,
              epsabs=1e-13, epsrel=1e-13)[0]
    a = (2 * np.pi * i2) ** -0.5
    psi = bump_kernel()
    assert abs(complex(psi.ft(np.array([0.0]))[0]) - 1.0) < 1e-8
    # the normalizer itself: psi^(0) = 2 pi a^2 i2 must equal 1
    assert abs(2 * np.pi * a * a * i2 - 1.0) < 1e-12


def test_bump_nonnegative_and_band_limited():
    psi = bump_kernel()
    t = np.linspace(-150, 150, 4001)
    vals = np.asarray(psi.time_fn(t))
    assert vals.real.min() >= -1e-15 and np.abs(vals.imag).max() < 1e-15
    w = np.array([-2.4, -2.1, 2.1, 2.4, 3.0])
    assert np.abs(psi.ft(w)).max() < 1e-8 * (1 + psi.mass)


def test_psi_hat_in_blocks_has_the_bits_of_the_per_point_sums():
    # psi^ evaluates its Gauss sums in blocks; every value must have the
    # bits of the same sum taken alone: on regular-ft's eta grid, on the
    # DFT bins that convolve reads, and on a random draw across the
    # support's ends
    psi = bump_kernel()
    plan = plan_band(extend_by_zero(make_half(lambda t: np.exp(1j * t))),
                     psi, 0.2, None, 1e-3)
    band = psi.band.half_width
    f = np.ceil(-band / plan.dnu) + np.arange(int(2.0 * band / plan.dnu) + 2)
    draws = (np.linspace(-2.2, 2.2, 2201), f * plan.dnu - 0.0,
             np.random.default_rng(7).uniform(-2.5, 2.5, 5000))
    for w in draws:
        got = np.asarray(psi.ft(w))
        assert got.shape == w.shape and not got.imag.any()
        assert np.array_equal(got.real.view(np.int64),
                              psi_hat_by_point(w).view(np.int64))
    assert len(draws[1]) > 200


@pytest.mark.parametrize("kernel", ["bump", "bandpass", "bandpass-shifted"])
def test_a_declared_band_is_exact(kernel):
    # the transform is exactly 0.0 from the declared half-width on, so the
    # bins beyond it add nothing
    k = {"bump": bump_kernel, "bandpass": lambda: bandpass_kernel(0.0, 0.5),
         "bandpass-shifted": lambda: bandpass_kernel(-0.75, 1.0)}[kernel]()
    hw = k.band.half_width
    w = hw + np.concatenate([[0.0], np.geomspace(1e-12, 10.0, 200)])
    assert not np.asarray(k.ft(np.concatenate([w, -w]))).any()


def test_a_derived_kernel_declares_its_own_band_or_none():
    # dataclasses.replace does not copy the band: psi_n, a reflection or a
    # scaled copy takes the direct sum unless it declares its own band
    psi = bump_kernel()
    assert psi.band.half_width == 2.0 and psi.band.omitted(0.01) == 0.0
    for k in (approximate_identity(2), reflected(psi), psi.scaled(2.0),
              d_bump(), annihilator_kernel(2.0), box_kernel(0.5)):
        assert k.band is None


def test_bump_fourier_consistency():
    assert fourier_consistency_error(bump_kernel(), 0.01) < 1e-8 * (1 + bump_kernel().mass)


def _bump_digest(build_first: str) -> str:
    code = ("import hashlib\n"
            "from redspectra.kernels import annihilator_kernel, bump_kernel\n"
            f"{build_first}\n"
            "s0, v = bump_kernel().time_samples(0.01)\n"
            "print(hashlib.sha256(v.tobytes()).hexdigest())\n")
    src = os.path.dirname(os.path.dirname(redspectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_bump_samples_independent_of_build_order():
    # the quadrature rule is shared: building a D-kernel first must not
    # change the bump's samples
    assert _bump_digest("annihilator_kernel(1.0)") == _bump_digest("pass")


def test_approximate_identity_mass_and_dilation():
    psi = bump_kernel()
    for n in (1, 2, 4):
        kn = approximate_identity(n)
        # unit mass: transform at 0
        assert abs(complex(kn.ft(np.array([0.0]))[0]) - 1.0) < 1e-8
        # dilation law: k_n^(w) = k_1^(w/n)
        w = np.linspace(-3, 3, 11)
        assert np.abs(np.asarray(kn.ft(w)) -
                      np.asarray(psi.ft(w / n))).max() < 1e-12


def test_approximate_identity_identity_case():
    assert approximate_identity(1) is bump_kernel()


# ---------------------------------------------------------------------------
# bandpass kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w0,delta", [(0.0, 1.0), (1.0, 0.5), (-2.0, 0.25)])
def test_bandpass_plateau_and_support(w0, delta):
    k = bandpass_kernel(w0, delta)
    tol = 1e-8 * (1 + k.mass)
    inner = np.linspace(w0 - delta, w0 + delta, 21)
    assert np.abs(np.asarray(k.ft(inner)) - 1.0).max() < tol
    outer = np.array([w0 - 3 * delta, w0 - 2 * delta, w0 + 2 * delta,
                      w0 + 3 * delta])
    assert np.abs(k.ft(outer)).max() < tol
    # plateau values are real in [0, 1] up to tolerance
    probe = np.linspace(w0 - 3 * delta, w0 + 3 * delta, 101)
    vals = np.asarray(k.ft(probe))
    assert np.abs(vals.imag).max() < 1e-14
    assert vals.real.min() > -tol and vals.real.max() < 1 + tol


def test_plateau_erf_matches_scipy():
    # the plateau's erf is the standard library's; scipy is only the oracle
    x = np.linspace(-12.0, 12.0, 480001)
    assert np.abs(_erf(x) - erf(x)).max() <= 2 * np.finfo(float).eps
    # called only where it is not +-1.0, it is still math.erf bit for bit
    assert np.array_equal(_erf(x), [math.erf(v) for v in x])


def test_bandpass_fourier_consistency_and_modulation():
    k0 = bandpass_kernel(0.0, 1.0)
    k1 = bandpass_kernel(1.5, 1.0)
    assert fourier_consistency_error(k1, 0.01) < 1e-8 * (1 + k1.mass)
    # modulating the centred kernel reproduces the shifted one
    s0, v0 = k0.time_samples(0.01)
    s1, v1 = k1.time_samples(0.01)
    assert s0 == s1
    t = s0 + 0.01 * np.arange(len(v0))
    assert np.abs(v0 * np.exp(1.5j * t) - v1).max() < 1e-14


# ---------------------------------------------------------------------------
# box / exponential kernels
# ---------------------------------------------------------------------------

def test_box_kernel_closed_form():
    b = box_kernel(0.5)
    assert abs(b.ft(np.array([0.0]))[0] - 1.0) < 1e-15
    w = np.array([0.7, -1.3, 4.0])
    expect = (np.exp(1j * w * 0.5) - 1) / (1j * w * 0.5)
    assert np.abs(b.ft(w) - expect).max() < 1e-15


def test_box_kernel_width_must_be_on_the_lattice():
    s0, vals = box_kernel(0.5).time_samples(0.01)
    assert len(vals) == 51 and np.all(vals == 2.0)
    with pytest.raises(GridError):
        box_kernel(0.505).time_samples(0.01)


def test_exp_kernel_closed_form_and_axis_exclusion():
    lam = 0.5 + 0.3j
    k = exp_kernel(lam)
    w = np.array([-1.0, 0.0, 2.0])
    assert np.abs(k.ft(w) - 1.0 / (lam + 1j * w)).max() < 1e-15
    with pytest.raises(DomainError):
        exp_kernel(1j * 2.0)
    # f_{-lam} = -reflect(f_lam): transforms match 1/(-lam + i w)
    neg = exp_kernel(-lam)
    assert np.abs(neg.ft(w) - 1.0 / (-lam + 1j * w)).max() < 1e-15


def test_reflected_exp_kernel_samples():
    k = reflected(exp_kernel(0.5))
    s0, vals = k.time_samples(0.01)
    t = s0 + 0.01 * np.arange(len(vals))
    assert t[-1] == 0.0
    # reflect(f_lam)(t) = exp(lam t) for t <= 0
    assert np.abs(vals - np.exp(0.5 * t)).max() < 1e-12


# ---------------------------------------------------------------------------
# annihilator and D-family bumps
# ---------------------------------------------------------------------------

def test_d_bump_compact_support_unit_mass():
    k = d_bump()
    assert abs(complex(k.ft(np.array([0.0]))[0]) - 1.0) < 1e-12
    t = np.array([-1.01, 1.01, 2.0])
    assert np.abs(k.time_fn(t)).max() == 0.0


def test_annihilator_transform_positive_where_promised():
    # Re f^(w) > 0 when cos(w s) keeps one sign on (0, a)
    for a, w in ((2.0, 0.5), (0.7, 2.0)):
        k = annihilator_kernel(a)
        assert complex(k.ft(np.array([w]))[0]).real > 0


def test_annihilator_fourier_consistency():
    k = annihilator_kernel(1.0)
    assert fourier_consistency_error(k, 0.005) < 1e-6


# ---------------------------------------------------------------------------
# Wiener division
# ---------------------------------------------------------------------------

def test_wiener_divide_bump_and_bandpass():
    K = (-0.5, 0.5)
    kk = np.linspace(*K, 201)
    for f in (bump_kernel(), bandpass_kernel(0.0, 1.0)):
        g = wiener_divide(f, K)
        err = np.abs(np.asarray(g.ft(kk)) * np.asarray(f.ft(kk)) - 1.0).max()
        assert err <= 1e-8
        assert np.isfinite(g.s_hi) and g.s_hi > 0


def test_wiener_divide_dividing_by_plateau_is_plateau():
    f = bandpass_kernel(0.0, 1.0)       # f^ = 1 on K already
    g = wiener_divide(f, (-0.5, 0.5))
    kk = np.linspace(-0.5, 0.5, 101)
    assert np.abs(np.asarray(g.ft(kk)) - 1.0).max() < 1e-8


def test_wiener_divide_rejects_vanishing_transform():
    # the box of width 2 pi / 0.3 has transform zero at w = 0.3, inside K
    f = box_kernel(2 * np.pi / 0.3)
    with pytest.raises(DivisionError_):
        wiener_divide(f, (-0.5, 0.5))


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_approximate_identity_dilation_property(n):
    kn = approximate_identity(n)
    assert kn.s_hi == pytest.approx(bump_kernel().s_hi / n)
    w = np.linspace(-1.5, 1.5, 7)
    assert np.abs(np.asarray(kn.ft(w)) -
                  np.asarray(bump_kernel().ft(w / n))).max() < 1e-12
