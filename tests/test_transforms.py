import numpy as np
import pytest

from redspectra.config import Config
from redspectra.errors import DomainError, TailError
from redspectra.signals import Domain, SampledSignal
from redspectra.transforms import (TransformScanner,
                                   carleman_as_convolution_residual,
                                   carleman_transform, half_plane_scan,
                                   laplace_transform, lattice_exp_sum,
                                   mollify_identity_residual,
                                   shift_identity_residual, tail_bound)

from conftest import make_full, make_half

CFG = Config()


def test_laplace_closed_forms():
    F = make_half(lambda t: np.exp(1j * t))
    for lam in (0.5, 0.3 + 0.7j, 1.0 - 0.2j):
        val = laplace_transform(F, lam, CFG)[0]
        assert abs(val - 1.0 / (lam - 1j)) < 1e-4
    Z = make_half(lambda t: np.zeros_like(t))
    assert abs(laplace_transform(Z, 0.5, CFG)[0]) == 0.0


def test_laplace_domain_and_tail_errors():
    F = make_half(lambda t: np.exp(1j * t))
    with pytest.raises(DomainError):
        laplace_transform(F, 1j * 0.5, CFG)
    with pytest.raises(DomainError):
        laplace_transform(F, -0.5, CFG)
    short = make_half(lambda t: np.ones_like(t), t_end=40.0)
    with pytest.raises(TailError):
        laplace_transform(short, 0.01, CFG)


def test_carleman_two_half_planes():
    G = make_full(lambda t: np.exp(1j * t))
    for a in (0.5, 0.2):
        r = carleman_transform(G, a, CFG)[0]
        l = carleman_transform(G, -a, CFG)[0]
        assert abs(r - 1.0 / (a - 1j)) < 1e-4
        assert abs(l - 1.0 / (-a - 1j)) < 1e-4
    with pytest.raises(DomainError):
        carleman_transform(G, 1j)
    with pytest.raises(DomainError):
        carleman_transform(make_half(lambda t: np.exp(1j * t)), 0.5)


def test_growth_aware_tail_bound_monotone():
    F = make_half(lambda t: np.ones_like(t))
    assert tail_bound(F, 0.4) < tail_bound(F, 0.1)
    G = make_half(lambda t: t * np.exp(1j * t * t), k=1)
    assert tail_bound(G, 0.1) > tail_bound(F, 0.1)


def _trapezoid_geometric(z, N, dt):
    """dt * (sum_{k<=N} z^k - (1 + z^N)/2): the trapezoid sum of z^k."""
    zN = z ** N
    return dt * ((1.0 - zN * z) / (1.0 - z) - 0.5 * (1.0 + zN))


def _max_rel_gap(vals, ref):
    return np.max(np.abs(vals - ref)) / np.max(np.abs(ref))


def test_half_plane_scan_shapes_and_scale():
    omegas = np.linspace(-5, 5, 101)
    dt = 0.01
    F = make_half(lambda t: np.exp(1j * t))
    hp = half_plane_scan(F, omegas, CFG)
    assert hp.right.shape == (len(hp.a_seq), 101, 1)
    assert hp.left is None
    assert 0.3 < hp.scale < 0.5
    # right values of exp(i t): z = exp(-(a + i(w - 1)) dt) per sample
    for a, vals in zip(hp.a_seq, hp.right[:, :, 0]):
        ref = _trapezoid_geometric(np.exp(-(a + 1j * (omegas - 1.0)) * dt),
                                   F.n - 1, dt)
        assert _max_rel_gap(vals, ref) < 1e-10
    # exp(i t) on the exact lattice t = k dt, |k| <= 20000 (np.arange from
    # -200 drifts by 2e-10 at t = 0, which the closed form would see)
    G = SampledSignal(Domain.FULL_LINE, -200.0, dt,
                      np.exp(1j * dt * np.arange(-20000, 20001)), 0)
    hp2 = half_plane_scan(G, omegas, CFG)
    assert hp2.left is not None
    # left values -int exp(-(a - i w) u) exp(-i u) du over [0, 200]
    for a, vals in zip(hp2.a_seq, hp2.left[:, :, 0]):
        ref = -_trapezoid_geometric(np.exp(-(a - 1j * (omegas - 1.0)) * dt),
                                    20000, dt)
        assert _max_rel_gap(vals, ref) < 1e-10


def _dense_product(omegas, u, damping, vals, dt, left):
    """The trapezoid sum with the dense modulation matrix exp(-+i w u)."""
    n = len(vals)
    w = np.full(n, dt)
    w[0] = w[-1] = dt / 2
    E = np.exp((1j if left else -1j) * np.outer(omegas, u[:n]))
    return E @ ((damping[:n] * w)[:, None] * vals)


# (samples on u >= 0, samples on u <= 0, channels): m = ceil(sqrt(n)) for
# the longer side n; 1000 and 1057 are not multiples of m and lie below
# m^2, 1024 = 32^2, and the shorter side uses fewer outer blocks
@pytest.mark.parametrize("n_right,n_left,d", [
    (1000, 1000, 1), (1057, 700, 2), (1024, 1024, 2), (300, 1000, 1),
    (2, 2, 1), (2, 1, 2)])
def test_factored_product_matches_dense(n_right, n_left, d):
    dt = 0.01
    rng = np.random.default_rng(n_right + 7 * n_left + d)
    vals = (rng.standard_normal((n_left + n_right - 1, d))
            + 1j * rng.standard_normal((n_left + n_right - 1, d)))
    F = SampledSignal(Domain.FULL_LINE, -(n_left - 1) * dt, dt, vals, 0,
                      trusted=True)
    omegas = np.linspace(-5, 5, 101)
    sc = TransformScanner(F, omegas, CFG)
    assert len(sc.u) == max(n_right, n_left)
    damping = np.exp(-(0.05 + 0.3j) * sc.u)
    sides = ((False, vals[n_left - 1:]), (True, vals[n_left - 1::-1]))
    for left, side in sides:
        ref = _dense_product(omegas, sc.u, damping, side, dt, left)
        got = sc.product(damping, left=left)
        assert got.shape == (101, d)
        assert _max_rel_gap(got, ref) < 1e-13


def test_circle_damping_matches_dense():
    dt, n = 0.01, 20001
    u = dt * np.arange(n)
    theta = 2 * np.pi * np.arange(CFG.circle_nodes) / CFG.circle_nodes
    for a in (0.4, 0.05):
        r = CFG.circle_radius_factor * a
        zeta = a + r * np.exp(1j * theta)
        weights = r * np.exp(1j * theta) / (zeta - 0.5 * a) / len(theta)
        ref = weights @ np.exp(-np.outer(zeta, u))
        got = lattice_exp_sum(weights, zeta, n, dt)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) < 1e-15


def test_tail_inadmissible_abscissae_are_dropped():
    # growth exponent 1 makes the smallest abscissae meaningless
    G = make_half(lambda t: t * np.exp(1j * t * t), k=1)
    hp = half_plane_scan(G, np.linspace(-2, 2, 41), CFG)
    assert len(hp.a_seq) >= 3
    assert min(hp.a_seq) > 0.025 - 1e-12


@pytest.mark.parametrize("fn", [lambda t: np.exp(-t),
                                lambda t: np.exp(1j * t),
                                lambda t: np.exp(1j * t * t)])
def test_shift_and_mollify_identities(fn):
    F = make_half(fn)
    for lam in (0.05 + 0.3j, 0.2 - 0.8j, 0.5):
        assert shift_identity_residual(F, 2.0, lam) < 1e-10
        assert mollify_identity_residual(F, 1.0, lam) < 1e-4


def test_carleman_as_convolution():
    phi = make_full(lambda t: np.exp(1j * t), t_end=120.0)
    for lam in (0.5, -0.5, 0.4 + 0.3j, -0.4 + 0.3j):
        assert carleman_as_convolution_residual(
            phi, lam, [0.0, 5.0, -5.0], CFG) < 1e-6
