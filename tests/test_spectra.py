from operator import is_not

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redspectra import spectra, theorems
from redspectra.classes import FunctionClass, Tri, detect
from redspectra.config import Config
from redspectra.errors import (ConfigError, DomainError, GridError,
                               RedSpectraError)
from redspectra.io_utils import canonical_json
from redspectra.kernels import annihilator_kernel, bandpass_kernel
from redspectra.signals import Domain, SampledSignal, extend_by_zero, modulate
from redspectra.spectra import (FrequencyGrid, RegStatus, ReducedScanner,
                                carleman_spectrum, laplace_spectrum,
                                reduced_spectrum, weak_laplace_spectrum)
from redspectra.transforms import TransformScanner, half_plane_scan

from conftest import make_full, make_half
from oracles import box_kernel, extension_comparison

CFG = Config()
GRID = FrequencyGrid.from_config(CFG)
SMALL = FrequencyGrid(-2.0, 2.0, 0.25)


def statuses_near(est, omega, radius):
    return [c.status for w, c in zip(est.grid.values(), est.certificates)
            if abs(w - omega) <= radius + 1e-9]


# ---------------------------------------------------------------------------
# regularity tester
# ---------------------------------------------------------------------------

def test_pure_tone_zero_class_certificates():
    F = make_full(lambda t: np.exp(1j * 1.0 * t))
    sc = ReducedScanner(F, SMALL.values(), CFG)
    at_pole = sc.test_regular(1.0, FunctionClass.ZERO)
    away = sc.test_regular(-1.5, FunctionClass.ZERO)
    assert at_pole.status is RegStatus.SINGULAR
    assert away.status is RegStatus.REGULAR
    assert away.kernel_id and away.kernel_ft_abs >= 0.5


def test_regular_certificate_records_class_report():
    F = make_half(lambda t: np.exp(-t), t_end=120.0)
    cert = ReducedScanner(F, np.array([0.5]), CFG).test_regular(
        0.5, FunctionClass.C0)
    assert cert.status is RegStatus.REGULAR
    assert "class_report" in cert.evidence


def test_expgrow_regular_via_registered_annihilators():
    dt = 0.01
    te = np.arange(-5.0, 10.0 + dt / 2, dt)
    F = SampledSignal(Domain.FULL_LINE, -5.0, dt, np.exp(te), 8)
    ann = tuple(annihilator_kernel(a) for a in (2.0, 1.0, 0.5))
    for w in (0.0, 1.0, 2.0):
        cert = ReducedScanner(F, np.array([w]), CFG, ann).test_regular(
            w, FunctionClass.C0)
        assert cert.status is RegStatus.REGULAR
        assert cert.evidence.get("registered")


@pytest.mark.parametrize("name", ["exp_iw1", "ap_sum"])
def test_scan_equals_per_point_test_regular(corpus, name):
    # the rung-major scan over a grid of three column blocks gives the
    # certificates of one-point tests on a fresh scanner
    F = corpus[name].half
    grid = FrequencyGrid(-1.0, 3.0, 0.125)
    c0 = reduced_spectrum(F, FunctionClass.C0, grid, CFG)
    for cls, cands in ((FunctionClass.C0, None),
                       (FunctionClass.AAP, c0.singular_clusters())):
        est = reduced_spectrum(F, cls, grid, CFG, candidates=cands)
        sc = ReducedScanner(F, grid.values(), CFG)
        loop = [sc.test_regular(w, cls, cands) for w in grid.values()]
        assert [canonical_json(c.to_dict()) for c in est.certificates] == \
            [canonical_json(c.to_dict()) for c in loop]


def test_chirp_band_output_has_no_alias_no(corpus):
    # exp(i t^2) has instantaneous frequency 2t: it crosses 157 rad/s
    # (2 pi / 0.04) at t = 78.5, where a quadrature lattice of step 0.04
    # would fold it into the band around omega = 1; the dt-lattice sum
    # decays there, so the C0 detector finds no NO
    sc = ReducedScanner(corpus["chirp"].half, GRID.values(), CFG)
    sig, trunc = sc.band_output(1.0, sc.index_of(1.0))
    rep = detect(FunctionClass.C0, sig, CFG, sc.scale_ref, trunc)
    assert rep.member is not Tri.NO, rep.evidence


def _broadband(t):
    """A tone in the band, one at 157.1 rad/s (near 2 pi / 0.04) and
    seeded white noise up to the Nyquist frequency 314 rad/s."""
    noise = np.random.default_rng(7).standard_normal((len(t), 2))
    return np.stack([np.exp(1j * t) + np.exp(157.1j * t),
                     noise[:, 0] + 1j * noise[:, 1]], axis=1)


@pytest.mark.parametrize("domain", ["half", "full"])
def test_band_columns_are_the_dt_lattice_sums(domain):
    # every rung's columns against the direct trapezoid sum at step dt of
    # the uncut modulated kernel over the whole record, zero beyond it
    F = (make_half(_broadband, t_end=240.0) if domain == "half"
         else make_full(_broadband, t_end=200.0))
    omegas = np.array([-4.0, 1.0, 4.9])
    sc = ReducedScanner(F, omegas, CFG)
    sup = F.sup_norm()
    for delta in CFG.delta_seq:
        plan = sc._band_geometry(delta)
        cols = sc._band_columns(delta, range(len(omegas)))
        kern = bandpass_kernel(0.0, delta)
        rows = np.arange(0, len(cols[0]), 37)
        for j, w in enumerate(omegas):
            t_out = plan.t0 + plan.step * rows
            lags = t_out[:, None] - F.times[None, :]
            want = F.dt * (kern.time_fn(lags) * np.exp(1j * w * lags)) @ F.values
            err = np.abs(cols[j][rows] - want).max()
            assert err <= plan.trunc + 1e-12 * sup, (delta, w, err)


def test_detector_error_makes_only_its_point_undecided(monkeypatch):
    F = make_half(lambda t: np.exp(1j * t))
    plain = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    detect, calls = spectra.detect, []

    def flaky(*args, **kwargs):
        # rung 0 runs the detector on the grid points in order
        calls.append(None)
        if len(calls) == 4:
            raise RedSpectraError("detector failed")
        return detect(*args, **kwargs)

    monkeypatch.setattr(spectra, "detect", flaky)
    est = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    for j, (a, b) in enumerate(zip(plain.certificates, est.certificates)):
        if j == 3:
            assert b.status is RegStatus.UNDECIDED
            assert b.evidence == {"reasons": ["detector failed"]}
        else:
            assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())


def test_package_error_at_one_point_is_its_only_reason(monkeypatch):
    # a package error that is neither a truncation nor a horizon refusal,
    # raised while rung 0 restricts the sixth grid point's band output,
    # ends that point's test; the others keep an unpatched scan's
    # certificates
    F = make_half(lambda t: np.exp(1j * t))
    plain = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    exc = DomainError("restriction failed at one point")
    restricted, calls = ReducedScanner._restricted, []

    def flaky(self, plan, vals):
        calls.append(None)
        if len(calls) == 6:
            raise exc
        return restricted(self, plan, vals)

    monkeypatch.setattr(ReducedScanner, "_restricted", flaky)
    est = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    for j, (a, b) in enumerate(zip(plain.certificates, est.certificates)):
        if j == 5:
            assert b.status is RegStatus.UNDECIDED
            assert b.evidence == {"reasons": [str(exc)]}
        else:
            assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())


def test_package_error_of_a_rung_fails_its_open_points(monkeypatch):
    # the band columns of rung delta = 0.5 raise: every point still open
    # there is UNDECIDED with the error as its only reason, and the points
    # rung 1.0 decided keep their certificates
    F = make_half(lambda t: np.exp(1j * t))
    plain = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    exc = DomainError("band columns failed")
    real, open_at = ReducedScanner._band_columns, []

    def flaky(self, delta, idx):
        if delta == 0.5:
            open_at.extend(idx)
            raise exc
        return real(self, delta, idx)

    monkeypatch.setattr(ReducedScanner, "_band_columns", flaky)
    est = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    assert 0 < len(open_at) < SMALL.n
    for j, (a, b) in enumerate(zip(plain.certificates, est.certificates)):
        if j in open_at:
            assert b.status is RegStatus.UNDECIDED
            assert b.evidence == {"reasons": [str(exc)]}
        else:
            assert a.status is RegStatus.REGULAR
            assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())


def test_grid_step_must_divide_the_span():
    with pytest.raises(ConfigError, match="does not divide"):
        FrequencyGrid(-5.0, 5.0, 0.3)
    with pytest.raises(ConfigError, match="does not divide"):
        FrequencyGrid(-5.0, 5.0, 1e-320)        # 10 / step overflows
    grid = FrequencyGrid(-5.0, 5.0, 0.1)
    assert grid.n == 101 and np.allclose(np.diff(grid.values()), 0.1)


def test_lp_signal_has_empty_c0_spectrum():
    F = make_half(lambda t: np.exp(1j * t) / (1.0 + t))
    est = reduced_spectrum(F, FunctionClass.C0, GRID, CFG)
    assert all(c.status is RegStatus.REGULAR for c in est.certificates)


def test_zero_signal_trivially_regular():
    F = make_half(lambda t: np.zeros_like(t), t_end=60.0)
    est = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    assert all(c.status is RegStatus.REGULAR for c in est.certificates)


# ---------------------------------------------------------------------------
# transform spectra on closed-form signals
# ---------------------------------------------------------------------------

def _circle_errors_node_by_node(sc, a):
    """The Cauchy-circle reconstruction as 64 + 1 separate evaluations."""
    n = spectra.CIRCLE_N
    r = spectra.CIRCLE_RADIUS * a
    theta = 2 * np.pi * np.arange(n) / n
    zeta = a + r * np.exp(1j * theta)
    weights = (r * np.exp(1j * theta)) / (zeta - 0.5 * a) / n
    recon = sum(w * sc.right_values(z) for w, z in zip(weights, zeta))
    return np.linalg.norm(recon - sc.right_values(0.5 * a), axis=1)


@pytest.mark.parametrize("name", ["exp_iw1", "chirp"])
def test_circle_errors_match_node_by_node_reconstruction(corpus, name):
    F, omegas = corpus[name].half, GRID.values()
    hp = half_plane_scan(F, omegas, CFG)
    sc = TransformScanner(F, omegas, CFG)
    for a in hp.a_seq[-2:]:
        got = spectra._cauchy_circle_errors(sc, a)
        ref = _circle_errors_node_by_node(sc, a)
        assert np.max(np.abs(got - ref)) <= 1e-12 * hp.scale


def test_laplace_spectrum_pole_and_entire():
    pole = laplace_spectrum(make_half(lambda t: np.exp(1j * t)), GRID, CFG)
    assert all(s is RegStatus.SINGULAR for s in statuses_near(pole, 1.0, 0.25))
    outside = [c.status for w, c in zip(GRID.values(), pole.certificates)
               if abs(w - 1.0) > 1.0]
    assert all(s is RegStatus.REGULAR for s in outside)
    ent = laplace_spectrum(make_half(lambda t: np.exp(-t)), GRID, CFG)
    assert all(c.status is RegStatus.REGULAR for c in ent.certificates)


def test_carleman_spectrum_sinc_band():
    F = make_full(lambda t: np.where(t == 0, 1.0,
                                     np.sin(np.where(t == 0, 1, t)) /
                                     np.where(t == 0, 1, t)))
    est = carleman_spectrum(F, GRID, CFG)
    sing = est.singular_set()
    assert sing.min() >= -1.0 - 1e-9 and sing.max() <= 1.0 + 1e-9
    assert len(sing) == 21          # every grid point of [-1, 1]
    far = [c.status for w, c in zip(GRID.values(), est.certificates)
           if abs(w) >= 1.6]
    assert all(s is RegStatus.REGULAR for s in far)


def test_weak_laplace_pole_window():
    est = weak_laplace_spectrum(make_half(lambda t: np.exp(1j * t)), GRID, CFG)
    assert all(s is RegStatus.SINGULAR for s in statuses_near(est, 1.0, 0.2))
    ent = weak_laplace_spectrum(make_half(lambda t: np.exp(-t)), GRID, CFG)
    assert all(c.status is RegStatus.REGULAR for c in ent.certificates)


def test_modulation_shift_relation():
    F = make_full(lambda t: np.exp(1j * 0.5 * t), t_end=120.0)
    base = reduced_spectrum(F, FunctionClass.C0,
                            FrequencyGrid(-3.0, 3.0, 0.25), CFG)
    mod = reduced_spectrum(modulate(F, 1.0), FunctionClass.C0, SMALL, CFG)
    assert theorems.status_breaks(base, mod, is_not, 1.0) == []


#: 200 s half-line records: up to two tones (frequency, modulus, phase)
#: and an optional decaying exp(-a t)
_TONE_RECORDS = st.tuples(
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 2.0),
                       st.floats(0.0, 2.0 * np.pi)), max_size=2),
    st.none() | st.floats(0.05, 2.0))


def _tone_record(tones, decay):
    def fn(t):
        x = np.zeros(len(t), complex)
        for nu, modulus, phase in tones:
            x += modulus * np.exp(1j * (nu * t + phase))
        if decay is not None:
            x += np.exp(-decay * t)
        return x
    return make_half(fn)


def _flips(a, b):
    """One status REGULAR, the other SINGULAR."""
    return {a, b} == {RegStatus.REGULAR, RegStatus.SINGULAR}


@settings(max_examples=10, deadline=None)
@given(_TONE_RECORDS, st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi))
def test_scaling_by_a_complex_constant_keeps_every_status(record, log_c, arg):
    # sp(c F) = sp(F) for c != 0, |c| from 1e-3 to 1e3
    F = _tone_record(*record)
    c = 10.0 ** log_c * np.exp(1j * arg)
    cF = SampledSignal(Domain.HALF_LINE, 0.0, F.dt, c * F.values)
    assert theorems.status_breaks(theorems._c0(F, CFG),
                                  theorems._c0(cF, CFG), is_not) == []


@settings(max_examples=10, deadline=None)
@given(_TONE_RECORDS, st.integers(-8, 8))
def test_modulation_shifts_the_spectrum(record, k):
    # sp(gamma_lam F) = sp(F) + lam for grid-aligned lam; a status may
    # turn UNDECIDED but never flip between REGULAR and SINGULAR
    F = _tone_record(*record)
    lam = 0.25 * k
    assert theorems.status_breaks(theorems._c0(F, CFG, abs(lam)),
                                  theorems._c0(modulate(F, lam), CFG),
                                  _flips, lam) == []


@settings(max_examples=10, deadline=None)
@given(_TONE_RECORDS)
def test_conjugation_mirrors_the_statuses(record):
    # sp(conj F) = -sp(F); the grid is symmetric about 0
    grid = theorems._SMALL_GRID.values()
    assert np.array_equal(grid, -grid[::-1])
    F = _tone_record(*record)
    conj = SampledSignal(Domain.HALF_LINE, 0.0, F.dt, F.values.conj())
    assert [c.status for c in theorems._c0(conj, CFG).certificates] == \
        [c.status for c in theorems._c0(F, CFG).certificates][::-1]


def test_extension_comparison_agrees_up_to_undecided():
    H = make_full(lambda t: np.exp(1j * t), t_end=120.0)
    out = extension_comparison(H, FunctionClass.C0, SMALL, CFG)
    assert out["definite_disagreements"] == []
    # "restricted" is the half-line record, zero-extended by the engine
    half = make_half(lambda t: np.exp(1j * t), t_end=120.0)
    assert theorems.status_breaks(out["restricted"], reduced_spectrum(
        half, FunctionClass.C0, SMALL, CFG), is_not) == []
    # a record whose lattice misses t = 0 has no half-line restriction
    off = SampledSignal(Domain.FULL_LINE, -10.005, 0.01,
                        np.exp(1j * np.arange(-10.005, 10.0, 0.01)))
    with pytest.raises(GridError):
        extension_comparison(off, FunctionClass.C0, SMALL, CFG)


def test_estimate_serialization_and_clusters():
    F = make_half(lambda t: np.exp(1j * t))
    est = laplace_spectrum(F, GRID, CFG)
    d = est.to_dict()
    assert d["kind"] == "laplace" and len(d["status"]) == GRID.n
    clusters = est.singular_clusters()
    assert len(clusters) == 1
    c, hw = clusters[0]
    assert abs(c - 1.0) < 0.15 and hw <= 0.5
    rows = est.plot_rows()
    assert len(rows) == GRID.n and all(len(r) == 3 for r in rows)


def test_status_breaks_rejects_a_shift_off_the_base_grid():
    F = make_half(lambda t: np.exp(-t), t_end=60.0)
    est = laplace_spectrum(F, SMALL, CFG)
    for shift in (0.25, -1.0, 5.0):
        with pytest.raises(ValueError):
            theorems.status_breaks(est, est, is_not, shift)


def test_box_augmented_search_only_adds_regularity():
    # adding L1 kernels to the search can only certify more regular points,
    # and the singular core stays singular
    F = make_full(lambda t: np.exp(1j * t))
    # h close to 2 pi: the box transform nearly vanishes at the pole, so
    # the box cannot certify regularity there but can elsewhere
    sc = ReducedScanner(F, SMALL.values(), CFG,
                        extra_kernels=(box_kernel(6.28),))
    plain = reduced_spectrum(F, FunctionClass.C0, SMALL, CFG)
    for w, c0 in zip(SMALL.values(), plain.certificates):
        aug = sc.test_regular(w, FunctionClass.C0)
        if c0.status is RegStatus.REGULAR:
            assert aug.status is RegStatus.REGULAR
        if abs(w - 1.0) <= 0.1:
            assert aug.status is RegStatus.SINGULAR


# ---------------------------------------------------------------------------
# the shared certificate path of the transform engines
# ---------------------------------------------------------------------------

SHORT = Config(t_end=120.0, grid_min=-2.5, grid_max=2.5, grid_step=0.25)


@pytest.mark.parametrize("fn", [lambda t: np.exp(1j * t),
                                lambda t: np.exp(-t) + np.cos(2.0 * t)])
def test_shared_scan_gives_the_standalone_estimates(fn):
    F = make_half(fn, t_end=120.0)
    grid = FrequencyGrid.from_config(SHORT)
    alone = [laplace_spectrum(F, grid, SHORT),
             weak_laplace_spectrum(F, grid, SHORT),
             carleman_spectrum(extend_by_zero(F), grid, SHORT)]
    an = spectra.SignalAnalysis(F, SHORT)
    # either transform estimate may come first from the shared scan
    an_rev = spectra.SignalAnalysis(F, SHORT)
    an_rev.weak_laplace()
    for a in (an, an_rev):
        shared = [a.laplace(), a.weak_laplace(), a.carleman()]
        for s, e in zip(shared, alone):
            assert canonical_json(s.to_dict()) == canonical_json(e.to_dict())


def test_zero_records_give_the_trivial_estimate():
    half = make_half(lambda t: np.zeros_like(t), t_end=60.0)
    full = make_full(lambda t: np.zeros_like(t), t_end=60.0)
    reduced = reduced_spectrum(half, FunctionClass.C0, SMALL, CFG)
    estimates = [laplace_spectrum(half, SMALL, CFG),
                 weak_laplace_spectrum(half, SMALL, CFG),
                 carleman_spectrum(extend_by_zero(half), SMALL, CFG),
                 carleman_spectrum(full, SMALL, CFG)]
    for est in estimates:
        assert est.meta == {"trivial": True}
        # the certificate of the reduced scanner's zero record
        assert [canonical_json(c.to_dict()) for c in est.certificates] == \
            [canonical_json(c.to_dict()) for c in reduced.certificates]
    # the domain check comes first
    for engine in (laplace_spectrum, weak_laplace_spectrum):
        with pytest.raises(RedSpectraError, match="half-line"):
            engine(full, SMALL, CFG)
    with pytest.raises(RedSpectraError, match="full-line"):
        carleman_spectrum(half, SMALL, CFG)
