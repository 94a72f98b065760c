"""Single-signal corpus builds against the whole corpus."""

import numpy as np
import pytest
from scipy.special import fresnel

from redspectra import cli, corpus, signals
from redspectra.config import Config
from redspectra.corpus import BUILDERS, build_corpus, build_signal


def _fresnel_P(t):
    """P(t) = int_0^t exp(i s^2) ds via scipy's Fresnel integrals (oracle)."""
    s_, c_ = fresnel(np.abs(t) * np.sqrt(2.0 / np.pi))
    return np.sign(t) * np.sqrt(np.pi / 2.0) * (c_ + 1j * s_)


def _chirp_panels_whole(x):
    """The panels from one (steps, 12 q) node table over the whole lattice:
    the formula the row-blocked ``corpus._chirp_panels`` must reproduce."""
    xi, w = np.polynomial.legendre.leggauss(12)
    half = 0.5 * (x[1:] - x[:-1])
    q = max(1, int(np.ceil(4.0 * np.abs(x).max() * half.max()
                           / corpus._PANEL_PHASE)))
    nodes = ((2 * np.arange(q)[:, None] + 1 + xi) / q - 1).ravel()
    s = (0.5 * (x[1:] + x[:-1]))[:, None] + half[:, None] * nodes
    return half * (np.exp(1j * s * s) @ np.tile(w / q, q))


def test_row_blocked_chirp_panels_equal_the_whole_table():
    # a block holds WORK_BYTES // 192 steps at one piece per step: one
    # block, one block and a lone step, two blocks, and chirp_mollified's
    # full-line lattice; the last lattice takes 63 pieces per step
    rows = signals.WORK_BYTES // (16 * 12)
    cfg = Config()
    dt, T = cfg.dt, cfg.t_end
    tf = np.arange(-T, T + dt / 2, dt)
    lattices = [dt * np.arange(rows + 1), dt * np.arange(rows + 2),
                dt * np.arange(rows + 3), dt * np.arange(2 * rows + 2) - 10.0,
                np.concatenate([tf, tf[-1] + dt * np.arange(1, 101)]),
                np.linspace(-3.0, 500.0, 2001)]
    for x in lattices:
        assert np.array_equal(corpus._chirp_panels(x), _chirp_panels_whole(x)), len(x)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("seed", [None, 3])
def test_single_builds_equal_corpus_entries(seed):
    cfg = Config() if seed is None else Config(corpus_seed=seed)
    corpus = build_corpus(cfg)
    assert list(corpus) == list(BUILDERS) and len(corpus) == 16
    w = np.linspace(-3.0, 3.0, 13)
    for name, entry in corpus.items():
        one = build_signal(name, cfg)
        for rec in ("half", "full"):
            a, b = getattr(entry, rec), getattr(one, rec)
            assert (a is None) == (b is None), (name, rec)
            if a is not None:
                assert (a.domain, a.t0, a.dt, a.growth_exponent) == \
                    (b.domain, b.t0, b.dt, b.growth_exponent)
                assert _same(a.values, b.values), (name, rec)
        assert (one.name, one.description, one.expectations, one.meta) == \
            (entry.name, entry.description, entry.expectations, entry.meta)
        assert [k.kernel_id for k in one.extra_kernels] == \
            [k.kernel_id for k in entry.extra_kernels]
        if entry.ft_closed_form is not None:
            assert _same(one.ft_closed_form(w), entry.ft_closed_form(w))


def test_synth_builds_only_its_signal(tmp_path, monkeypatch):
    def whole_corpus(*args, **kwargs):
        raise AssertionError("synth built the whole corpus")
    monkeypatch.setattr(corpus, "build_corpus", whole_corpus)
    assert cli.main(["synth", "so_composite", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "so_composite.csv").exists()


def test_so_composite_noise_is_the_seeded_draw():
    cfg = Config(corpus_seed=3)
    sig = build_signal("so_composite", cfg).half
    t = sig.times
    draw = np.random.default_rng(3).standard_normal(len(t))
    noise = np.where(t < 10.0, 0.5 * draw, 0.0)
    assert _same(sig.values[:, 0], (np.sin(t) + noise).astype(complex))


def test_half_line_records_start_at_zero_with_every_sample():
    # a half-line record holds t = 0, dt, ..., t_end; chirp_mollified's
    # samples are M_1 exp(i t^2)(t) = P(t + 1) - P(t), P from the Fresnel
    # integrals, at those labelled times
    cfg = Config()
    for name, entry in build_corpus(cfg).items():
        if entry.half is not None:
            assert entry.half.n == round(cfg.t_end / cfg.dt) + 1, name
    F = build_signal("chirp_mollified", cfg).half
    t = F.times
    ref = _fresnel_P(t + 1.0) - _fresnel_P(t)
    assert np.abs(F.values[:, 0] - ref).max() < 1e-8


@pytest.mark.parametrize("dt", [0.01, 0.05])
def test_chirp_mollified_matches_the_fresnel_difference(dt):
    # M_1 exp(i t^2)(t) = P(t + 1) - P(t) at every labelled time of the
    # full-line record; 1e-12 sits above the rounding of the phase s^2,
    # one ulp of which is about 7e-12 rad at |s| = 200.  At dt = 0.05 a
    # lattice step turns up to 20 rad of phase and is cut into pieces.
    cfg = Config(dt=dt)
    T, km = cfg.t_end, round(1.0 / dt)
    tf = np.arange(-T, T + dt / 2, dt)
    P = _fresnel_P(np.concatenate([tf, tf[-1] + dt * np.arange(1, km + 1)]))
    F = build_signal("chirp_mollified", cfg).full
    assert F.n == len(tf)
    assert np.abs(F.values[:, 0] - (P[km:] - P[:-km])).max() <= 1e-12
