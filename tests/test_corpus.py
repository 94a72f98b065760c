"""Single-signal corpus builds against the whole corpus."""

import numpy as np
import pytest

from redspectra import cli
from redspectra.config import Config
from redspectra.corpus import BUILDERS, build_corpus, build_signal


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
    monkeypatch.setattr(cli, "build_corpus", whole_corpus)
    assert cli.main(["synth", "so_composite", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "so_composite.csv").exists()


def test_so_composite_noise_is_the_seeded_draw():
    cfg = Config(corpus_seed=3)
    sig = build_signal("so_composite", cfg).half
    t = sig.times
    draw = np.random.default_rng(3).standard_normal(len(t))
    noise = np.where(t < 10.0, 0.5 * draw, 0.0)
    assert _same(sig.values[:, 0], (np.sin(t) + noise).astype(complex))
