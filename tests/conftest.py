import numpy as np
import pytest

from redspectra.config import Config
from redspectra.corpus import build_corpus
from redspectra.signals import Domain, SampledSignal
from redspectra.theorems import run_all


@pytest.fixture(scope="session")
def cfg():
    return Config()


@pytest.fixture(scope="session")
def corpus(cfg):
    return build_corpus(cfg)


@pytest.fixture(scope="session")
def builtin_results():
    # the default roster of ``verify --builtin``, run once per session
    return run_all(Config())


@pytest.fixture(scope="session")
def short_cfg():
    # cheap grids for unit tests that only probe mechanics
    return Config(t_end=120.0, grid_min=-2.5, grid_max=2.5, grid_step=0.25)


def make_half(fn, t_end=200.0, dt=0.01, k=0):
    t = np.arange(0.0, t_end + dt / 2, dt)
    return SampledSignal(Domain.HALF_LINE, 0.0, dt, fn(t), k)


def make_full(fn, t_end=200.0, dt=0.01, k=0):
    t = np.arange(-t_end, t_end + dt / 2, dt)
    return SampledSignal(Domain.FULL_LINE, -t_end, dt, fn(t), k)
