"""Built-in synthetic corpus.

Each entry generates half-line and/or full-line records of a named signal
together with machine-checkable expectations.  Every expectation carries a
provenance tag:

* "literature"   - a behaviour established analytically elsewhere,
* "closed-form"  - derived here from an explicit formula or independent
                   quadrature oracle,
* "construction" - true by the way the signal is built.

The chirp's sliding averages are exact to rounding: each sample sums
Gauss-Legendre panels of exp(i s^2), one per lattice step, so the
mollified-chirp entries carry no error from the engine's own trapezoid
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import Config, DEFAULT, lattice_size
from .kernels import annihilator_kernel, d_bump
from .signals import Domain, SampledSignal, row_slices, span_steps

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class CorpusSignal:
    name: str
    description: str
    half: SampledSignal | None
    full: SampledSignal | None
    expectations: tuple = ()
    extra_kernels: tuple = ()      # registered annihilators etc.
    ft_closed_form: object = None  # F^ callable when known integrable
    meta: dict = field(default_factory=dict)


def _half(vals, dt, k=0):
    return SampledSignal(Domain.HALF_LINE, 0.0, dt, vals, k)


def _full(vals, dt, t0, k=0):
    return SampledSignal(Domain.FULL_LINE, t0, dt, vals, k)


_PANEL_PHASE = 8.0   # rad of exp(i s^2) phase per Gauss-Legendre piece


def _chirp_panels(x):
    """int_{x_j}^{x_{j+1}} exp(i s^2) ds for each step of the lattice x.

    Each step is cut into q equal pieces, q the least count that keeps the
    phase turn 2 |s| ds of a piece within ``_PANEL_PHASE`` rad (one piece
    per step on the default lattice), and each piece takes the 12-point
    Gauss-Legendre rule, exact to degree 23: its error is then below the
    rounding of the phase s^2 itself.  The steps are taken in row blocks,
    so the node table never spans the whole lattice.
    """
    xi, w = np.polynomial.legendre.leggauss(12)
    half = 0.5 * (x[1:] - x[:-1])
    mid = 0.5 * (x[1:] + x[:-1])
    q = max(1, math.ceil(4.0 * np.abs(x).max() * half.max() / _PANEL_PHASE))
    nodes = ((2 * np.arange(q)[:, None] + 1 + xi) / q - 1).ravel()
    weights = np.tile(w / q, q)
    out = np.empty(len(half), complex)
    for r in row_slices(len(half), 16 * len(nodes)):
        s = mid[r, None] + half[r, None] * nodes
        out[r] = half[r] * (np.exp(1j * s * s) @ weights)
    return out


def exp_tag(statement, source, **params):
    return {"statement": statement, "source": source, **params}


def _lattices(cfg: Config) -> tuple:
    """(dt, T, half-line times [0, T], full-line times [-T, T]): the
    arguments every builder takes after ``cfg``."""
    dt, T = cfg.dt, cfg.t_end
    lattice_size(2 * T, dt, "the full-line records")
    return (dt, T, np.arange(0.0, T + dt / 2, dt),
            np.arange(-T, T + dt / 2, dt))


def _sinc(x):
    return np.where(x == 0, 1.0,
                    np.sin(np.where(x == 0, 1, x)) / np.where(x == 0, 1, x))


def _zero(cfg, dt, T, t, tf):
    return CorpusSignal(
        "zero", "identically zero",
        _half(np.zeros_like(t), dt), _full(np.zeros_like(tf), dt, -T),
        (exp_tag("all spectra empty", "construction"),),
        ft_closed_form=lambda w: np.zeros_like(np.asarray(w, float)))


def _const(cfg, dt, T, t, tf):
    return CorpusSignal(
        "const", "constant 1",
        _half(np.ones_like(t), dt), _full(np.ones_like(tf), dt, -T),
        (exp_tag("spectra concentrate at 0", "closed-form", poles=[0.0]),
         exp_tag("ergodic with mean 1", "construction")),
        meta={"poles": [0.0], "bounded": True})


def _pure_exp(name, w0):
    def build(cfg, dt, T, t, tf):
        return CorpusSignal(
            name, f"pure exponential exp(i {w0:g} t)",
            _half(np.exp(1j * w0 * t), dt), _full(np.exp(1j * w0 * tf), dt, -T),
            (exp_tag("all spectra = {w0}", "closed-form", poles=[w0]),
             exp_tag("almost periodic", "construction")),
            meta={"poles": [w0], "bounded": True, "ap_freqs": [w0]})
    return build


def _decay_exp(cfg, dt, T, t, tf):
    return CorpusSignal(
        "decay_exp", "exp(-t)",
        _half(np.exp(-t), dt), None,
        (exp_tag("integrable, all spectra empty", "literature"),
         exp_tag("vanishes at infinity", "construction")),
        meta={"poles": [], "bounded": True, "c0": True})


def _decay_poly(cfg, dt, T, t, tf):
    return CorpusSignal(
        "decay_poly", "(1+t)^-1",
        _half(1.0 / (1.0 + t), dt), None,
        (exp_tag("uniformly continuous and vanishing", "construction"),
         exp_tag("reduced C0 spectrum empty", "literature")),
        meta={"poles": [], "bounded": True, "c0": True})


def _decay_poly_osc(cfg, dt, T, t, tf):
    return CorpusSignal(
        "decay_poly_osc", "(1+t)^-1 exp(i t)",
        _half(np.exp(1j * t) / (1.0 + t), dt), None,
        (exp_tag("p-integrable: reduced C0 spectrum empty", "literature"),),
        meta={"poles": [], "bounded": True, "c0": True})


def _chirp(cfg, dt, T, t, tf):
    return CorpusSignal(
        "chirp", "exp(i t^2)",
        _half(np.exp(1j * t * t), dt), _full(np.exp(1j * tf * tf), dt, -T),
        (exp_tag("Carleman spectrum is the whole line", "literature"),
         exp_tag("Laplace spectrum empty (entire continuation)", "literature"),
         exp_tag("sliding averages vanish at infinity", "literature"),
         exp_tag("ergodic with mean 0", "closed-form")),
        meta={"poles": [], "bounded": True, "carleman_all": True})


def _chirp_mollified(cfg, dt, T, t, tf):
    h_m = 1.0
    km = span_steps(h_m, dt, "mollifier width")
    G = _chirp_panels(np.concatenate([tf, tf[-1] + dt * np.arange(1, km + 1)]))
    # each sample sums its own km panels: a difference of running sums
    # would carry the rounding of every panel since the record's start
    Mh = sliding_window_view(G, km).sum(axis=1) / h_m
    # the half line starts at the index of t = 0: the arange lattice puts
    # that sample a rounding error below 0, so a mask tf >= 0 would drop it
    return CorpusSignal(
        "chirp_mollified", f"M_{h_m:g} exp(i t^2), exact Fresnel samples",
        _half(Mh[round(T / dt):], dt), _full(Mh, dt, -T),
        (exp_tag("vanishes at infinity", "literature"),
         exp_tag("Laplace spectrum empty", "literature")),
        meta={"poles": [], "bounded": True, "c0": True})


def _expgrow(cfg, dt, T, t, tf):
    te = np.arange(-5.0, 10.0 + dt / 2, dt)
    ann = tuple(annihilator_kernel(a) for a in (2.0, 1.0, 0.5, 0.25))
    return CorpusSignal(
        "expgrow", "exp(t) with its annihilating kernel family",
        None, SampledSignal(Domain.FULL_LINE, -5.0, dt, np.exp(te), 8),
        (exp_tag("registered kernels convolve it to zero", "closed-form"),
         exp_tag("bump convolution grows like c exp(t)", "closed-form"),
         exp_tag("reduced C0 spectrum empty for compact-support kernels",
                 "literature")),
        extra_kernels=ann + (d_bump(),),
        meta={"bounded": False, "exp_rate": 1.0})


def _sinc_signal(cfg, dt, T, t, tf):
    return CorpusSignal(
        "sinc", "sin(t)/t",
        _half(_sinc(t), dt), _full(_sinc(tf), dt, -T),
        (exp_tag("Carleman spectrum = [-1, 1]", "closed-form"),),
        meta={"poles": [], "bounded": True, "c0": True,
              "carleman_band": [-1.0, 1.0]})


def _sinc_sq(cfg, dt, T, t, tf):
    return CorpusSignal(
        "sinc_sq", "(sin(t)/t)^2, integrable Fourier transform",
        _half(_sinc(t) ** 2, dt), _full(_sinc(tf) ** 2, dt, -T),
        (exp_tag("transform is the triangle pi(1-|w|/2)+ on [-2,2]",
                 "closed-form"),),
        ft_closed_form=lambda w: np.pi * np.clip(1.0 - np.abs(np.asarray(w, float)) / 2.0,
                                                 0.0, None),
        meta={"poles": [], "bounded": True, "c0": True})


def _ap_sum(cfg, dt, T, t, tf):
    return CorpusSignal(
        "ap_sum", "exp(i t) + exp(i sqrt(2) t)",
        _half(np.exp(1j * t) + np.exp(1j * SQRT2 * t), dt),
        _full(np.exp(1j * tf) + np.exp(1j * SQRT2 * tf), dt, -T),
        (exp_tag("almost periodic with two frequencies", "construction"),),
        meta={"poles": [1.0, SQRT2], "bounded": True,
              "ap_freqs": [1.0, SQRT2]})


def _aap_mix(cfg, dt, T, t, tf):
    return CorpusSignal(
        "aap_mix", "exp(i t) + exp(-t)",
        _half(np.exp(1j * t) + np.exp(-t), dt), None,
        (exp_tag("asymptotically almost periodic: AP part exp(it)",
                 "construction"),),
        meta={"poles": [1.0], "bounded": True, "ap_freqs": [1.0]})


def _so_composite(cfg, dt, T, t, tf):
    rng = np.random.default_rng(cfg.corpus_seed)
    noise = np.where(t < 10.0, 0.5 * rng.standard_normal(len(t)), 0.0)
    return CorpusSignal(
        "so_composite", "sin(t) + early grid noise",
        _half(np.sin(t) + noise, dt), None,
        (exp_tag("slowly oscillating: uc part sin, vanishing part noise",
                 "construction"),),
        meta={"poles": [1.0, -1.0], "bounded": True,
              "so_split": {"uc": "sin", "noise_until": 10.0}})


def _tchirp(cfg, dt, T, t, tf):
    return CorpusSignal(
        "tchirp", "t exp(i t^2): ergodic-theorem hypothesis violation",
        _half(t * np.exp(1j * t * t), dt, k=1),
        _full(tf * np.exp(1j * tf * tf), dt, -T, k=1),
        (exp_tag("unbounded, not slowly oscillating", "construction"),),
        meta={"bounded": False})


#: corpus signal name -> builder, in corpus order
BUILDERS = {
    "zero": _zero, "const": _const,
    "exp_iw1": _pure_exp("exp_iw1", 1.0),
    "exp_iw_sqrt2": _pure_exp("exp_iw_sqrt2", SQRT2),
    "decay_exp": _decay_exp, "decay_poly": _decay_poly,
    "decay_poly_osc": _decay_poly_osc, "chirp": _chirp,
    "chirp_mollified": _chirp_mollified, "expgrow": _expgrow,
    "sinc": _sinc_signal, "sinc_sq": _sinc_sq, "ap_sum": _ap_sum,
    "aap_mix": _aap_mix, "so_composite": _so_composite, "tchirp": _tchirp,
}


def build_signal(name: str, cfg: Config = DEFAULT) -> CorpusSignal:
    """One corpus signal, as ``build_corpus(cfg)[name]``; KeyError for an
    unknown name."""
    return BUILDERS[name](cfg, *_lattices(cfg))


def build_corpus(cfg: Config = DEFAULT) -> dict:
    grids = _lattices(cfg)
    return {name: build(cfg, *grids) for name, build in BUILDERS.items()}


#: names of corpus signals whose half-line records feed the inclusion chain
CHAIN_NAMES = ("zero", "const", "exp_iw1", "exp_iw_sqrt2", "decay_exp",
               "decay_poly", "decay_poly_osc", "chirp", "chirp_mollified",
               "sinc", "sinc_sq", "ap_sum", "aap_mix", "so_composite")
