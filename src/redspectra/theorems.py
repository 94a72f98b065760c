"""Executable checks of the spectral-inclusion and tauberian machinery on
the built-in corpus, plus the evolution-equation spectral criterion.  The
evolution checks solve u' = A u + phi, phi a sum of exponentials, by one
formula for every A: the forcing joins the state in Van Loan's augmented
matrix, whose exponential is tabulated on the sqrt(n) sample lattice.

Each check returns a ``CheckResult`` with status PASS / FAIL / VACUOUS.
VACUOUS means a hypothesis of the statement could not be established on
the record (e.g. boundedness fails, or a transform's truncation tail is
unbounded); it is reported with its reason and never counts as a failure.
UNDECIDED spectrum points are never used as evidence in either direction:
an inclusion is violated only where the smaller spectrum is definitely
singular and the larger definitely regular.

Every FAIL carries the signal name, frequency and tolerances needed to
reproduce it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from operator import is_not

import numpy as np

from .classes import (FunctionClass, Tri, ap_decompose, detect, is_bounded,
                      is_c0, is_ergodic, is_uc)
from .config import Config, DEFAULT, lattice_size
from .corpus import CHAIN_NAMES, CorpusSignal, build_signal
from .errors import (ConfigError, GridError, HorizonError, RedSpectraError,
                     TruncationError)
from .kernels import bump_kernel, d_bump
from .signals import (Domain, FactoredLattice, SampledSignal, _cumulative,
                      convolve, extend_by_zero, modulate, mollify, span_steps,
                      translate, trapezoid_weights)
from .spectra import (TRUNC_BUDGET, FrequencyGrid, RegStatus, SignalAnalysis,
                      laplace_spectrum, reduced_spectrum, refused_rungs,
                      wl_window_steps)
from .transforms import (MIN_ABSCISSAE, laplace_transform,
                         mollify_identity_residual, shift_identity_residual,
                         trapezoid_transform)

TRUNC_BUDGET_STRICT = 1e-8   # kernel-mass budget of the regular-ft smoothing
TOL_TRANSFORM_COEFF = 1e-4   # transform residuals / signal or transform scale
TOL_ODE_COEFF = 1e-5         # ODE residual / (1 + sup |u|)
_BLOCK_ROWS = 8192           # rows per block of the evolution solution


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    subject: str
    status: CheckStatus
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"check": self.check_id, "subject": self.subject,
                "status": self.status.value, "details": self.details}


def analysis_of(entry: CorpusSignal, cfg: Config = DEFAULT) -> SignalAnalysis:
    """The spectra of a corpus entry's half-line record, Carleman on its
    full-line record when it has one."""
    return SignalAnalysis(entry.half, cfg, entry.extra_kernels, entry.full)


# ---------------------------------------------------------------------------
# inclusion chain
# ---------------------------------------------------------------------------

def status_breaks(base, image, broken, shift=0.0) -> list:
    """The points omega of ``image``'s grid where ``broken(status of
    base at omega - shift, status of image at omega)`` holds, as
    ``{omega, base, image}`` records.  ``base``'s grid has the same step
    and holds every omega - shift; with shift 0 it is ``image``'s grid.
    The relations: containment breaks where ``_escapes`` holds, equality
    where ``operator.is_not`` does."""
    first = round((image.grid.omega_min - shift - base.grid.omega_min)
                  / base.grid.step)
    if first < 0 or first + image.grid.n > base.grid.n:
        raise ValueError(f"shift {shift:g} moves the grid off the base grid")
    return [{"omega": float(w), "base": b.status.value,
             "image": c.status.value}
            for w, b, c in zip(image.grid.values(), base.certificates[first:],
                               image.certificates)
            if broken(b.status, c.status)]


def _escapes(base, image):
    """The image is singular where the base is regular: an UNDECIDED
    status is evidence in neither direction."""
    return image is RegStatus.SINGULAR and base is RegStatus.REGULAR


def chain_violations(estimates) -> list:
    """Pairs (i, j, omega) where a smaller spectrum is singular and a
    larger one regular at the same grid point."""
    return [{"smaller": small.kind, "larger": large.kind, "omega": b["omega"]}
            for i, small in enumerate(estimates)
            for large in estimates[i + 1:]
            for b in status_breaks(large, small, _escapes)]


def check_inclusion_chain(entry: CorpusSignal, cfg: Config = DEFAULT,
                          analysis: SignalAnalysis | None = None) -> CheckResult:
    """Reduced(AAP) in Reduced(C0) in weak-Laplace in Laplace in Carleman:
    no grid point may be singular for a smaller spectrum yet regular for a
    larger one."""
    if entry.half is None:
        return CheckResult("inclusion-chain", entry.name, CheckStatus.VACUOUS,
                           {"reason": "no half-line record"})
    an = analysis or analysis_of(entry, cfg)
    try:
        chain = [an.reduced(FunctionClass.AAP), an.reduced(FunctionClass.C0),
                 an.weak_laplace(), an.laplace(), an.carleman()]
    except RedSpectraError as exc:
        return CheckResult("inclusion-chain", entry.name, CheckStatus.VACUOUS,
                           {"reason": str(exc)})
    bad = chain_violations(chain)
    details = {"order": [e.kind for e in chain],
               "singular_counts": [len(e.singular_set()) for e in chain],
               "violations": bad}
    status = CheckStatus.PASS if not bad else CheckStatus.FAIL
    return CheckResult("inclusion-chain", entry.name, status, details)


# ---------------------------------------------------------------------------
# spectral algebra
# ---------------------------------------------------------------------------

_SMALL_GRID = FrequencyGrid(-2.5, 2.5, 0.25)

#: mollifier widths h of M_h F in the mollifier checks
_H_SEQ = (0.5, 1.0, 2.0)


def _c0(F, cfg, widen=0.0):
    """The reduced C0 spectrum of F on ``_SMALL_GRID`` widened by
    ``widen`` at both ends."""
    g = _SMALL_GRID
    return reduced_spectrum(F, FunctionClass.C0, FrequencyGrid(
        g.omega_min - widen, g.omega_max + widen, g.step), cfg)


def check_modulation_shift(entry: CorpusSignal, lam: float,
                           cfg: Config = DEFAULT) -> CheckResult:
    """status(omega, gamma_lam F) must equal status(omega - lam, F) for
    grid-aligned lam: the test kernel modulates along."""
    F = entry.half if entry.half is not None else entry.full
    k = round(lam / _SMALL_GRID.step)
    if abs(lam - k * _SMALL_GRID.step) > 1e-12:
        raise ValueError("lam must be grid-aligned")
    mism = status_breaks(_c0(F, cfg, abs(lam)), _c0(modulate(F, lam), cfg),
                         is_not, lam)
    st = CheckStatus.PASS if not mism else CheckStatus.FAIL
    return CheckResult("spectral-algebra", f"{entry.name}:modulation({lam:g})",
                       st, {"mismatches": mism})


def check_translation_invariance(entry: CorpusSignal, s: float,
                                 cfg: Config = DEFAULT) -> CheckResult:
    F = entry.half if entry.half is not None else entry.full
    mism = status_breaks(_c0(F, cfg), _c0(translate(F, s), cfg), is_not)
    st = CheckStatus.PASS if not mism else CheckStatus.FAIL
    return CheckResult("spectral-algebra", f"{entry.name}:translation({s:g})",
                       st, {"mismatches": mism})


def check_convolution_shrinking(entry: CorpusSignal, h: float,
                                cfg: Config = DEFAULT) -> CheckResult:
    """Singular set of M_h F must sit inside the singular-or-undecided set
    of F (box transform has no zeros on the analysis band for these h)."""
    F = entry.half if entry.half is not None else entry.full
    base = _c0(F, cfg)
    conv = _c0(mollify(F, h), cfg)
    bad = status_breaks(base, conv, _escapes)
    st = CheckStatus.PASS if not bad else CheckStatus.FAIL
    return CheckResult("spectral-algebra", f"{entry.name}:conv-shrink(h={h:g})",
                       st, {"violations": bad,
                            "base_singular": base.singular_set().tolist(),
                            "conv_singular": conv.singular_set().tolist()})


def check_mollifier_union(entry: CorpusSignal,
                          cfg: Config = DEFAULT) -> CheckResult:
    """Each singular point of F must stay singular-or-undecided for some
    M_h F, and each singular point of an M_h F must be singular-or-
    undecided for F."""
    F = entry.half if entry.half is not None else entry.full
    base = _c0(F, cfg)
    mols = {h: _c0(mollify(F, h), cfg) for h in _H_SEQ}
    bad = [{"omega": float(w), "direction": "F->M_h"}
           for w, cb, *cms in zip(base.grid.values(), base.certificates,
                                  *(m.certificates for m in mols.values()))
           if cb.status is RegStatus.SINGULAR
           and all(c.status is RegStatus.REGULAR for c in cms)]
    bad += [dict(b, direction=f"M_{h}->F") for h, mol in mols.items()
            for b in status_breaks(base, mol, _escapes)]
    st = CheckStatus.PASS if not bad else CheckStatus.FAIL
    return CheckResult("mollifier-union", entry.name, st, {"violations": bad})


# ---------------------------------------------------------------------------
# ergodicity (bounded or slowly oscillating signals)
# ---------------------------------------------------------------------------

#: regular points the ergodic-theorem check modulates, evenly strided
_ERGODIC_POINTS = 25


def check_ergodic_theorem(entry: CorpusSignal, cfg: Config = DEFAULT,
                          analysis: SignalAnalysis | None = None) -> CheckResult:
    """At every regular point of the reduced C0 spectrum (about
    ``_ERGODIC_POINTS`` of them, evenly strided) the modulated signal must
    be ergodic with mean zero.  Requires the signal bounded or slowly
    oscillating; otherwise VACUOUS."""
    F = entry.half
    if F is None:
        return CheckResult("ergodic-theorem", entry.name, CheckStatus.VACUOUS,
                           {"reason": "no half-line record"})
    bd = is_bounded(F.norms, F.times, cfg)
    if bd.member is not Tri.YES:
        so = detect(FunctionClass.SLOWLY_OSCILLATING, F, cfg)
        if so.member is not Tri.YES:
            return CheckResult(
                "ergodic-theorem", entry.name, CheckStatus.VACUOUS,
                {"reason": "neither boundedness nor slow oscillation "
                           "established", "bounded": bd.to_dict()})
    an = analysis or analysis_of(entry, cfg)
    est = an.reduced(FunctionClass.C0)
    regular = [w for w, c in zip(est.grid.values(), est.certificates)
               if c.status is RegStatus.REGULAR]
    points = regular[::max(1, len(regular) // _ERGODIC_POINTS)]
    failures = []
    for w in points:
        rep = is_ergodic(modulate(F, -w), F.sup_norm(), mean_zero=True)
        if rep.member is not Tri.YES:
            failures.append({"omega": float(w), "report": rep.to_dict()})
    st = CheckStatus.PASS if not failures else CheckStatus.FAIL
    return CheckResult("ergodic-theorem", entry.name, st,
                       {"regular_points_checked": len(points),
                        "failures": failures})


# ---------------------------------------------------------------------------
# tauberian behaviour of smoothed signals
# ---------------------------------------------------------------------------

def _smoothing_kernel(entry: CorpusSignal):
    """The bump psi; exponentially growing signals need a compactly
    supported bump instead (psi's tails would outgrow the budget)."""
    return d_bump() if "exp_rate" in entry.meta else bump_kernel()


def check_tauberian(entry: CorpusSignal, cfg: Config = DEFAULT,
                    analysis: SignalAnalysis | None = None) -> CheckResult:
    """Countable reduced C0 spectrum + ergodic modulations imply the
    smoothed signal is asymptotically almost periodic; empty spectrum plus
    uniform continuity implies it vanishes (on the whole line)."""
    F = entry.half if entry.half is not None else entry.full
    psi = _smoothing_kernel(entry)
    try:
        conv = convolve(extend_by_zero(F), psi, out_step=cfg.conv_out_step,
                        budget=TRUNC_BUDGET)
    except RedSpectraError as exc:
        return CheckResult("tauberian", entry.name, CheckStatus.VACUOUS,
                           {"reason": f"smoothing failed: {exc}"})
    restricted = conv.restrict_to_origin() if entry.half is not None else conv
    scale_ref = F.sup_norm()

    rate = entry.meta.get("exp_rate")
    if rate is not None:
        # sharpness of the uniform-continuity hypothesis: the smoothed
        # signal grows like c exp(r t) with c = integral exp(-r s) psi(s) ds
        tt = conv.times
        sel = (tt >= -2.0) & (tt <= 7.0)
        ratio = conv.values[sel, 0] / np.exp(rate * tt[sel])
        c_obs = complex(ratio.mean())
        s0, sam = psi.time_samples(F.dt)
        c_ref = complex(trapezoid_transform(
            rate, s0 + F.dt * np.arange(len(sam)), sam, F.dt))
        uc_rep = is_uc(restricted, scale_ref, conv.trunc_bound)
        return CheckResult(
            "tauberian", entry.name, CheckStatus.VACUOUS,
            {"reason": "uniform-continuity hypothesis fails (sharpness case)",
             "uc": uc_rep.to_dict(),
             "growth_coefficient": {"re": c_obs.real, "im": c_obs.imag},
             "coefficient_reference": {"re": c_ref.real, "im": c_ref.imag},
             "coefficient_error": abs(c_obs - c_ref),
             "ratio_spread": float(np.abs(ratio - c_obs).max())})

    an = analysis or analysis_of(entry, cfg)
    est = an.reduced(FunctionClass.C0)
    clusters = est.singular_clusters()
    details = {"singular_clusters": [list(c) for c in clusters]}

    if not clusters:
        # the alternative hypothesis route needs M_h F bounded for all h;
        # sample it at a few h (the horizon limits what "all h" can mean)
        probe = details["mollified_bounded_probe"] = {}
        for h in _H_SEQ:
            M = mollify(F, h)
            probe[f"h={h:g}"] = is_bounded(M.norms, M.times, cfg).member.value
        uc_rep = is_uc(restricted, scale_ref, conv.trunc_bound)
        if uc_rep.member is not Tri.YES:
            details["reason"] = "smoothed signal not verifiably uniformly continuous"
            details["uc"] = uc_rep.to_dict()
            return CheckResult("tauberian", entry.name, CheckStatus.VACUOUS,
                               details)
        rep = is_c0(conv, cfg, scale_ref, conv.trunc_bound)
        details["full_line_c0"] = rep.to_dict()
        st = CheckStatus.PASS if rep.member is Tri.YES else CheckStatus.FAIL
        return CheckResult("tauberian", entry.name, st, details)

    # nonempty spectrum: need every modulated signal ergodic
    for center, _hw in clusters:
        if is_ergodic(modulate(F, -center)).member is Tri.NO:
            details["reason"] = f"modulation at {center:g} not ergodic"
            return CheckResult("tauberian", entry.name, CheckStatus.VACUOUS,
                               details)
    ap_part, rem, aap = ap_decompose(restricted, clusters, cfg, scale_ref,
                                     conv.trunc_bound)
    details["aap"] = aap.to_dict()
    st = CheckStatus.PASS if aap.member is Tri.YES else CheckStatus.FAIL
    if entry.half is not None and is_uc(F).member is Tri.YES:
        _, _, aap_f = ap_decompose(F, clusters, cfg)
        details["signal_itself_aap"] = aap_f.to_dict()
        if aap_f.member is not Tri.YES:
            st = CheckStatus.FAIL
    return CheckResult("tauberian", entry.name, st, details)


def check_regular_ft(entry: CorpusSignal, cfg: Config = DEFAULT) -> CheckResult:
    """Signals with an integrable closed-form transform: the smoothed
    signal must vanish on the whole line, and must match the inverse-
    transform route pointwise."""
    if entry.ft_closed_form is None:
        return CheckResult("regular-ft", entry.name, CheckStatus.VACUOUS,
                           {"reason": "no integrable closed-form transform"})
    F = entry.full if entry.full is not None else entry.half
    psi = bump_kernel()
    conv = convolve(extend_by_zero(F), psi, out_step=cfg.conv_out_step,
                    budget=TRUNC_BUDGET_STRICT)
    rep = is_c0(conv, cfg, F.sup_norm(), conv.trunc_bound)
    # cross-validate against (1/2pi) int F^(eta) psi^(eta) exp(i t eta) deta
    eta = np.linspace(-2.2, 2.2, 2201)
    fhat = np.asarray(entry.ft_closed_form(eta), complex)
    phat = np.asarray(psi.ft(eta), complex)
    wts = trapezoid_weights(len(eta), eta[1] - eta[0])
    probes = conv.times[:: max(1, conv.n // 40)]
    ref = (np.exp(1j * np.outer(probes, eta)) @ (fhat * phat * wts)) / (2 * np.pi)
    direct = np.array([conv.values[conv.index_of(tp), 0] for tp in probes])
    err = float(np.abs(direct - ref).max())
    tol = TOL_TRANSFORM_COEFF * max(F.sup_norm(), 1.0) + 10 * conv.trunc_bound
    details = {"c0": rep.to_dict(), "riemann_lebesgue_error": err,
               "tolerance": tol}
    ok = rep.member is Tri.YES and err <= tol
    return CheckResult("regular-ft", entry.name,
                       CheckStatus.PASS if ok else CheckStatus.FAIL, details)


# ---------------------------------------------------------------------------
# transform identities
# ---------------------------------------------------------------------------

#: sampled lambda, shift and mollifier width of the transform identities
_N_LAMBDA, _ID_SHIFT, _ID_H = 20, 2.0, 1.0


def check_transform_identities(entry: CorpusSignal,
                               cfg: Config = DEFAULT) -> CheckResult:
    """Shift and mollifier identities of the Laplace transform at
    ``_N_LAMBDA`` sampled lambda with Re in [0.05, 0.5]."""
    F = entry.half
    if F is None:
        return CheckResult("transform-identities", entry.name,
                           CheckStatus.VACUOUS, {"reason": "no half-line record"})
    rng = np.random.default_rng(cfg.corpus_seed + 17)
    lams = rng.uniform(0.05, 0.5, _N_LAMBDA) + 1j * rng.uniform(-1.0, 1.0, _N_LAMBDA)
    scale = float(np.median([np.linalg.norm(laplace_transform(F, l))
                             for l in lams]))
    tol = TOL_TRANSFORM_COEFF * max(scale, 1e-12)
    worst_shift = max(shift_identity_residual(F, _ID_SHIFT, l) for l in lams)
    worst_moll = max(mollify_identity_residual(F, _ID_H, l) for l in lams)
    ok = worst_shift <= tol and worst_moll <= tol
    return CheckResult("transform-identities", entry.name,
                       CheckStatus.PASS if ok else CheckStatus.FAIL,
                       {"median_scale": scale, "tolerance": tol,
                        "worst_shift_residual": worst_shift,
                        "worst_mollify_residual": worst_moll,
                        "n_lambda": _N_LAMBDA})


# ---------------------------------------------------------------------------
# evolution equation du/dt = A u + phi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionProblem:
    name: str
    A: np.ndarray
    u0: np.ndarray
    phi_modes: tuple = ()     # ((c_j, nu_j), ...): phi = sum c_j e^{i nu_j t}

    def __post_init__(self):
        A = np.asarray(self.A, complex)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u0", np.asarray(self.u0, complex))
        if A.shape[0] != A.shape[1] or A.shape[0] != len(self.u0):
            raise ValueError("dimension mismatch")

    @property
    def dim(self):
        return self.A.shape[0]


def _phi_values(p: EvolutionProblem, t: np.ndarray) -> np.ndarray:
    out = np.zeros((len(t), p.dim), complex)
    for c, nu in p.phi_modes:
        out += np.exp(1j * nu * t)[:, None] * np.asarray(c, complex)[None, :]
    return out


def solve_evolution(p: EvolutionProblem, cfg: Config = DEFAULT):
    """Mild solution u(t) = e^{tA} u0 + int_0^t e^{(t-s)A} phi(s) ds of
    u' = A u + phi with phi(t) = sum_j c_j exp(i nu_j t), sampled at
    t = k ``cfg.evolution_dt`` from 0 to ``cfg.t_end`` and yielded as
    fresh (rows, d) blocks in order, so no caller need hold u whole.

    One formula for every A, defective and resonant ones included: the
    forcing modes join the state (Van Loan, IEEE TAC 1978).  z = (u,
    exp(i nu_1 t), ...) solves z' = B z with B = [[A, C], [0, diag(i nu)]]
    and C = (c_1, ...), so u(t) is the first d entries of exp(tB) z(0).
    On the split k = b m + c of the ``signals.FactoredLattice`` of the
    samples, exp(k dt B) = exp(m dt B)^b exp(dt B)^c: two tables of about
    sqrt(n) powers.  A block stacks g = max(1, ``_BLOCK_ROWS`` // m) of
    the per-outer-power products (m rows each): g m rows, the last the rest.
    """
    dt = cfg.evolution_dt
    n = lattice_size(cfg.t_end, dt, "the evolution solve")
    d, r = p.dim, len(p.phi_modes)
    B = _augmented(p)
    z0 = np.concatenate([p.u0, np.ones(r, complex)])
    lattice = FactoredLattice(n, dt)
    outer = _powers(_expm(lattice.m * dt * B), lattice.n_b)
    inner = _powers(_expm(dt * B), lattice.m)
    states = (inner @ z0).T                   # exp(c dt B) z(0), (d + r, m)
    g = max(1, _BLOCK_ROWS // lattice.m)
    for b in range(0, lattice.n_b, g):
        rows = (outer[b:b + g, :d] @ states).transpose(0, 2, 1)
        yield rows.reshape(-1, d)[:n - b * lattice.m].copy()


def growth_exponent(p: EvolutionProblem) -> int:
    """The k of the solution's declared bound C (1 + t^2)^k: 0 when the
    ``solve_evolution`` matrix B is diagonalisable (eigenvector condition
    below 1e8) with no eigenvalue right of the axis, else 1."""
    lam, V = np.linalg.eig(_augmented(p))
    return 0 if np.linalg.cond(V) < 1e8 and np.all(lam.real <= 1e-9) else 1


# degree m: (theta_m, the largest 1-norm at which the [m/m] Pade
# approximant of exp meets double precision, and its coefficients b_0..b_m)
# from Higham, SIAM J. Matrix Anal. Appl. 26, 2005
_PADE = {
    3: (1.495585217958292e-2, (120., 60., 12., 1.)),
    5: (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    7: (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200.,
                               25200., 1512., 56., 1.)),
    9: (2.097847961257068e0, (17643225600., 8821612800., 2075673600.,
                              302702400., 30270240., 2162160., 110880.,
                              3960., 90., 1.)),
    13: (5.371920351148152e0, (64764752532480000., 32382376266240000.,
                               7771770303897600., 1187353796428800.,
                               129060195264000., 10559470521600.,
                               670442572800., 33522128640., 1323241920.,
                               40840800., 960960., 16380., 182., 1.)),
}


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
    26, 2005): the [m/m] Pade approximant of least degree m whose theta_m
    bounds the 1-norm of X; past theta_13, degree 13 on X / 2^s, s the
    least scaling that brings the norm under theta_13, squared s times.
    The approximant is (V - U)^-1 (V + U), U and V the odd and even terms
    of its numerator, both summed over the even powers of X."""
    norm = np.linalg.norm(X, 1)
    m = next((m for m in _PADE if norm <= _PADE[m][0]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE[13][0]))) if m == 13 else 0
    X = X / 2.0 ** s
    b = _PADE[m][1]
    X2 = X @ X
    powers = [np.eye(len(X), dtype=complex)]     # X^0, X^2, ..., X^(m-1)
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ X2)
    U = X @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
    V = sum(b[2 * j] * P for j, P in enumerate(powers))
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _augmented(p: EvolutionProblem) -> np.ndarray:
    """Van Loan's B = [[A, C], [0, diag(i nu)]] of ``solve_evolution``."""
    d, r = p.dim, len(p.phi_modes)
    B = np.zeros((d + r, d + r), complex)
    B[:d, :d] = p.A
    for j, (c, nu) in enumerate(p.phi_modes):
        B[:d, d + j] = c
        B[d + j, d + j] = 1j * nu
    return B


def _powers(E: np.ndarray, count: int) -> np.ndarray:
    """E^0, ..., E^(count-1) as a (count, N, N) stack, by doubling: each is
    a product of at most log2(count) repeated squares of E."""
    out = np.eye(len(E), dtype=complex)[None]
    while len(out) < count:
        out = np.concatenate([out, out @ E])      # E is E^len(out) here
        E = E @ E
    return out[:count]


def evolution_residual(p: EvolutionProblem, blocks, dt: float) -> float:
    """sup_t || u - u0 - A P u - P phi || with P the cumulative trapezoid
    integral from t = 0, for u sampled at spacing dt from t = 0 and given
    as (rows, d) blocks in order, of any sizes.

    The temporaries are one block's (rows, d), not (n, d).  A block's
    cumulative sums start from the integrals at the previous block's last
    row plus one trapezoid step, the one add the sums over the whole
    record make there, so the residual is the same to the bit.
    """
    worst, i0 = 0.0, 0
    for v in blocks:
        phi = _phi_values(p, dt * np.arange(i0, i0 + len(v)))
        if i0 == 0:
            u0, carry_u, carry_phi = v[:1].copy(), 0j, 0j
        else:
            carry_u = Pu[-1:] + 0.5 * dt * (last_u + v[:1])
            carry_phi = Pphi[-1:] + 0.5 * dt * (last_phi + phi[:1])
        Pu = _cumulative(v, dt, carry_u)
        Pphi = _cumulative(phi, dt, carry_phi)
        R = v - u0 - Pu @ p.A.T - Pphi
        worst = max(worst, float(np.linalg.norm(R, axis=1).max()))
        last_u, last_phi, i0 = v[-1:].copy(), phi[-1:], i0 + len(v)
    return worst


def random_evolution_problems(n: int, cfg: Config = DEFAULT) -> list:
    """Bounded instances: eigenvalues on the imaginary axis or with real
    part <= -0.6, exponential-sum forcing away from the neutral spectrum."""
    rng = np.random.default_rng(cfg.corpus_seed + 101)
    out = []
    for i in range(n):
        d = int(rng.integers(1, 5))
        lam = []
        for _ in range(d):
            b = rng.uniform(-4.0, 4.0)
            if rng.random() < 0.5:
                lam.append(1j * b)
            else:
                lam.append(-rng.uniform(0.6, 2.0) + 1j * b)
        lam = np.array(lam, complex)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)) +
                            1j * rng.standard_normal((d, d)))
        A = Q @ np.diag(lam) @ Q.conj().T
        n_modes = int(rng.integers(0, 4))
        neutral = [l.imag for l in lam if abs(l.real) < 1e-12]
        modes = []
        for _ in range(n_modes):
            for _try in range(50):
                nu = rng.uniform(-4.5, 4.5)
                if all(abs(nu - b) >= 0.4 for b in neutral):
                    break
            c = (rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random(d))
                 * rng.dirichlet(np.ones(d)) * d) / np.sqrt(d)
            modes.append((c.astype(complex), float(nu)))
        u0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        u0 = u0 / max(1.0, np.linalg.norm(u0))
        out.append(EvolutionProblem(f"evolution[{i}]", A, u0,
                                    tuple(modes)))
    return out


def jordan_vacuous_problem() -> EvolutionProblem:
    A = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    return EvolutionProblem("evolution[jordan]", A,
                            np.array([0.0, 1.0], complex))


def evolution_pass(p: EvolutionProblem, cfg: Config = DEFAULT) -> tuple:
    """One walk over the solution's blocks at ``cfg.evolution_dt``, none
    kept: (ODE residual, sup of the row norms, ``is_bounded`` report of
    the norms, the solution decimated to the spectral grid's ``cfg.dt``).
    Each block feeds the streamed residual, its row norms and a fresh
    copy of its rows on the decimated lattice."""
    dt = cfg.evolution_dt
    step = max(1, round(cfg.dt / dt))
    norms, kept = [], []

    def observed(blocks):
        start = 0
        for rows in blocks:
            norms.append(np.linalg.norm(rows, axis=1))
            kept.append(rows[-start % step::step].copy())
            start += len(rows)
            yield rows

    res = evolution_residual(p, observed(solve_evolution(p, cfg=cfg)), dt)
    norms = np.concatenate(norms)
    sup = float(norms.max())
    bd = is_bounded(norms, dt * np.arange(len(norms)), cfg, scale_ref=sup)
    u_c = SampledSignal(Domain.HALF_LINE, 0.0, dt * step, np.concatenate(kept),
                        growth_exponent(p), trusted=True)
    return res, sup, bd, u_c


def check_evolution_spectrum(p: EvolutionProblem, cfg: Config = DEFAULT,
                             class_A: FunctionClass | None = None) -> CheckResult:
    """Singular points of the solution's Laplace spectrum must lie near the
    neutral eigenvalues of A or the singular points of the forcing.

    With ``class_A`` given and the forcing's reduced spectrum for that
    class empty (e.g. zero forcing), additionally require the solution's
    reduced spectrum to sit inside the neutral eigenvalue set alone.
    """
    res, sup, bd, u_c = evolution_pass(p, cfg)
    tol_ode = TOL_ODE_COEFF * (1.0 + sup)
    details = {"dim": p.dim, "residual": res, "tol_ode": tol_ode,
               "n_modes": len(p.phi_modes)}
    if bd.member is not Tri.YES:
        details["reason"] = "solution not verifiably bounded"
        return CheckResult("evolution", p.name, CheckStatus.VACUOUS, details)
    if res > tol_ode:
        details["reason"] = "solver residual above tolerance"
        return CheckResult("evolution", p.name, CheckStatus.FAIL, details)
    grid = FrequencyGrid.from_config(cfg)
    su = laplace_spectrum(u_c, grid, cfg).singular_set()
    neutral = [l.imag for l in np.linalg.eigvals(p.A) if abs(l.real) < 1e-9]
    allowed = list(neutral)
    if p.phi_modes:
        phi = SampledSignal(Domain.HALF_LINE, 0.0, u_c.dt,
                            _phi_values(p, u_c.times), 0, trusted=True)
        sphi = laplace_spectrum(phi, grid, cfg).singular_set()
        allowed.extend(float(w) for w in sphi)
    # the half-plane transition blur: how far a singular flag may sit
    # from an allowed frequency
    blur = 0.35
    bad = [float(w) for w in su
           if not allowed or min(abs(w - a) for a in allowed) > blur]
    details.update({"u_singular": [float(w) for w in su],
                    "allowed": [float(a) for a in allowed],
                    "violations": bad, "blur": blur})
    if class_A is not None:
        if p.phi_modes:
            details["class_inclusion"] = "skipped: forcing spectrum not empty"
        else:
            # the band-pass transition blur of the reduced engine is wider
            # than the half-plane one: singular flags reach 0.4 + grid/2
            blur_reduced = 0.5
            est = reduced_spectrum(u_c, class_A, grid, cfg)
            extra = [float(w) for w in est.singular_set()
                     if not neutral or
                     min(abs(w - b) for b in neutral) > blur_reduced]
            details["class_inclusion"] = {
                "class": class_A.value,
                "u_singular": est.singular_set().tolist(),
                "violations": extra}
            bad = bad + extra
    st = CheckStatus.PASS if not bad else CheckStatus.FAIL
    return CheckResult("evolution", p.name, st, details)


# ---------------------------------------------------------------------------
# roster
# ---------------------------------------------------------------------------

#: one row per corpus check, in report order: (check id, check function,
#: whether it reads the subject's shared ``SignalAnalysis``, subjects).  A
#: subject is a corpus name, or (name, parameter) for a check that takes
#: one.  ``run_all`` looks each function up by name when it runs, so a
#: patched ``theorems.check_*`` is the one called.
CORPUS_ROSTER = (
    ("inclusion-chain", "check_inclusion_chain", True, CHAIN_NAMES),
    ("spectral-algebra", "check_modulation_shift", False,
     (("exp_iw1", 0.5), ("chirp", 1.0), ("decay_exp", 2.0))),
    ("spectral-algebra", "check_translation_invariance", False,
     (("exp_iw1", 1.0), ("chirp", 2.5), ("decay_exp", 5.0))),
    ("spectral-algebra", "check_convolution_shrinking", False,
     (("exp_iw1", 1.0), ("aap_mix", 0.5))),
    ("mollifier-union", "check_mollifier_union", False, ("exp_iw1", "const")),
    ("ergodic-theorem", "check_ergodic_theorem", True,
     ("chirp", "const", "exp_iw1", "tchirp")),
    ("tauberian", "check_tauberian", True,
     ("aap_mix", "decay_poly", "chirp", "so_composite", "expgrow")),
    ("regular-ft", "check_regular_ft", False, ("sinc_sq", "zero", "exp_iw1")),
    ("transform-identities", "check_transform_identities", False,
     ("decay_exp", "exp_iw1", "chirp")),
)

#: check ids of ``run_all``, the values ``only`` accepts
CHECK_IDS = (*dict.fromkeys(row[0] for row in CORPUS_ROSTER), "evolution")


def evolution_roster(cfg: Config = DEFAULT) -> list:
    """(problem, class) pairs of the evolution check: 20 random problems
    and jordan with no class, then the forcing-free variants of the first
    three with class C0 (the class-spectrum part needs zero forcing)."""
    problems = random_evolution_problems(20, cfg) + [jordan_vacuous_problem()]
    return [(p, None) for p in problems] + [
        (replace(p, name=p.name + ":classC0", phi_modes=()), FunctionClass.C0)
        for p in problems[:3]]


def _lattice_spans(cfg: Config) -> list:
    """(what, span) of each time span the checks step on the lattice."""
    rows = {row[1]: row[3] for row in CORPUS_ROSTER}
    return ([("shift", s) for _, s in rows["check_translation_invariance"]]
            + [("width", h) for _, h in rows["check_convolution_shrinking"]]
            + [("width", h) for h in (*_H_SEQ, _ID_H)]
            + [("shift", _ID_SHIFT), ("output step", cfg.conv_out_step)])


def _entry(name: str, cfg: Config, records: dict) -> CorpusSignal:
    """The built-in corpus entry ``name``, each of its records replaced by
    the one ``records`` holds under its file stem (``name`` for the half
    line, ``name_full`` for the full line)."""
    entry = build_signal(name, cfg)
    return replace(entry, half=records.get(name, entry.half),
                   full=records.get(name + "_full", entry.full))


def _run_subject(jobs, entry: CorpusSignal | None, cfg: Config) -> list:
    """The results of one subject's jobs, in order.  ``entry`` (None for an
    evolution subject) is passed first to each check; the subject's
    shared analysis is built on first use and goes when this returns."""
    analysis = None
    results = []
    for check_id, subject, fn_name, args, shared in jobs:
        if entry is not None:
            args = (entry, *args)
        try:
            if shared and analysis is None:
                analysis = analysis_of(entry, cfg)
            kw = {"analysis": analysis} if shared else {}
            results.append(globals()[fn_name](*args, **kw))
        except Exception as exc:            # engine panic -> FAIL with context
            results.append(CheckResult(check_id, subject, CheckStatus.FAIL,
                                       {"exception": repr(exc)}))
    return results


def run_all(cfg: Config = DEFAULT, only: str | None = None,
            records: dict | None = None) -> list:
    """Run every check; any engine exception becomes a FAIL with context.
    ``records`` maps a file stem (``exp_iw1``, ``exp_iw1_full``) to the
    record that replaces that built-in record.  The jobs run one subject
    at a time, subjects in order of first appearance, and each result
    keeps its place in report order."""
    records = records or {}
    if only is not None and only not in CHECK_IDS:
        raise ConfigError(f"unknown check id {only!r}; choose from: "
                          f"{', '.join(CHECK_IDS)}")
    # bad input, refused before any entry is built: an unbuildable grid,
    # weak-Laplace windows holding no grid step, too few abscissae for a
    # half-plane scan, an evolution solve or half-line lattice numpy cannot
    # allocate, a span off some record's lattice, and a half-line lattice
    # or record shorter than ``min_window`` or admitting no band-pass rung
    grid = FrequencyGrid.from_config(cfg)
    wl_window_steps(cfg.wl_eps_seq, grid)
    if len(cfg.a_seq) < MIN_ABSCISSAE:
        raise ConfigError(f"a_seq {list(cfg.a_seq)} holds fewer than "
                          f"{MIN_ABSCISSAE} abscissae, too few for any "
                          f"half-plane scan")
    lattice_size(cfg.t_end, cfg.evolution_dt, "the evolution solve")
    spans = _lattice_spans(cfg)
    for what, span in spans:
        span_steps(span, cfg.dt, what)
    for stem, rec in records.items():
        try:
            for what, span in spans:
                span_steps(span, rec.dt, what)
        except GridError as exc:
            raise GridError(f"record {stem}: {exc}") from None
    # only half-line records: a full-line one may keep a fixed window, as
    # expgrow's [-5, 10] does at every t_end
    n = lattice_size(cfg.t_end, cfg.dt, "the half-line records")
    halves = [("t_end", cfg.t_end, None)] + [
        (f"record {stem}", rec.t_end, rec) for stem, rec in records.items()
        if rec.domain is Domain.HALF_LINE]
    for what, horizon, rec in halves:
        if horizon < cfg.min_window:
            raise HorizonError(f"{what}: horizon {horizon:g}s is below the "
                               f"minimum analysis window {cfg.min_window:g}s")
        # the configured lattice as the bounded record 1, kept no longer
        # than the call: at k = 0 the admission asks the same of every
        # bounded record, so the built-in records' scans refuse its rungs
        refused = refused_rungs(rec or SampledSignal(
            Domain.HALF_LINE, 0.0, cfg.dt, np.ones(n), trusted=True), cfg)
        if len(refused) == len(cfg.delta_seq):
            raise TruncationError(f"{what}: no band-pass window: "
                                  + "; ".join(refused))
    jobs = []       # (check id, subject, check function, arguments, shared)
    for check_id, fn_name, shared, subjects in CORPUS_ROSTER:
        if only not in (None, check_id):
            continue
        for subject in subjects:
            name, *param = (subject,) if isinstance(subject, str) else subject
            jobs.append((check_id, name, fn_name, (*param, cfg), shared))
    n_corpus = len(jobs)        # the corpus jobs, which read their entry
    if only in (None, "evolution"):
        jobs += [("evolution", p.name, "check_evolution_spectrum",
                  (p, cfg, cls), False) for p, cls in evolution_roster(cfg)]

    by_subject = {}     # subject -> the indices of its jobs
    for i, job in enumerate(jobs):
        by_subject.setdefault(job[1], []).append(i)
    results = [None] * len(jobs)
    for subject, indices in by_subject.items():
        entry = None    # the last subject's goes before this one's is built
        if indices[0] < n_corpus:       # a builder error is a refusal
            entry = _entry(subject, cfg, records)
        done = _run_subject([jobs[i] for i in indices], entry, cfg)
        for i, result in zip(indices, done):
            results[i] = result
    return results
