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

import numpy as np

from .classes import (TOL_ERG, FunctionClass, Tri, ap_decompose, detect,
                      ergodic_mean, is_bounded, is_c0, is_uc)
from .config import Config, DEFAULT
from .corpus import CHAIN_NAMES, CorpusSignal, build_corpus
from .errors import ConfigError, RedSpectraError
from .kernels import bump_kernel, d_bump
from .signals import (Domain, SampledSignal, _cumulative, convolve,
                      extend_by_zero, modulate, mollify, translate,
                      trapezoid_weights)
from .spectra import (TRUNC_BUDGET, FrequencyGrid, RegStatus, SignalAnalysis,
                      laplace_spectrum, reduced_spectrum)
from .transforms import (mollify_identity_residual, shift_identity_residual,
                         trapezoid_transform)

TRUNC_BUDGET_STRICT = 1e-8   # kernel-mass budget of the regular-ft smoothing
TOL_TRANSFORM_COEFF = 1e-4   # transform residuals / signal or transform scale
TOL_ODE_COEFF = 1e-5         # ODE residual / (1 + sup |u|)


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

def chain_violations(estimates) -> list:
    """Pairs (i, j, omega) where a smaller spectrum is singular and a
    larger one regular at the same grid point."""
    out = []
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            small, large = estimates[i], estimates[j]
            for w, cs, cl in zip(small.grid.values(), small.certificates,
                                 large.certificates):
                if cs.status is RegStatus.SINGULAR and \
                        cl.status is RegStatus.REGULAR:
                    out.append({"smaller": small.kind, "larger": large.kind,
                                "omega": float(w)})
    return out


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


def _statuses(F, cfg, grid):
    return reduced_spectrum(F, FunctionClass.C0, grid, cfg).statuses()


def check_modulation_shift(entry: CorpusSignal, lam: float,
                           cfg: Config = DEFAULT) -> CheckResult:
    """status(omega, gamma_lam F) must equal status(omega - lam, F) for
    grid-aligned lam: the test kernel modulates along."""
    F = entry.half if entry.half is not None else entry.full
    grid = _SMALL_GRID
    k = round(lam / grid.step)
    if abs(lam - k * grid.step) > 1e-12:
        raise ValueError("lam must be grid-aligned")
    big = FrequencyGrid(grid.omega_min - abs(lam), grid.omega_max + abs(lam),
                        grid.step)
    base = reduced_spectrum(F, FunctionClass.C0, big, cfg)
    mod = reduced_spectrum(modulate(F, lam), FunctionClass.C0, grid, cfg)
    mism = []
    for w, c in zip(grid.values(), mod.certificates):
        ref = base.status_at(w - lam)
        if ref is not c.status:
            mism.append({"omega": float(w), "modulated": c.status.value,
                         "reference": ref.value})
    st = CheckStatus.PASS if not mism else CheckStatus.FAIL
    return CheckResult("spectral-algebra", f"{entry.name}:modulation({lam:g})",
                       st, {"mismatches": mism})


def check_translation_invariance(entry: CorpusSignal, s: float,
                                 cfg: Config = DEFAULT) -> CheckResult:
    F = entry.half if entry.half is not None else entry.full
    grid = _SMALL_GRID
    a = _statuses(F, cfg, grid)
    b = _statuses(translate(F, s), cfg, grid)
    mism = [{"omega": float(w), "base": x.value, "translated": y.value}
            for w, x, y in zip(grid.values(), a, b) if x is not y]
    st = CheckStatus.PASS if not mism else CheckStatus.FAIL
    return CheckResult("spectral-algebra", f"{entry.name}:translation({s:g})",
                       st, {"mismatches": mism})


def check_convolution_shrinking(entry: CorpusSignal, h: float,
                                cfg: Config = DEFAULT) -> CheckResult:
    """Singular set of M_h F must sit inside the singular-or-undecided set
    of F (box transform has no zeros on the analysis band for these h)."""
    F = entry.half if entry.half is not None else entry.full
    grid = _SMALL_GRID
    base = reduced_spectrum(F, FunctionClass.C0, grid, cfg)
    conv = reduced_spectrum(mollify(F, h), FunctionClass.C0, grid, cfg)
    bad = []
    for w, cb, cc in zip(grid.values(), base.certificates, conv.certificates):
        if cc.status is RegStatus.SINGULAR and cb.status is RegStatus.REGULAR:
            bad.append({"omega": float(w)})
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
    grid = _SMALL_GRID
    base = reduced_spectrum(F, FunctionClass.C0, grid, cfg)
    mols = {h: reduced_spectrum(mollify(F, h), FunctionClass.C0, grid, cfg)
            for h in _H_SEQ}
    bad = []
    for idx, (w, cb) in enumerate(zip(grid.values(), base.certificates)):
        if cb.status is RegStatus.SINGULAR:
            if all(mols[h].certificates[idx].status is RegStatus.REGULAR
                   for h in _H_SEQ):
                bad.append({"omega": float(w), "direction": "F->M_h"})
        for h in _H_SEQ:
            cm = mols[h].certificates[idx]
            if cm.status is RegStatus.SINGULAR and cb.status is RegStatus.REGULAR:
                bad.append({"omega": float(w), "direction": f"M_{h}->F"})
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
    bd = is_bounded(F, cfg)
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
    step = max(1, len(regular) // _ERGODIC_POINTS)
    failures = []
    checked = 0
    for w in regular[::step]:
        G = modulate(F, -w)
        m, devs, rep = ergodic_mean(G)
        checked += 1
        m_norm = float(np.linalg.norm(m))
        ok = rep.member is Tri.YES and m_norm <= TOL_ERG * max(F.sup_norm(), 1e-300)
        if not ok:
            failures.append({"omega": float(w), "mean_norm": m_norm,
                             "deviations": devs, "member": rep.member.value})
    st = CheckStatus.PASS if not failures else CheckStatus.FAIL
    return CheckResult("ergodic-theorem", entry.name, st,
                       {"regular_points_checked": checked,
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
        details["mollified_bounded_probe"] = {
            f"h={h:g}": is_bounded(mollify(F, h), cfg).member.value
            for h in _H_SEQ}
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
        G = modulate(F, -center)
        m, devs, rep = ergodic_mean(G)
        if rep.member is Tri.NO:
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

#: sampled lambda of the transform-identities check
_N_LAMBDA = 20


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
    from .transforms import laplace_transform
    scale = float(np.median([np.linalg.norm(laplace_transform(F, l))
                             for l in lams]))
    tol = TOL_TRANSFORM_COEFF * max(scale, 1e-12)
    worst_shift = max(shift_identity_residual(F, 2.0, l) for l in lams)
    worst_moll = max(mollify_identity_residual(F, 1.0, l) for l in lams)
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


def solve_evolution(p: EvolutionProblem, dt: float | None = None,
                    t_end: float | None = None,
                    cfg: Config = DEFAULT) -> SampledSignal:
    """Mild solution u(t) = e^{tA} u0 + int_0^t e^{(t-s)A} phi(s) ds of
    u' = A u + phi with phi(t) = sum_j c_j exp(i nu_j t).

    One formula for every A, defective and resonant ones included: the
    forcing modes join the state (Van Loan, IEEE TAC 1978).  z = (u,
    exp(i nu_1 t), ...) solves z' = B z with B = [[A, C], [0, diag(i nu)]]
    and C = (c_1, ...), so u(t) is the first d entries of exp(tB) z(0).
    On the sample lattice t = k dt with k = b m + c and m = ceil(sqrt(n)),
    as in ``signals.lattice_exp_tables``, exp(k dt B) = exp(m dt B)^b
    exp(dt B)^c: two tables of about sqrt(n) powers and one batched
    product.  The growth exponent is 0 when B is diagonalisable
    (eigenvector condition below 1e8) with no eigenvalue right of the
    axis, else 1.
    """
    # imported here, not at module level: scipy is slow to load
    from scipy.linalg import expm
    dt = cfg.evolution_dt if dt is None else dt
    t_end = cfg.t_end if t_end is None else t_end
    n = len(np.arange(0.0, t_end + dt / 2, dt))
    d, r = p.dim, len(p.phi_modes)
    B = np.zeros((d + r, d + r), complex)
    B[:d, :d] = p.A
    for j, (c, nu) in enumerate(p.phi_modes):
        B[:d, d + j] = c
        B[d + j, d + j] = 1j * nu
    z0 = np.concatenate([p.u0, np.ones(r, complex)])
    m = math.isqrt(n - 1) + 1
    n_b = -(-n // m)
    outer = _powers(expm(m * dt * B), n_b)
    inner = _powers(expm(dt * B), m)
    u = (outer[:, :d] @ (inner @ z0).T).transpose(0, 2, 1).reshape(-1, d)[:n]
    lam, V = np.linalg.eig(B)
    k = 0 if np.linalg.cond(V) < 1e8 and np.all(lam.real <= 1e-9) else 1
    return SampledSignal(Domain.HALF_LINE, 0.0, dt, u, k, trusted=True)


def _powers(E: np.ndarray, count: int) -> np.ndarray:
    """E^0, ..., E^(count-1) as a (count, N, N) stack, by doubling: each is
    a product of at most log2(count) repeated squares of E."""
    out = np.eye(len(E), dtype=complex)[None]
    while len(out) < count:
        out = np.concatenate([out, out @ E])      # E is E^len(out) here
        E = E @ E
    return out[:count]


def evolution_residual(p: EvolutionProblem, u: SampledSignal) -> float:
    """sup_t || u - u0 - A P u - P phi || with P the cumulative trapezoid
    integral from t = 0, where u's record starts."""
    phi = _phi_values(p, u.times)
    R = (u.values - u.values[0][None, :] - _cumulative(u.values, u.dt) @ p.A.T
         - _cumulative(phi, u.dt))
    return float(np.linalg.norm(R, axis=1).max())


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


def check_evolution_spectrum(p: EvolutionProblem, cfg: Config = DEFAULT,
                             class_A: FunctionClass | None = None) -> CheckResult:
    """Singular points of the solution's Laplace spectrum must lie near the
    neutral eigenvalues of A or the singular points of the forcing.

    With ``class_A`` given and the forcing's reduced spectrum for that
    class empty (e.g. zero forcing), additionally require the solution's
    reduced spectrum to sit inside the neutral eigenvalue set alone.
    """
    u = solve_evolution(p, cfg=cfg)
    res = evolution_residual(p, u)
    tol_ode = TOL_ODE_COEFF * (1.0 + u.sup_norm())
    details = {"dim": p.dim, "residual": res, "tol_ode": tol_ode,
               "n_modes": len(p.phi_modes)}
    bd = is_bounded(u, cfg)
    if bd.member is not Tri.YES:
        details["reason"] = "solution not verifiably bounded"
        return CheckResult("evolution", p.name, CheckStatus.VACUOUS, details)
    if res > tol_ode:
        details["reason"] = "solver residual above tolerance"
        return CheckResult("evolution", p.name, CheckStatus.FAIL, details)
    # decimate for the spectral analysis grid
    step = max(1, round(cfg.dt / u.dt))
    u_c = SampledSignal(Domain.HALF_LINE, 0.0, u.dt * step, u.values[::step],
                        u.growth_exponent, trusted=True)
    grid = FrequencyGrid.from_config(cfg)
    su = laplace_spectrum(u_c, grid, cfg, singular_only=True).singular_set()
    neutral = [l.imag for l in np.linalg.eigvals(p.A) if abs(l.real) < 1e-9]
    allowed = list(neutral)
    if p.phi_modes:
        phi = SampledSignal(Domain.HALF_LINE, 0.0, u_c.dt,
                            _phi_values(p, u_c.times), 0, trusted=True)
        if phi.sup_norm() > cfg.tol_zero_abs:
            sphi = laplace_spectrum(phi, grid, cfg,
                                    singular_only=True).singular_set()
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

#: check ids of ``run_all``, the values ``only`` accepts
CHECK_IDS = ("inclusion-chain", "spectral-algebra", "mollifier-union",
             "ergodic-theorem", "tauberian", "regular-ft",
             "transform-identities", "evolution")


def run_all(cfg: Config = DEFAULT, only: str | None = None,
            corpus: dict | None = None) -> list:
    """Run every check; any engine exception becomes a FAIL with context."""
    if only is not None and only not in CHECK_IDS:
        raise ConfigError(f"unknown check id {only!r}; choose from: "
                          f"{', '.join(CHECK_IDS)}")
    FrequencyGrid.from_config(cfg)      # an unbuildable grid is bad input
    corpus = build_corpus(cfg) if corpus is None else corpus
    analyses = {}

    def an(name):
        if name not in analyses:
            analyses[name] = analysis_of(corpus[name], cfg)
        return analyses[name]

    jobs = []       # (check id, subject, job)
    for name in CHAIN_NAMES:
        jobs.append(("inclusion-chain", name,
                     lambda name=name: check_inclusion_chain(
                         corpus[name], cfg, an(name))))
    for name, lam in (("exp_iw1", 0.5), ("chirp", 1.0), ("decay_exp", 2.0)):
        jobs.append(("spectral-algebra", name,
                     lambda name=name, lam=lam: check_modulation_shift(
                         corpus[name], lam, cfg)))
    for name, s in (("exp_iw1", 1.0), ("chirp", 2.5), ("decay_exp", 5.0)):
        jobs.append(("spectral-algebra", name,
                     lambda name=name, s=s: check_translation_invariance(
                         corpus[name], s, cfg)))
    for name, h in (("exp_iw1", 1.0), ("aap_mix", 0.5)):
        jobs.append(("spectral-algebra", name,
                     lambda name=name, h=h: check_convolution_shrinking(
                         corpus[name], h, cfg)))
    for name in ("exp_iw1", "const"):
        jobs.append(("mollifier-union", name,
                     lambda name=name: check_mollifier_union(corpus[name], cfg)))
    for name in ("chirp", "const", "exp_iw1", "tchirp"):
        jobs.append(("ergodic-theorem", name,
                     lambda name=name: check_ergodic_theorem(
                         corpus[name], cfg, an(name))))
    for name in ("aap_mix", "decay_poly", "chirp", "so_composite", "expgrow"):
        jobs.append(("tauberian", name,
                     lambda name=name: check_tauberian(corpus[name], cfg,
                                                       an(name))))
    for name in ("sinc_sq", "zero", "exp_iw1"):
        jobs.append(("regular-ft", name,
                     lambda name=name: check_regular_ft(corpus[name], cfg)))
    for name in ("decay_exp", "exp_iw1", "chirp"):
        jobs.append(("transform-identities", name,
                     lambda name=name: check_transform_identities(
                         corpus[name], cfg)))
    problems = random_evolution_problems(20, cfg) + [jordan_vacuous_problem()]
    for p in problems:
        jobs.append(("evolution", p.name,
                     lambda p=p: check_evolution_spectrum(p, cfg)))
    # the class-spectrum variant needs forcing-free instances
    for p in problems[:3]:
        quiet = replace(p, name=p.name + ":classC0", phi_modes=())
        jobs.append(("evolution", quiet.name,
                     lambda p=quiet: check_evolution_spectrum(
                         p, cfg, class_A=FunctionClass.C0)))

    results = []
    for check_id, subject, job in jobs:
        if only is not None and check_id != only:
            continue
        try:
            results.append(job())
        except Exception as exc:            # engine panic -> FAIL with context
            results.append(CheckResult(check_id, subject, CheckStatus.FAIL,
                                       {"exception": repr(exc)}))
    return results
