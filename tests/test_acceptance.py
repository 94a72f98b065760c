"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Scale: records to t = 200 at dt = 0.01, frequency grid [-5, 5] in
steps of 0.1.  Everything runs single-threaded.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from redspectra.classes import FunctionClass, Tri, ap_decompose, ergodic_mean, is_c0
from redspectra.config import Config
from redspectra.corpus import CHAIN_NAMES, build_corpus
from redspectra.kernels import (annihilator_kernel, bandpass_kernel,
                                bump_kernel, d_bump)
from redspectra.signals import (Domain, SampledSignal, convolve,
                                extend_by_zero, mollify)
from redspectra.spectra import (TRUNC_BUDGET, FrequencyGrid, RegStatus,
                               ReducedScanner)
from redspectra.theorems import (CheckStatus, analysis_of,
                                 random_evolution_problems)

from oracles import approximate_identity, wiener_divide

CFG = Config()
GRID = FrequencyGrid.from_config(CFG)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CFG)


def of_check(results, check_id) -> dict:
    """The results of one check id of the default ``run_all`` roster, by
    subject, in report order."""
    return {r.subject: r for r in results if r.check_id == check_id}


def report(criterion, ok, detail=""):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# -------------------------------------------------------------------------
# 1. the chirp triple: Carleman full, Laplace empty, averages vanish
# -------------------------------------------------------------------------

def test_criterion_01_chirp_triple(corpus):
    an = analysis_of(corpus["chirp"], CFG)
    car = an.carleman()
    n_sing = len(car.singular_set())
    ok_a = n_sing >= 0.95 * GRID.n
    lap = an.laplace()
    n_und = sum(c.status is RegStatus.UNDECIDED for c in lap.certificates)
    ok_b = len(lap.singular_set()) == 0 and n_und <= 0.10 * GRID.n
    chirp = corpus["chirp"].half
    oks_c = [is_c0(mollify(chirp, h), CFG, scale_ref=1.0).member is Tri.YES
             for h in (0.5, 1.0, 2.0)]
    report(1, ok_a and ok_b and all(oks_c),
           f"carleman singular {n_sing}/{GRID.n}, laplace singular "
           f"{len(lap.singular_set())}, undecided {n_und}, "
           f"mollified-chirp vanishing {oks_c}")


# -------------------------------------------------------------------------
# 2. the annihilating kernel for exp(t) and the sharpness coefficient
# -------------------------------------------------------------------------

def test_criterion_02_expgrow(corpus):
    entry = corpus["expgrow"]
    F = entry.full
    E = extend_by_zero(F)
    f2 = annihilator_kernel(2.0)
    conv = convolve(E, f2, budget=1e-9)
    ann_sup = float(np.abs(conv.values).max())
    ok_ann = ann_sup <= 1e-6

    sc = ReducedScanner(F, np.array([0.0, 1.0, 2.0]), CFG,
                        extra_kernels=entry.extra_kernels)
    statuses = [sc.test_regular(w, FunctionClass.C0).status
                for w in (0.0, 1.0, 2.0)]
    ok_reg = all(s is RegStatus.REGULAR for s in statuses)

    psi = d_bump()
    convb = convolve(E, psi, budget=1e-9)
    tt = convb.times
    sel = (tt >= -2.0) & (tt <= 7.0)
    ratio = convb.values[sel, 0] / np.exp(tt[sel])
    c_obs = complex(ratio.mean())
    c_ref = quad(lambda s: np.exp(-s) *
                 np.asarray(psi.time_fn(np.array([s])))[0].real,
                 -1.0, 1.0, epsabs=1e-12)[0]
    ok_c = abs(c_obs - c_ref) <= 1e-4
    report(2, ok_ann and ok_reg and ok_c,
           f"|exp*f|={ann_sup:.2e}, statuses={[s.value for s in statuses]}, "
           f"|c-ref|={abs(c_obs - c_ref):.2e}")


# -------------------------------------------------------------------------
# 3. p-integrable oscillation has empty reduced C0 spectrum
# -------------------------------------------------------------------------

def test_criterion_03_lp_signal_empty_spectrum(corpus):
    est = analysis_of(corpus["decay_poly_osc"], CFG).reduced(FunctionClass.C0)
    n_sing = len(est.singular_set())
    report(3, n_sing == 0, f"singular points: {n_sing}")


# -------------------------------------------------------------------------
# 4. pole localization across all four engines
# -------------------------------------------------------------------------

def test_criterion_04_pole_localization(corpus):
    an = analysis_of(corpus["exp_iw1"], CFG)
    engines = {"reduced-c0": an.reduced(FunctionClass.C0),
               "weak-laplace": an.weak_laplace(),
               "laplace": an.laplace(), "carleman": an.carleman()}
    bad = []
    for name, est in engines.items():
        for w, c in zip(GRID.values(), est.certificates):
            d = abs(w - 1.0)
            if d <= 0.25 + 1e-9 and c.status is not RegStatus.SINGULAR:
                bad.append((name, float(w), c.status.value))
            if d > 1.0 + 1e-9 and c.status is not RegStatus.REGULAR:
                bad.append((name, float(w), c.status.value))
    report(4, not bad, f"violations: {bad[:6]}")


# -------------------------------------------------------------------------
# 5. inclusion chain over the whole corpus
# -------------------------------------------------------------------------

def test_criterion_05_inclusion_chain(builtin_results):
    chain = of_check(builtin_results, "inclusion-chain")
    failures = []
    for name in CHAIN_NAMES:
        res = chain[name]
        if res.status is CheckStatus.FAIL:
            failures.append((name, res.details["violations"][:3]))
    report(5, not failures, f"violations: {failures}" if failures else
           f"{len(CHAIN_NAMES)} signals clean")


# -------------------------------------------------------------------------
# 6. modulation / translation invariance, convolution shrinking
# -------------------------------------------------------------------------

def test_criterion_06_spectral_algebra(builtin_results):
    # modulation, translation and convolution shrinking, in that order
    results = list(of_check(builtin_results, "spectral-algebra").values())
    bad = [(r.subject, r.details) for r in results
           if r.status is not CheckStatus.PASS]
    report(6, not bad, f"{len(results)} algebra checks"
           + (f"; failures: {bad[:2]}" if bad else ""))


# -------------------------------------------------------------------------
# 7. shift and mollifier identities of the Laplace transform
# -------------------------------------------------------------------------

def test_criterion_07_transform_identities(builtin_results):
    by_name = of_check(builtin_results, "transform-identities")
    rows = []
    ok = True
    for name in ("decay_exp", "exp_iw1", "chirp"):
        r = by_name[name]
        ok = ok and r.status is CheckStatus.PASS
        rows.append(f"{name}: shift {r.details['worst_shift_residual']:.1e} "
                    f"mollify {r.details['worst_mollify_residual']:.1e} "
                    f"tol {r.details['tolerance']:.1e}")
    report(7, ok, "; ".join(rows))


# -------------------------------------------------------------------------
# 8. division in the frequency domain
# -------------------------------------------------------------------------

def test_criterion_08_wiener_division():
    K = (-0.5, 0.5)
    kk = np.linspace(*K, 201)
    errs = {}
    for f in (bump_kernel(), bandpass_kernel(0.0, 1.0)):
        g = wiener_divide(f, K)
        errs[f.kernel_id] = float(np.abs(
            np.asarray(g.ft(kk)) * np.asarray(f.ft(kk)) - 1.0).max())
    ok = all(e <= 1e-8 for e in errs.values())
    report(8, ok, f"sup|g^f^-1| = {errs}")


# -------------------------------------------------------------------------
# 9. approximate identity and mollifier limit
# -------------------------------------------------------------------------

def test_criterion_09_approximate_identity():
    dt = 0.01
    t = np.arange(-260.0, 260.0 + dt / 2, dt)
    U = SampledSignal(Domain.FULL_LINE, -260.0, dt, np.exp(1j * t))
    EU = extend_by_zero(U)
    errs = []
    for n in (1, 2, 4, 8):
        kn = approximate_identity(n)
        C = convolve(EU, kn, out_step=0.2, budget=1e-8)
        mid = np.abs(C.times) <= 25.0
        errs.append(float(np.abs(C.values[mid, 0]
                                 - np.exp(1j * C.times[mid])).max()))
    mono = all(a > b for a, b in zip(errs, errs[1:]))
    M = mollify(U, 0.01)
    lim = float(np.abs(M.values[:, 0] - np.exp(1j * M.times)).max())
    ok = mono and errs[-1] <= 0.05 and lim <= 0.02
    report(9, ok, f"|u*psi_n-u| = {[round(e, 4) for e in errs]}, "
                  f"|M_.01 u - u| = {lim:.4f}")


# -------------------------------------------------------------------------
# 10. ergodicity of the chirp
# -------------------------------------------------------------------------

def test_criterion_10_chirp_ergodic(corpus):
    m, devs, rep = ergodic_mean(corpus["chirp"].half)
    ok = np.linalg.norm(m) <= 1e-2 and devs[0] > devs[1] > devs[2]
    report(10, ok, f"mean {np.linalg.norm(m):.2e}, deviations "
                   f"{[round(d, 4) for d in devs]}")


# -------------------------------------------------------------------------
# 11. tauberian decomposition of the smoothed mixture
# -------------------------------------------------------------------------

def test_criterion_11_tauberian_mixture(corpus):
    F = corpus["aap_mix"].half
    psi = bump_kernel()
    conv = convolve(extend_by_zero(F), psi, out_step=CFG.conv_out_step,
                    budget=TRUNC_BUDGET).restrict_to_origin()
    ap, rem, rep = ap_decompose(conv, [(1.0, 0.2)], CFG,
                                scale_ref=F.sup_norm())
    coeff = list(rep.evidence["coefficients"].values())
    psi1 = complex(np.asarray(psi.ft(np.array([1.0])))[0])
    err = abs(coeff[0][0] - psi1) if coeff else np.inf
    ok = rep.member is Tri.YES and err <= 1e-2
    report(11, ok, f"remainder C0: {rep.member.value}, "
                   f"|a(1) - psi^(1)| = {err:.2e}")


# -------------------------------------------------------------------------
# 12. evolution-equation spectral inclusion
# -------------------------------------------------------------------------

def test_criterion_12_evolution(builtin_results):
    problems = random_evolution_problems(20, CFG)
    by_name = of_check(builtin_results, "evolution")
    n_viol, n_res = 0, 0
    for p in problems:
        r = by_name[p.name]
        if r.details.get("violations"):
            n_viol += 1
        if r.details["residual"] > r.details["tol_ode"]:
            n_res += 1
    ok = n_viol == 0 and n_res == 0
    report(12, ok, f"20 instances: {n_viol} inclusion violations, "
                   f"{n_res} residual violations")
