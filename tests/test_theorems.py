import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import make_half

from redspectra import corpus as corpus_module
from redspectra import signals, spectra, theorems
from redspectra.classes import FunctionClass
from redspectra.config import Config
from redspectra.io_utils import canonical_json
from redspectra.signals import (Domain, FactoredLattice, SampledSignal,
                                _cumulative)
from redspectra.theorems import (CORPUS_ROSTER, TOL_ODE_COEFF, CheckResult,
                                 CheckStatus, EvolutionProblem,
                                 check_ergodic_theorem,
                                 check_evolution_spectrum,
                                 check_inclusion_chain, check_regular_ft,
                                 check_tauberian, evolution_pass,
                                 evolution_residual, evolution_roster,
                                 growth_exponent, jordan_vacuous_problem,
                                 random_evolution_problems, run_all,
                                 solve_evolution)

CFG = Config()


# ---------------------------------------------------------------------------
# evolution solver oracles
# ---------------------------------------------------------------------------

def _solution(p, dt, t_end):
    """The solver's blocks joined into one record, which the check itself
    never forms."""
    cfg = CFG.replace(evolution_dt=dt, t_end=t_end)
    vals = np.concatenate(list(solve_evolution(p, cfg)))
    return SampledSignal(Domain.HALF_LINE, 0.0, dt, vals, growth_exponent(p),
                         trusted=True)


def test_solver_trivial_and_scalar_exponential():
    p = EvolutionProblem("stationary", np.zeros((1, 1)),
                         np.array([2.0 + 1.0j]))
    u = _solution(p, dt=0.01, t_end=20.0)
    assert np.abs(u.values - (2.0 + 1.0j)).max() < 1e-12

    p2 = EvolutionProblem("rotator", np.array([[1j]]), np.array([1.0 + 0j]))
    u2 = _solution(p2, dt=0.01, t_end=50.0)
    assert np.abs(u2.values[:, 0] - np.exp(1j * u2.times)).max() < 1e-6


def test_solver_variation_of_constants_closed_form():
    # u' = -u + exp(i t), u(0) = 0  =>  u = (exp(it) - exp(-t))/(1 + i)
    p = EvolutionProblem("forced", np.array([[-1.0 + 0j]]),
                         np.array([0.0 + 0j]),
                         ((np.array([1.0 + 0j]), 1.0),))
    u = _solution(p, dt=0.001, t_end=50.0)
    t = u.times
    expect = (np.exp(1j * t) - np.exp(-t)) / (1.0 + 1.0j)
    assert np.abs(u.values[:, 0] - expect).max() < 1e-6


def test_solver_resonant_forcing_closed_form():
    # u' = i u + exp(i t), u(0) = 1  =>  u = (1 + t) exp(i t), unbounded
    p = EvolutionProblem("resonant", np.array([[1j]]), np.array([1.0 + 0j]),
                         ((np.array([1.0 + 0j]), 1.0),))
    u = _solution(p, dt=0.01, t_end=50.0)
    t = u.times
    assert len(t) == 5001
    assert np.abs(u.values[:, 0] - (1.0 + t) * np.exp(1j * t)).max() < 1e-10
    assert u.growth_exponent == 1


def test_solver_forced_jordan_block_closed_form():
    # u1' = u2 + c1 exp(i nu t), u2' = c2 exp(i nu t); with
    # e(t) = (exp(i nu t) - 1)/(i nu):  u2 = b + c2 e,
    # u1 = a + b t + c1 e + c2 (e - t)/(i nu)
    a, b = 0.3 - 0.2j, -0.5 + 0.1j
    c1, c2, nu = 0.7 + 0.4j, -0.6 + 0.9j, 1.3
    p = EvolutionProblem("jordan-forced", np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.array([a, b]), ((np.array([c1, c2]), nu),))
    u = _solution(p, dt=0.01, t_end=50.0)
    t = u.times
    e = (np.exp(1j * nu * t) - 1.0) / (1j * nu)
    assert np.abs(u.values[:, 1] - (b + c2 * e)).max() < 1e-10
    u1 = a + b * t + c1 * e + c2 * (e - t) / (1j * nu)
    assert np.abs(u.values[:, 0] - u1).max() < 1e-10
    assert u.growth_exponent == 1


def test_solver_residual_bound():
    # the problems of ``run_all``: 20 random ones, jordan, and the
    # forcing-free variants of the first three
    problems = [p for p, _cls in evolution_roster(CFG)]
    assert len(problems) == 24
    for p in problems:
        res, sup, _bd, u_c = evolution_pass(p, CFG)
        assert res <= TOL_ODE_COEFF * (1 + sup)
        assert growth_exponent(p) == u_c.growth_exponent == \
            (1 if p.name == "evolution[jordan]" else 0)


def _solve_by_batched_product(p, dt, t_end):
    """u from one batched (n_b, d, m) product and its transposed copy: the
    formula the solver, which yields u a few outer powers at a time, must
    reproduce."""
    n = len(np.arange(0.0, t_end + dt / 2, dt))
    d, r = p.dim, len(p.phi_modes)
    B = theorems._augmented(p)
    z0 = np.concatenate([p.u0, np.ones(r, complex)])
    lattice = FactoredLattice(n, dt)
    outer = theorems._powers(theorems._expm(lattice.m * dt * B), lattice.n_b)
    inner = theorems._powers(theorems._expm(dt * B), lattice.m)
    return (outer[:, :d] @ (inner @ z0).T).transpose(0, 2, 1).reshape(-1, d)[:n]


def _blocks(p, dt, t_end):
    """The solver's blocks, each checked to hold the g m rows of its g =
    max(1, _BLOCK_ROWS // m) outer powers (the last one the rest), none of
    them a view."""
    n = len(np.arange(0.0, t_end + dt / 2, dt))
    m = FactoredLattice(n, dt).m
    rows = max(1, theorems._BLOCK_ROWS // m) * m
    blocks = list(solve_evolution(p, CFG.replace(evolution_dt=dt,
                                                 t_end=t_end)))
    assert [len(b) for b in blocks] == [min(rows, n - i)
                                        for i in range(0, n, rows)]
    assert all(b.flags.c_contiguous and b.base is None for b in blocks)
    return blocks


def test_blocked_solver_equals_the_batched_product():
    for p, _cls in evolution_roster(CFG):
        u = np.concatenate(_blocks(p, CFG.evolution_dt, CFG.t_end))
        ref = _solve_by_batched_product(p, CFG.evolution_dt, CFG.t_end)
        assert np.array_equal(u, ref), p.name
    # one sample (a horizon below half a step: the config refuses 0), a
    # last outer power of one row, a full last outer power (each lattice
    # one block), a last block of one row (n = 8191: m = 91, g = 90) and
    # two full blocks (n = 16384: m = 128, g = 64)
    p = random_evolution_problems(20, CFG)[5]
    for dt, t_end in [(0.01, 0.004), (0.01, 0.06), (0.01, 0.08), (0.5, 50.0),
                      (0.01, 81.9), (0.01, 163.83)]:
        u = np.concatenate(_blocks(p, dt, t_end))
        assert np.array_equal(u, _solve_by_batched_product(p, dt, t_end))


def test_evolution_working_set_stays_within_the_work_budget():
    # the pass over the solution keeps the decimated copy and the (n,)
    # row norms and times; beyond them it holds blocks, their residual
    # temporaries and is_bounded's few (n,) float vectors (|t|, the
    # quantiles' copy): under three work budgets on the dim-4 problem.
    # u itself, 12.8 MB, does not fit, nor would any whole-record (n, d)
    # temporary.
    p = random_evolution_problems(20, CFG)[5]
    assert p.dim == 4
    n = round(CFG.t_end / CFG.evolution_dt) + 1
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _res, _sup, _bd, u_c = evolution_pass(p, CFG)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert u_c.values.nbytes == 16 * 4 * 20_001
    bound = u_c.values.nbytes + 2 * 8 * n + 3 * signals.WORK_BYTES
    assert bound < 16 * 4 * n
    assert peak < bound


def _expm_matrices():
    # the solver exponentiates dt B and m dt B on the split of its lattice
    n = round(CFG.t_end / CFG.evolution_dt) + 1
    m = FactoredLattice(n, CFG.evolution_dt).m
    for p, _cls in evolution_roster(CFG):
        B = theorems._augmented(p)
        yield p.name, CFG.evolution_dt * B
        yield f"{p.name} x{m}", m * CFG.evolution_dt * B
    yield "zero", np.zeros((3, 3), complex)
    yield "jordan", np.diag(np.ones(3), 1).astype(complex) * 0.7 - 0.2 * np.eye(4)
    yield "imaginary diagonal", np.diag(1j * np.array([-40.0, -3.0, 0.0, 0.5, 25.0]))
    rng = np.random.default_rng(2024)
    for norm in (1e-3, 1e-2, 0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        for d in (1, 2, 4, 7):
            X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            yield f"random d={d} |X|_1={norm}", X * (norm / np.linalg.norm(X, 1))


def test_expm_matches_scipy():
    # scipy is only the oracle; above theta_13 = 5.37 the Pade step squares
    cases = list(_expm_matrices())
    assert len(cases) == 2 * 24 + 3 + 40
    for name, X in cases:
        E, ref = theorems._expm(X), expm(X)
        assert np.linalg.norm(E - ref) <= 1e-12 * np.linalg.norm(ref), name


def _residual_by_full_arrays(p, u):
    """The residual over the whole record at once, with (n, d) temporaries:
    the formula the streamed ``evolution_residual`` must reproduce."""
    phi = theorems._phi_values(p, u.times)
    R = (u.values - u.values[0][None, :] - _cumulative(u.values, u.dt) @ p.A.T
         - _cumulative(phi, u.dt))
    return float(np.linalg.norm(R, axis=1).max())


@pytest.mark.parametrize("n", [1, 1000, theorems._BLOCK_ROWS,
                               theorems._BLOCK_ROWS + 1,
                               2 * theorems._BLOCK_ROWS + 37])
def test_streamed_residual_equals_the_full_array_formula(n):
    p = random_evolution_problems(20, CFG)[5]            # dim 4, forced
    assert p.dim == 4 and p.phi_modes
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    u = SampledSignal(Domain.HALF_LINE, 0.0, 0.001, vals, 0, trusted=True)
    ref = _residual_by_full_arrays(p, u)
    # one-row blocks, so the carry crosses blocks of a single row, and
    # sizes that divide neither n nor the solver's block
    for size in (1, 2, 3, 5, 7, 448, 3000, theorems._BLOCK_ROWS + 5):
        blocks = (vals[i:i + size] for i in range(0, n, size))
        assert evolution_residual(p, blocks, u.dt) == ref, size


def test_evolution_roster_pairs_classes_with_forcing_free_problems():
    roster = evolution_roster(CFG)
    assert [cls for _p, cls in roster] == [None] * 21 + [FunctionClass.C0] * 3
    assert [p.name for p, _cls in roster[-3:]] == [
        f"evolution[{i}]:classC0" for i in range(3)]
    assert all(p.phi_modes == () for p, cls in roster if cls is not None)


def test_evolution_checks_pass_and_jordan_vacuous():
    for p in random_evolution_problems(3, CFG):
        assert check_evolution_spectrum(p, CFG).status is CheckStatus.PASS
    r = check_evolution_spectrum(jordan_vacuous_problem(), CFG)
    assert r.status is CheckStatus.VACUOUS


# ---------------------------------------------------------------------------
# corpus-level checks (single representatives; the full roster is the
# acceptance suite)
# ---------------------------------------------------------------------------

def test_inclusion_chain_on_pole_signal(corpus, cfg):
    res = check_inclusion_chain(corpus["exp_iw1"], cfg)
    assert res.status is CheckStatus.PASS
    assert res.details["violations"] == []


def test_inclusion_chain_vacuous_when_weak_laplace_has_no_window(
        corpus, short_cfg):
    # at grid step 0.5 the weak-Laplace window eps = 0.25 holds no grid
    # neighbour: the engine refuses, and the chain reports why
    res = check_inclusion_chain(corpus["exp_iw1"],
                                short_cfg.replace(grid_step=0.5))
    assert res.status is CheckStatus.VACUOUS
    assert "wl_eps_seq" in res.details["reason"]


def test_ergodic_theorem_vacuous_for_unbounded(corpus, cfg):
    res = check_ergodic_theorem(corpus["tchirp"], cfg)
    assert res.status is CheckStatus.VACUOUS


def test_tauberian_aap_mix(corpus, cfg):
    res = check_tauberian(corpus["aap_mix"], cfg)
    assert res.status is CheckStatus.PASS
    freqs = res.details["aap"]["evidence"]["frequencies"]
    assert len(freqs) == 1 and abs(freqs[0] - 1.0) < 1e-3


def test_regular_ft_sinc_squared(corpus, cfg):
    res = check_regular_ft(corpus["sinc_sq"], cfg)
    assert res.status is CheckStatus.PASS
    assert res.details["riemann_lebesgue_error"] <= res.details["tolerance"]


def test_regular_ft_vacuous_without_integrable_transform(corpus, cfg):
    res = check_regular_ft(corpus["exp_iw1"], cfg)
    assert res.status is CheckStatus.VACUOUS


def test_run_all_names_the_failing_subject(monkeypatch):
    def broken(entry, cfg, analysis=None):
        raise RuntimeError(f"engine fault on {entry.name}")

    monkeypatch.setattr(theorems, "check_tauberian", broken)
    results = run_all(Config(), only="tauberian")
    [subjects] = [row[3] for row in CORPUS_ROSTER if row[0] == "tauberian"]
    assert [r.subject for r in results] == list(subjects)
    for r in results:
        assert r.check_id == "tauberian"
        assert r.status is CheckStatus.FAIL
        assert "RuntimeError" in r.details["exception"]
        assert f"engine fault on {r.subject}" in r.details["exception"]


def _probe_analyses(monkeypatch, check_name, check):
    """Record a weak reference to each analysis ``run_all`` builds, and
    replace ``check_name`` by ``check`` preceded by a probe that lists,
    per job, the other subjects whose analysis is still alive."""
    refs = {}
    build = theorems.analysis_of

    def recording(entry, cfg):
        an = build(entry, cfg)
        refs[entry.name] = weakref.ref(an)
        return an

    alive = []

    def probed(entry, cfg, analysis=None):
        gc.collect()
        alive.append([s for s, r in refs.items()
                      if s != entry.name and r() is not None])
        return check(entry, cfg, analysis)

    monkeypatch.setattr(theorems, "analysis_of", recording)
    monkeypatch.setattr(theorems, check_name, probed)
    return refs, alive


def test_run_all_frees_each_analysis_after_its_last_job(monkeypatch):
    refs, alive = _probe_analyses(monkeypatch, "check_ergodic_theorem",
                                  check_ergodic_theorem)
    results = run_all(Config(), only="ergodic-theorem")
    [subjects] = [row[3] for row in CORPUS_ROSTER
                  if row[0] == "ergodic-theorem"]
    assert [r.subject for r in results] == list(subjects)
    assert list(refs) == list(subjects)
    assert alive == [[] for _ in subjects]
    gc.collect()
    assert all(r() is None for r in refs.values())


def test_run_all_frees_the_analysis_of_a_failing_check(monkeypatch):
    def broken(entry, cfg, analysis=None):
        raise RuntimeError(f"engine fault on {entry.name}")

    refs, alive = _probe_analyses(monkeypatch, "check_tauberian", broken)
    results = run_all(Config(), only="tauberian")
    assert [r.status for r in results] == [CheckStatus.FAIL] * len(results)
    assert len(refs) == len(results)
    assert alive == [[] for _ in results]


def test_cached_reads_build_no_scanner(monkeypatch, corpus):
    # every tauberian subject goes through two jobs, back to back: the
    # second reads the cached C0 estimate of the first
    [row] = [row for row in CORPUS_ROSTER if row[0] == "tauberian"]
    monkeypatch.setattr(theorems, "CORPUS_ROSTER", CORPUS_ROSTER + (row,))
    # the records of the session corpus, so that a scanner's record names
    # its subject
    records = {name: corpus[name].half for name in row[3]
               if corpus[name].half is not None}
    built = []
    init = spectra.ReducedScanner.__init__

    def counting(self, F, *args, **kw):
        built.append(next(name for name in records if records[name] is F))
        init(self, F, *args, **kw)

    monkeypatch.setattr(spectra.ReducedScanner, "__init__", counting)
    results = run_all(Config(), only="tauberian", records=records)
    assert [r.subject for r in results] == list(row[3]) * 2
    # a subject reaches its analysis when it has a reduced C0 estimate
    reached = [r.subject for r in results[:len(row[3])]
               if "singular_clusters" in r.details]
    assert reached and built == reached
    assert results[len(row[3]):] == results[:len(row[3])]


def test_run_all_accepts_the_fixed_window_of_expgrow(monkeypatch, corpus):
    # expgrow's full-line record spans [-5, 10] at every t_end, below
    # min_window; only half-line records are held to that window
    _stub_checks(monkeypatch, lambda fn_name, subject: None)
    records = {"expgrow_full": corpus["expgrow"].full}
    results = run_all(Config(), only="tauberian", records=records)
    assert "expgrow" in [r.subject for r in results]


def test_results_do_not_depend_on_the_order_of_calls(corpus):
    # run_all groups the jobs by subject; the checks called one by one in
    # roster order give the same report
    results = run_all(CFG, only="spectral-algebra")
    alone = [getattr(theorems, fn_name)(corpus[name], param, CFG)
             for check_id, fn_name, _shared, subjects in CORPUS_ROSTER
             if check_id == "spectral-algebra"
             for name, param in subjects]
    assert canonical_json([r.to_dict() for r in results]) == \
        canonical_json([r.to_dict() for r in alone])


def _stub_checks(monkeypatch, probe):
    """Replace every check ``run_all`` looks up by name with ``probe(name,
    subject)`` returning a PASS, so a run does no engine work."""
    def stub(fn_name):
        def check(subject, *args, analysis=None):
            probe(fn_name, subject.name)
            return CheckResult(fn_name, subject.name, CheckStatus.PASS)
        return check
    for fn_name in {row[1] for row in CORPUS_ROSTER} | \
            {"check_evolution_spectrum"}:
        monkeypatch.setattr(theorems, fn_name, stub(fn_name))


def _refuse_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError("a corpus entry was built")

    for name in corpus_module.BUILDERS:
        monkeypatch.setitem(corpus_module.BUILDERS, name, refuse)


def test_run_all_builds_no_corpus_entry_for_the_evolution_checks(monkeypatch):
    _refuse_builds(monkeypatch)
    _stub_checks(monkeypatch, lambda fn_name, subject: None)
    results = run_all(Config(), only="evolution")
    assert [r.subject for r in results] == \
        [p.name for p, _cls in evolution_roster(CFG)]


def test_run_all_frees_each_entry_after_its_last_job(monkeypatch):
    # the jobs run one subject at a time: at every job no other subject's
    # entry or analysis is alive, and none is once the run returns
    refs = {}

    def recording(name, build):
        def builder(*args):
            entry = build(*args)
            refs[name] = weakref.ref(entry)
            return entry
        return builder

    for name, build in corpus_module.BUILDERS.items():
        monkeypatch.setitem(corpus_module.BUILDERS, name,
                            recording(name, build))
    analyses = {}
    build_analysis = theorems.analysis_of

    def recording_analysis(entry, cfg):
        an = build_analysis(entry, cfg)
        analyses[entry.name] = weakref.ref(an)
        return an

    monkeypatch.setattr(theorems, "analysis_of", recording_analysis)
    jobs, alive = [], []

    def probe(fn_name, subject):
        gc.collect()
        jobs.append(subject)
        alive.append({s for held in (refs, analyses)
                      for s, r in held.items()
                      if s != subject and r() is not None})

    _stub_checks(monkeypatch, probe)
    results = run_all(Config())
    # the jobs ran grouped by subject, in order of first appearance, and
    # the report keeps roster order
    order = [r.subject for r in results]
    assert jobs == [s for s in dict.fromkeys(order)
                    for _ in range(order.count(s))]
    assert alive == [set()] * len(jobs)
    assert set(analyses) == {name for row in CORPUS_ROSTER if row[2]
                             for name in row[3]}
    gc.collect()
    assert all(r() is None for held in (refs, analyses)
               for r in held.values())


def test_run_all_reads_the_records_it_is_passed(monkeypatch, corpus):
    # a passed record replaces the built-in one of its stem, every other
    # record comes from the builders, and the caller's dict is only read
    records = {"exp_iw1": make_half(lambda t: np.exp(1j * t), t_end=100.0)}
    before = dict(records)
    seen = {}

    def recording(entry, cfg):
        seen[entry.name] = entry
        return CheckResult("transform-identities", entry.name,
                           CheckStatus.PASS)

    monkeypatch.setattr(theorems, "check_transform_identities", recording)
    run_all(Config(), only="transform-identities", records=records)
    assert list(records) == list(before)
    assert records["exp_iw1"] is before["exp_iw1"]
    assert list(seen) == ["decay_exp", "exp_iw1", "chirp"]
    assert seen["exp_iw1"].half is records["exp_iw1"]
    for name, rec in (("exp_iw1", "full"), ("decay_exp", "half"),
                      ("chirp", "half"), ("chirp", "full")):
        built = getattr(corpus[name], rec)
        assert np.array_equal(getattr(seen[name], rec).values, built.values)
