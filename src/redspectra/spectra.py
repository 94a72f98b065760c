"""The four spectrum engines.

* Reduced (Beurling-type) spectrum: a frequency is regular when some test
  kernel with unit transform there convolves the signal into the target
  class; the engine searches a band-pass kernel ladder plus any registered
  annihilating kernels, and classifies each grid point Regular / Singular
  / Undecided with a stored certificate.
* Carleman spectrum: two-half-plane boundary scan; singular points show
  either value blowup along a_k -> 0 or a boundary jump that refuses to
  decay; regular points have matching, converging boundary values.
* Laplace spectrum: right-half-plane scan; regular points must be Cauchy
  along a_k -> 0 and pass a disk-based analytic-continuation test
  (Cauchy-integral reconstruction on a circle hugging the axis).
* Weak Laplace spectrum: regular points must be Cauchy in windowed L^1
  norm (certifying an integrable boundary density); log-divergent window
  masses mark singular points.  Two window widths are scanned and must
  agree.

A grid scan cannot certify true regularity or singularity, so UNDECIDED
is a first-class status; every theorem check downstream treats it as
"no violation".  All engines are pure; grid points are independent and
certificates are merged in grid order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .classes import ClassReport, FunctionClass, Tri, detect, _plain
from .config import Config, DEFAULT
from .errors import HorizonError, RedSpectraError, TruncationError
from .kernels import bandpass_kernel
from .signals import (COLUMN_BLOCK, Domain, ExtendedSignal, SampledSignal,
                      convolve, extend_by_zero, modulated_product,
                      plan_convolution)
from .transforms import (HalfPlaneGrid, TransformScanner, half_plane_scan,
                         lattice_exp_sum)


class RegStatus(enum.Enum):
    REGULAR = "regular"
    SINGULAR = "singular"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class FrequencyGrid:
    omega_min: float
    omega_max: float
    step: float

    def __post_init__(self):
        if self.step <= 0 or self.omega_max <= self.omega_min:
            raise ValueError("bad frequency grid")
        if self.n < 3:
            raise ValueError("grid must cover at least 3 points")

    @property
    def n(self) -> int:
        return int(round((self.omega_max - self.omega_min) / self.step)) + 1

    def values(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n)

    @classmethod
    def from_config(cls, cfg: Config) -> "FrequencyGrid":
        return cls(cfg.grid_min, cfg.grid_max, cfg.grid_step)


@dataclass(frozen=True)
class RegularityCertificate:
    omega: float
    status: RegStatus
    kernel_id: str | None = None
    kernel_ft_abs: float = 0.0
    evidence: dict = field(default_factory=dict)

    def to_dict(self):
        return {"omega": self.omega, "status": self.status.value,
                "kernel": self.kernel_id, "kernel_ft_abs": self.kernel_ft_abs,
                "evidence": _plain(self.evidence)}


@dataclass(frozen=True)
class SpectrumEstimate:
    kind: str
    grid: FrequencyGrid
    certificates: tuple
    meta: dict = field(default_factory=dict)

    def statuses(self):
        return [c.status for c in self.certificates]

    def status_at(self, omega: float) -> RegStatus:
        vals = self.grid.values()
        j = int(np.argmin(np.abs(vals - omega)))
        if abs(vals[j] - omega) > 0.5 * self.grid.step + 1e-12:
            raise ValueError(f"omega {omega} off the analysis grid")
        return self.certificates[j].status

    def singular_set(self) -> np.ndarray:
        vals = self.grid.values()
        return vals[[c.status is RegStatus.SINGULAR for c in self.certificates]]

    def undecided_set(self) -> np.ndarray:
        vals = self.grid.values()
        return vals[[c.status is RegStatus.UNDECIDED for c in self.certificates]]

    def singular_clusters(self) -> list:
        """Group consecutive singular grid points into (center, halfwidth)
        seeds for candidate-frequency refinement."""
        sing = self.singular_set()
        if len(sing) == 0:
            return []
        out = []
        start = prev = sing[0]
        for w in sing[1:]:
            if w - prev <= 1.5 * self.grid.step:
                prev = w
                continue
            out.append((0.5 * (start + prev), 0.5 * (prev - start) + self.grid.step))
            start = prev = w
        out.append((0.5 * (start + prev), 0.5 * (prev - start) + self.grid.step))
        return out

    def to_dict(self):
        return {"kind": self.kind,
                "grid": {"min": self.grid.omega_min, "max": self.grid.omega_max,
                         "step": self.grid.step},
                "status": [c.status.value for c in self.certificates],
                "points": [c.to_dict() for c in self.certificates],
                "meta": _plain(self.meta)}

    def plot_rows(self):
        """(omega, status_code, metric) rows; 0 regular, 1 singular, 2 undecided."""
        code = {RegStatus.REGULAR: 0, RegStatus.SINGULAR: 1, RegStatus.UNDECIDED: 2}
        rows = []
        for w, c in zip(self.grid.values(), self.certificates):
            rows.append((w, code[c.status], float(c.evidence.get("metric", 0.0))))
        return rows


# ---------------------------------------------------------------------------
# reduced spectrum
# ---------------------------------------------------------------------------

def _quad_step_for(delta: float, cfg: Config, dt: float) -> float:
    """Coarsest s-lattice whose aliasing the kernel envelope suppresses.

    The Gaussian envelope exp(-(sigma t)^2/2), sigma = delta/12, must be
    ~1e-6 at the first alias distance pi/h - (band edge); solve for h.
    """
    target = np.pi / (5.2 * 12.0 / delta + abs(cfg.grid_max) + 2 * delta)
    m = max(1, int(np.floor(target / dt)))
    return m * dt


class ReducedScanner:
    """Regular-point tester for one signal.

    ``scan`` classifies a set of grid frequencies rung by rung: each
    band-pass bandwidth is one matrix product over the frequencies that
    have no Yes yet.  Band outputs are cached per (bandwidth, frequency),
    so scanning several classes, or single points with ``test_regular``,
    reuses them.
    """

    def __init__(self, F: SampledSignal, omegas, cfg: Config = DEFAULT,
                 extra_kernels=(), budget: float | None = None):
        self.F = F
        self.cfg = cfg
        self.omegas = np.asarray(omegas, float)
        self.extra = tuple(extra_kernels)
        self.budget = cfg.trunc_budget if budget is None else budget
        self.scale_ref = F.sup_norm()
        self.ext = extend_by_zero(F)
        self._band_cache: dict = {}

    # -- batched band-pass convolutions ---------------------------------
    def _band_geometry(self, delta: float):
        """Convolution plan of the centred band-pass kernel for one
        bandwidth; every frequency reuses it through modulated weights."""
        key = ("geom", round(delta, 12))
        if key in self._band_cache:
            return self._band_cache[key]
        cfg, H = self.cfg, self.ext
        # half-line data: outputs from just left of 0 (the restriction to J
        # drops the rest); full-line data: wherever the budget admits
        lo = -2.0 * cfg.conv_out_step if H.origin_domain is Domain.HALF_LINE \
            else -np.inf
        plan = plan_convolution(
            H, bandpass_kernel(0.0, delta, cfg),
            max(1, round(cfg.conv_out_step / H.dt)) * H.dt, (lo, np.inf),
            self.budget, _quad_step_for(delta, cfg, H.dt))
        if len(plan.views[0]) < max(3, int(cfg.min_window / cfg.conv_out_step)):
            raise TruncationError(f"band {delta}: usable window too short")
        self._band_cache[key] = plan
        return plan

    def _band_columns(self, delta: float, idx) -> list:
        """Outputs of F * bandpass(omega_j, delta), one (count, d) array
        per grid index j in ``idx``.

        Uncached outputs come from one product of the bandwidth's plan
        with modulated weights, computed for whole aligned blocks of
        ``COLUMN_BLOCK`` grid indices: every output is then formed by the
        same arithmetic whichever frequencies were asked for, so verdicts
        do not depend on the order of calls.
        """
        plan = self._band_geometry(delta)
        d, n, C = round(delta, 12), len(self.omegas), COLUMN_BLOCK
        blocks = sorted({j // C for j in idx
                         if ("col", d, j) not in self._band_cache})
        todo = [j for b in blocks for j in range(b * C, min(n, (b + 1) * C))]
        if todo:
            out = modulated_product(plan, self.omegas[todo])
            for k, j in enumerate(todo):
                self._band_cache[("col", d, j)] = out[:, k, :]
        return [self._band_cache[("col", d, j)] for j in idx]

    def _restricted(self, plan, vals) -> SampledSignal:
        sig = ExtendedSignal(Domain.FULL_LINE, plan.t0, plan.step, vals,
                             self.F.growth_exponent, trusted=True,
                             origin_domain=self.F.domain,
                             trunc_bound=plan.trunc)
        return sig.restrict_to_origin()

    def band_output(self, delta: float, j: int) -> tuple:
        """(restricted SampledSignal, trunc_bound) of F * bandpass(omega_j)."""
        vals = self._band_columns(delta, [j])[0]
        plan = self._band_geometry(delta)
        return self._restricted(plan, vals), plan.trunc

    # -- the regularity test --------------------------------------------
    def index_of(self, omega: float) -> int:
        j = int(np.argmin(np.abs(self.omegas - omega)))
        if abs(self.omegas[j] - omega) > 1e-9:
            raise ValueError("omega must lie on the scanner grid")
        return j

    def scan(self, cls: FunctionClass, idx, delta_seq=None,
             candidates=None) -> list:
        """Classify the grid frequencies ``omegas[j]``, j in ``idx``, for
        one class; one certificate per index, in order.

        Registered kernels (rescaled to unit transform at omega) are tried
        first, point by point, then the band-pass ladder, one rung at a
        time over the points still open.  Regular on the first Yes;
        Singular only when the whole ladder produced No-with-witness;
        otherwise Undecided with the reasons recorded.  Over-growing
        records, for which only compactly supported kernels are
        meaningful, refuse the band-pass rungs on their own through the
        envelope-weighted truncation budget.  Any other package error at
        one point makes that point Undecided with the error as its only
        reason.
        """
        cfg = self.cfg
        idx = list(idx)
        if self.F.sup_norm() <= cfg.tol_zero_abs:
            return [RegularityCertificate(self.omegas[j], RegStatus.REGULAR,
                                          "trivial", 1.0,
                                          {"reason": "zero signal"})
                    for j in idx]
        delta_seq = cfg.delta_seq if delta_seq is None else delta_seq
        pts = {j: _PointScan(self.omegas[j]) for j in idx}

        for p in pts.values():
            try:
                self._registered(p, cls, candidates)
            except RedSpectraError as exc:
                p.fail(exc)

        for delta in delta_seq:
            open_ = [j for j, p in pts.items() if p.cert is None]
            if not open_:
                break
            try:
                plan = self._band_geometry(delta)
                cols = self._band_columns(delta, open_)
            except (TruncationError, HorizonError) as exc:
                for j in open_:
                    pts[j].refuse(f"delta={delta}: {exc}")
                continue
            except RedSpectraError as exc:
                for j in open_:
                    pts[j].fail(exc)
                continue
            for j, vals in zip(open_, cols):
                try:
                    self._rung(pts[j], cls, delta, plan, vals, candidates)
                except RedSpectraError as exc:
                    pts[j].fail(exc)

        return [pts[j].certificate(len(delta_seq)) for j in idx]

    def _registered(self, p, cls, candidates):
        for kern in self.extra:
            fw = complex(np.asarray(kern.ft(np.array([p.omega])))[0])
            if abs(fw) < 1e-3:
                continue
            scaled = kern.scaled(1.0 / fw, tag="unit")
            try:
                conv = convolve(self.ext, scaled, out_step=None,
                                budget=self.budget)
                restricted = conv.restrict_to_origin()
            except (TruncationError, HorizonError) as exc:
                p.reasons.append(f"{kern.kernel_id}: {exc}")
                continue
            rep = detect(cls, restricted, self.cfg, self.scale_ref,
                         conv.trunc_bound, candidates)
            if rep.member is Tri.YES:
                p.cert = RegularityCertificate(
                    p.omega, RegStatus.REGULAR, scaled.kernel_id, 1.0,
                    {"class_report": rep.to_dict(), "registered": True})
                return
            if rep.member is Tri.NO:
                p.witnesses.append((scaled.kernel_id, rep))
            else:
                p.reasons.append(f"{kern.kernel_id}: undecided")

    def _rung(self, p, cls, delta, plan, vals, candidates):
        try:
            restricted = self._restricted(plan, vals)
            rep = detect(cls, restricted, self.cfg, self.scale_ref,
                         plan.trunc, candidates)
        except HorizonError as exc:
            p.refuse(f"delta={delta}: {exc}")
            return
        kid = f"bandpass(w0={p.omega:g},delta={delta:g})"
        if rep.member is Tri.YES:
            p.cert = RegularityCertificate(
                p.omega, RegStatus.REGULAR, kid, 1.0,
                {"class_report": rep.to_dict(),
                 "metric": rep.evidence.get("tail_sups", [0.0])[-1]
                 if "tail_sups" in rep.evidence else 0.0})
        elif rep.member is Tri.NO:
            p.witnesses.append((kid, rep))
        else:
            p.refuse(f"delta={delta}: detector undecided")

    def test_regular(self, omega: float, cls: FunctionClass, delta_seq=None,
                     candidates=None) -> RegularityCertificate:
        """Classify one grid frequency for one class: ``scan`` of its
        index."""
        return self.scan(cls, [self.index_of(omega)], delta_seq,
                         candidates)[0]


class _PointScan:
    """Evidence gathered for one frequency while ``scan`` runs: the
    certificate once decided, the No-witnesses, the undecided reasons and
    whether every ladder rung gave a verdict."""

    def __init__(self, omega):
        self.omega = omega
        self.cert = None
        self.witnesses = []
        self.reasons = []
        self.ladder_complete = True

    def refuse(self, reason: str):
        self.reasons.append(reason)
        self.ladder_complete = False

    def fail(self, exc: RedSpectraError):
        """A package error ends this point's test."""
        self.cert = RegularityCertificate(self.omega, RegStatus.UNDECIDED,
                                          None, 0.0, {"reasons": [str(exc)]})

    def certificate(self, rungs: int) -> RegularityCertificate:
        if self.cert is not None:
            return self.cert
        if self.ladder_complete and len(self.witnesses) >= rungs:
            worst = self.witnesses[-1][1]
            ev = {"witnesses": [{"kernel": k, "report": r.to_dict()}
                                for k, r in self.witnesses],
                  "metric": _witness_metric(worst)}
            return RegularityCertificate(self.omega, RegStatus.SINGULAR, None,
                                         0.0, ev)
        ev = {"reasons": self.reasons,
              "witnesses": [{"kernel": k, "report": r.to_dict()}
                            for k, r in self.witnesses]}
        return RegularityCertificate(self.omega, RegStatus.UNDECIDED, None,
                                     0.0, ev)


def _witness_metric(rep: ClassReport) -> float:
    w = rep.evidence.get("witness")
    if isinstance(w, dict):
        for key in ("norm", "deviation", "jump", "mean_norm"):
            if key in w:
                return float(w[key])
    return 0.0


def test_regular(F: SampledSignal, omega: float, cls: FunctionClass,
                 delta_seq=None, cfg: Config = DEFAULT,
                 extra_kernels=(), candidates=None) -> RegularityCertificate:
    """One-point regularity test (builds a throwaway scanner)."""
    sc = ReducedScanner(F, np.array([omega]), cfg, extra_kernels)
    return sc.test_regular(omega, cls, delta_seq, candidates)


def reduced_spectrum(F: SampledSignal, cls: FunctionClass,
                     grid: FrequencyGrid | None = None, cfg: Config = DEFAULT,
                     extra_kernels=(), candidates=None,
                     scanner: ReducedScanner | None = None) -> SpectrumEstimate:
    """Map the regularity test over the grid.  For candidate-hungry
    classes (AP/AAP) pass ``candidates``, typically the singular clusters
    of the C0 spectrum of the same signal."""
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    omegas = grid.values()
    sc = scanner or ReducedScanner(F, omegas, cfg, extra_kernels)
    certs = sc.scan(cls, [sc.index_of(w) for w in omegas], None, candidates)
    # the ladder's band-pass kernels are all of the S family
    return SpectrumEstimate(f"reduced({cls.value},S)", grid, tuple(certs),
                            {"class": cls.value, "family": "S"})


def beurling_spectrum(F: SampledSignal, grid=None, cfg: Config = DEFAULT,
                      extra_kernels=()) -> SpectrumEstimate:
    """Classical Beurling spectrum: reduced spectrum against the zero class."""
    est = reduced_spectrum(F, FunctionClass.ZERO, grid, cfg, extra_kernels)
    return SpectrumEstimate("beurling", est.grid, est.certificates, est.meta)


def extension_comparison(H: SampledSignal, cls: FunctionClass,
                         grid: FrequencyGrid | None = None,
                         cfg: Config = DEFAULT) -> dict:
    """Compare the spectrum of a full-line H (bounded left tail) with the
    spectrum of its restriction to the half line.

    The engine itself always tests the zero extension of the restriction;
    this helper quantifies how much the alternative convention (convolving
    H directly) would differ.  For H with a bounded left tail the two
    classifications agree up to UNDECIDED points.
    """
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    direct = reduced_spectrum(H, cls, grid, cfg)
    restricted = reduced_spectrum(H.restrict(0.0, H.t_end), cls, grid, cfg)
    disagree = []
    for w, cd, cr in zip(grid.values(), direct.certificates,
                         restricted.certificates):
        a, b = cd.status, cr.status
        if a is not b and RegStatus.UNDECIDED not in (a, b):
            disagree.append({"omega": float(w), "direct": a.value,
                             "restricted": b.value})
    return {"direct": direct, "restricted": restricted,
            "definite_disagreements": disagree}


# ---------------------------------------------------------------------------
# transform spectra
# ---------------------------------------------------------------------------

def _growing(seq: np.ndarray, ratio: float) -> bool:
    return bool(seq[-1] >= ratio * max(seq[0], 1e-300))


def carleman_spectrum(F: SampledSignal, grid: FrequencyGrid | None = None,
                      cfg: Config = DEFAULT,
                      hp: HalfPlaneGrid | None = None) -> SpectrumEstimate:
    """Boundary-jump / blowup classification of the Carleman transform."""
    if F.domain is not Domain.FULL_LINE:
        raise RedSpectraError("Carleman spectrum needs a full-line record")
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    if F.sup_norm() <= cfg.tol_zero_abs:
        return _trivial_estimate("carleman", grid)
    hp = half_plane_scan(F, grid.values(), cfg) if hp is None else hp
    scale = max(hp.scale, 1e-300)
    tol_match = cfg.tol_match_coeff * scale
    allowance = 2.0 * hp.tail_bounds[-1]
    certs = []
    J = np.linalg.norm(hp.right - hp.left, axis=2)      # (n_a, n_w)
    mag = np.maximum(np.linalg.norm(hp.right, axis=2),
                     np.linalg.norm(hp.left, axis=2))
    for j, w in enumerate(grid.values()):
        Jj = J[:, j]
        peak = float(mag[:, j].max())
        ev = {"jumps": Jj.tolist(), "peak_over_scale": peak / scale,
              "metric": float(Jj[-1])}
        blow = peak >= cfg.blowup_thresh * scale and _growing(mag[:, j],
                                                              cfg.grow_ratio)
        stagnant = (Jj[-1] >= cfg.jump_sing_ratio * Jj.max()
                    and Jj[-1] > tol_match + allowance)
        if blow or stagnant:
            ev["witness"] = {"blowup": bool(blow), "jump_stagnation":
                             bool(stagnant), "last_jump": float(Jj[-1])}
            certs.append(RegularityCertificate(w, RegStatus.SINGULAR,
                                               None, 0.0, ev))
            continue
        decayed = (Jj[-1] <= cfg.jump_reg_ratio * max(Jj.max(), 1e-300)
                   and Jj[-1] <= tol_match + allowance)
        elevated = peak >= cfg.elevated_thresh * scale
        if decayed and not elevated:
            certs.append(RegularityCertificate(
                w, RegStatus.REGULAR, "two-sided-match", 0.0, ev))
        else:
            certs.append(RegularityCertificate(w, RegStatus.UNDECIDED,
                                               None, 0.0, ev))
    certs = _buffer_singular(certs, grid.values(), cfg)
    return SpectrumEstimate("carleman", grid, tuple(certs),
                            {"a_seq": list(hp.a_seq), "scale": scale})


def _cauchy_circle_errors(sc: TransformScanner, a: float, cfg: Config):
    """Reconstruction error of L F at a/2 + i omega from the circle of
    radius rf*a centred at a + i omega, per grid omega.

    The reconstruction is linear in the samples, so the error
    sum_l w_l L F(zeta_l + i omega) - L F(a/2 + i omega) is one scanner
    product with the damping sum_l w_l exp(-zeta_l u) - exp(-a u / 2)."""
    n = cfg.circle_nodes
    r = cfg.circle_radius_factor * a
    theta = 2 * np.pi * np.arange(n) / n
    zeta = a + r * np.exp(1j * theta)      # shared Re-offsets across omega
    target = 0.5 * a
    weights = (r * np.exp(1j * theta)) / (zeta - target) / n
    damping = (lattice_exp_sum(weights, zeta, len(sc.u), sc.F.dt)
               - np.exp(-target * sc.u))
    return np.linalg.norm(sc.product(damping), axis=1)


def laplace_spectrum(F: SampledSignal, grid: FrequencyGrid | None = None,
                     cfg: Config = DEFAULT,
                     hp: HalfPlaneGrid | None = None,
                     scanner: TransformScanner | None = None,
                     singular_only: bool = False) -> SpectrumEstimate:
    """Blowup / Cauchy / analytic-continuation classification of the
    Laplace transform boundary behaviour for a half-line signal."""
    if F.domain is not Domain.HALF_LINE:
        raise RedSpectraError("Laplace spectrum needs a half-line signal")
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    if F.sup_norm() <= cfg.tol_zero_abs:
        return _trivial_estimate("laplace", grid)
    omegas = grid.values()
    sc = scanner or TransformScanner(F, omegas, cfg)
    hp = half_plane_scan(F, omegas, cfg, scanner=sc) if hp is None else hp
    scale = max(hp.scale, 1e-300)
    mag = np.linalg.norm(hp.right, axis=2)
    diffs = np.linalg.norm(np.diff(hp.right, axis=0), axis=2)
    tol_analytic = cfg.tol_analytic_coeff * scale

    if not singular_only:
        circle_err = [np.asarray(_cauchy_circle_errors(sc, a, cfg))
                      for a in hp.a_seq[-2:]]
    certs = []
    for j, w in enumerate(omegas):
        peak = float(mag[:, j].max())
        rel = float(diffs[-1, j] / max(mag[-1, j], scale))
        ev = {"peak_over_scale": peak / scale, "cauchy_rel": rel,
              "metric": peak / scale}
        blow = peak >= cfg.blowup_thresh * scale and _growing(mag[:, j],
                                                              cfg.grow_ratio)
        if blow:
            ev["witness"] = {"blowup": True, "values": mag[:, j].tolist()}
            certs.append(RegularityCertificate(w, RegStatus.SINGULAR, None,
                                               0.0, ev))
            continue
        if singular_only:
            certs.append(RegularityCertificate(w, RegStatus.UNDECIDED, None,
                                               0.0, ev))
            continue
        elevated = peak >= cfg.elevated_thresh * scale
        cauchy = (rel <= cfg.cauchy_rel
                  and diffs[-1, j] <= max(1.0, cfg.cauchy_rel) * diffs[0, j]
                  + 1e-15)
        analytic = all(float(ce[j]) <= tol_analytic for ce in circle_err)
        ev["circle_errors"] = [float(ce[j]) for ce in circle_err]
        if cauchy and analytic and not elevated:
            certs.append(RegularityCertificate(
                w, RegStatus.REGULAR, "cauchy+analytic-continuation", 0.0, ev))
        else:
            certs.append(RegularityCertificate(w, RegStatus.UNDECIDED, None,
                                               0.0, ev))
    certs = _buffer_singular(certs, grid.values(), cfg)
    return SpectrumEstimate("laplace", grid, tuple(certs),
                            {"a_seq": list(hp.a_seq), "scale": scale})


def weak_laplace_spectrum(F: SampledSignal, grid: FrequencyGrid | None = None,
                          cfg: Config = DEFAULT,
                          hp: HalfPlaneGrid | None = None,
                          eps_seq=None) -> SpectrumEstimate:
    """Windowed-L^1 Cauchy test for an integrable boundary density.

    Regular when a -> L F(a + i .) restricted to (w - eps, w + eps) is
    Cauchy in L^1 as a decreases (the computable certificate that an L^1
    density exists); singular when the window masses keep growing with
    non-shrinking increments (log-type divergence).  Both window widths
    must agree, else UNDECIDED.
    """
    if F.domain is not Domain.HALF_LINE:
        raise RedSpectraError("weak Laplace spectrum needs a half-line signal")
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    if F.sup_norm() <= cfg.tol_zero_abs:
        return _trivial_estimate("weak-laplace", grid)
    omegas = grid.values()
    hp = half_plane_scan(F, omegas, cfg) if hp is None else hp
    eps_seq = cfg.wl_eps_seq if eps_seq is None else eps_seq
    mag = np.linalg.norm(hp.right, axis=2)                    # (n_a, n_w)
    dmag = np.linalg.norm(np.diff(hp.right, axis=0), axis=2)  # (n_a-1, n_w)
    dw = grid.step
    certs = []
    for j, w in enumerate(omegas):
        votes = []
        ev = {}
        for eps in eps_seq:
            k = int(round(eps / dw))
            lo, hi = max(0, j - k), min(len(omegas) - 1, j + k)
            if hi - lo < 2:
                votes.append(RegStatus.UNDECIDED)
                continue
            I = np.trapezoid(mag[:, lo:hi + 1], dx=dw, axis=1)
            D = np.trapezoid(dmag[:, lo:hi + 1], dx=dw, axis=1)
            G = np.diff(I)
            ev[f"window_mass_eps={eps:g}"] = I.tolist()
            ev[f"l1_diffs_eps={eps:g}"] = D.tolist()
            diverging = (np.all(G > 0) and G[-1] >= 0.5 * G[0]
                         and I[-1] >= 1.3 * I[0])
            cauchy = (D[-1] <= 0.5 * max(D[0], 1e-300)
                      and D[-1] <= 0.1 * max(I[-1], 1e-300))
            if diverging:
                votes.append(RegStatus.SINGULAR)
            elif cauchy:
                votes.append(RegStatus.REGULAR)
            else:
                votes.append(RegStatus.UNDECIDED)
        ev["metric"] = float(np.trapezoid(
            mag[-1, max(0, j - 2):j + 3], dx=dw))
        if all(v is RegStatus.SINGULAR for v in votes):
            status = RegStatus.SINGULAR
            ev["witness"] = {"window_mass_divergence": True}
        elif all(v is RegStatus.REGULAR for v in votes):
            status = RegStatus.REGULAR
        else:
            status = RegStatus.UNDECIDED
        certs.append(RegularityCertificate(
            w, status, "windowed-l1-cauchy" if status is RegStatus.REGULAR
            else None, 0.0, ev))
    certs = _buffer_singular(certs, grid.values(), cfg)
    return SpectrumEstimate("weak-laplace", grid, tuple(certs),
                            {"a_seq": list(hp.a_seq), "eps_seq": list(eps_seq),
                             "scale": hp.scale})


def _trivial_estimate(kind: str, grid: FrequencyGrid) -> SpectrumEstimate:
    certs = tuple(RegularityCertificate(w, RegStatus.REGULAR, "trivial", 1.0,
                                        {"reason": "zero signal"})
                  for w in grid.values())
    return SpectrumEstimate(kind, grid, certs, {"trivial": True})


def _buffer_singular(certs: list, omegas: np.ndarray, cfg: Config) -> tuple:
    """Demote Regular points near a Singular one to Undecided: at finite
    scan depth a singularity contaminates the boundary behaviour of its
    grid neighbours, so a confident Regular there is not defensible."""
    sing = np.array([w for w, c in zip(omegas, certs)
                     if c.status is RegStatus.SINGULAR])
    if len(sing) == 0:
        return tuple(certs)
    out = []
    for w, c in zip(omegas, certs):
        if c.status is RegStatus.REGULAR and \
                np.abs(sing - w).min() <= cfg.buffer_radius + 1e-12:
            ev = dict(c.evidence)
            ev["demoted"] = "regular within buffer_radius of a singular point"
            out.append(RegularityCertificate(w, RegStatus.UNDECIDED, None,
                                             0.0, ev))
        else:
            out.append(c)
    return tuple(out)
