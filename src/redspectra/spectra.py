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

The three transform engines share one certificate path
(``_transform_estimate``); each supplies only its domain check and rule.

A grid scan cannot certify true regularity or singularity, so UNDECIDED
is a first-class status; every theorem check downstream treats it as
"no violation".  All engines are pure; grid points are independent and
certificates are merged in grid order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .classes import ClassReport, FunctionClass, Tri, detect
from .config import Config, DEFAULT, lattice_size
from .errors import (ConfigError, HorizonError, RedSpectraError,
                     TruncationError)
from .kernels import bandpass_kernel, bandpass_shape
from .signals import (Domain, ExtendedSignal, SampledSignal, band_product,
                      convolve, extend_by_zero, plan_band)
from .transforms import HalfPlaneGrid, TransformScanner, half_plane_scan

#: the Laplace engine's analytic-continuation test: nodes on the Cauchy
#: circle, the circle's radius over its abscissa a, and the largest
#: reconstruction error over the scan scale
CIRCLE_N = 64
CIRCLE_RADIUS = 0.9
CIRCLE_TOL = 1e-3
TRUNC_BUDGET = 1e-3      # unseen kernel-mass budget of a convolution
# transform spectra, relative to the scan scale or along a_seq
BLOWUP_THRESH = 10.0     # Singular: peak >= thresh * scale
ELEVATED_THRESH = 5.0    # not Regular above this peak/scale
GROW_RATIO = 1.5         # blowup must also grow along a_seq
CAUCHY_REL = 0.07        # relative Cauchy threshold (Laplace)
JUMP_REG_RATIO = 0.4     # jump decayed to <= this of its max (Carleman)
JUMP_SING_RATIO = 0.6    # jump stagnated above this of its max
TOL_MATCH_COEFF = 1e-3   # jump tolerance = coeff * scale


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
            raise ConfigError("bad frequency grid")
        q = (self.omega_max - self.omega_min) / self.step
        if not np.isfinite(q) or abs(q - round(q)) > 1e-9 * q:
            raise ConfigError(
                f"grid step {self.step:g} does not divide [{self.omega_min:g}, "
                f"{self.omega_max:g}]: the span holds {q:.6g} steps")
        if self.n < 3:
            raise ConfigError("grid must cover at least 3 points")
        lattice_size(self.omega_max - self.omega_min, self.step,
                     f"frequency grid [{self.omega_min:g}, {self.omega_max:g}]")

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
                "evidence": self.evidence}


def _trivial(w) -> RegularityCertificate:
    """The certificate of every grid point of a zero record."""
    return RegularityCertificate(w, RegStatus.REGULAR, "trivial", 1.0,
                                 {"reason": "zero signal"})


@dataclass(frozen=True)
class SpectrumEstimate:
    kind: str
    grid: FrequencyGrid
    certificates: tuple
    meta: dict = field(default_factory=dict)

    def singular_set(self) -> np.ndarray:
        vals = self.grid.values()
        return vals[[c.status is RegStatus.SINGULAR for c in self.certificates]]

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
                "meta": self.meta}

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

def plan_rung(H: ExtendedSignal, delta: float, cfg: Config):
    """``plan_band`` of rung ``delta``'s centred band-pass kernel on the
    zero extension H: its admitted output window and the record DFT every
    frequency reads; TruncationError when the rung is refused."""
    dt = H.dt
    row = max(1, round(cfg.conv_out_step / dt))
    need = max(3, int(cfg.min_window / cfg.conv_out_step))
    # refused before its kernel and DFT: a plateau past Nyquist, a band
    # finer than the record resolves, too few outputs on the whole record
    if bandpass_shape(delta)[2] >= np.pi / dt:
        raise TruncationError(f"band {delta}: its plateau reaches the "
                              f"Nyquist frequency {np.pi / dt:g}")
    if delta * (H.n - 1) * dt < 2.0 * np.pi:
        raise TruncationError(f"band {delta}: 2 pi/delta exceeds the "
                              f"record's span {(H.n - 1) * dt:g}")
    if (H.n - 1) // row + 1 < need:
        raise TruncationError(f"band {delta}: usable window too short")
    # half-line data: outputs from just left of 0 (the restriction to J
    # drops the rest); full-line data: wherever the budget admits
    lo = -2.0 * cfg.conv_out_step if H.origin_domain is Domain.HALF_LINE \
        else -np.inf
    plan = plan_band(H, bandpass_kernel(0.0, delta), row * dt,
                     (lo, np.inf), TRUNC_BUDGET)
    if plan.count < need:
        raise TruncationError(f"band {delta}: usable window too short")
    return plan


def refused_rungs(F: SampledSignal, cfg: Config) -> list:
    """``ReducedScanner.scan``'s reason for each rung of ``delta_seq`` that
    record F refuses, found without computing a band output."""
    H, refused = extend_by_zero(F), []
    for delta in cfg.delta_seq:
        try:
            plan_rung(H, delta, cfg)
        except (TruncationError, HorizonError) as exc:
            refused.append(f"delta={delta}: {exc}")
    return refused


class ReducedScanner:
    """Regular-point tester for one signal.

    ``scan`` classifies a set of grid frequencies rung by rung: each
    band-pass bandwidth is one ``band_product`` (a short sum over the
    record's DFT bins near each frequency) over the frequencies that have
    no Yes yet.  Band outputs are cached per (bandwidth, frequency), so
    scanning several classes, or single points with ``test_regular``,
    reuses them.
    """

    def __init__(self, F: SampledSignal, omegas, cfg: Config = DEFAULT,
                 extra_kernels=()):
        self.F = F
        self.cfg = cfg
        self.omegas = np.asarray(omegas, float)
        self.extra = tuple(extra_kernels)
        self.scale_ref = F.sup_norm()
        self.ext = extend_by_zero(F)
        self._band_cache: dict = {}

    # -- batched band-pass convolutions ---------------------------------
    def _band_geometry(self, delta: float):
        """``plan_rung`` of one bandwidth, cached."""
        key = ("geom", round(delta, 12))
        if key not in self._band_cache:
            self._band_cache[key] = plan_rung(self.ext, delta, self.cfg)
        return self._band_cache[key]

    def _band_columns(self, delta: float, idx) -> list:
        """Outputs of F * bandpass(omega_j, delta), one (count, d) array
        per grid index j in ``idx``.

        Uncached outputs come from one ``band_product`` of the
        bandwidth's plan over just those frequencies.  Each column is
        computed on its own there, so verdicts do not depend on the order
        of calls.
        """
        plan = self._band_geometry(delta)
        d = round(delta, 12)
        todo = [j for j in idx if ("col", d, j) not in self._band_cache]
        if todo:
            out = band_product(plan, self.omegas[todo])
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

    def scan(self, cls: FunctionClass, idx, candidates=None) -> list:
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
        reason.  A record too short for every rung, with no registered
        kernel to try instead, raises TruncationError.
        """
        cfg = self.cfg
        idx = list(idx)
        if self.scale_ref <= cfg.tol_zero_abs:
            return [_trivial(self.omegas[j]) for j in idx]
        pts = {j: _PointScan(self.omegas[j]) for j in idx}

        for p in pts.values():
            try:
                self._registered(p, cls, candidates)
            except RedSpectraError as exc:
                p.fail(exc)

        refused = []
        for delta in cfg.delta_seq:
            open_ = [j for j, p in pts.items() if p.cert is None]
            if not open_:
                break
            try:
                plan = self._band_geometry(delta)
                cols = self._band_columns(delta, open_)
            except (TruncationError, HorizonError) as exc:
                refused.append(f"delta={delta}: {exc}")
                for j in open_:
                    pts[j].refuse(refused[-1])
                continue
            except RedSpectraError as exc:
                for j in open_:
                    pts[j].fail(exc)
                continue
            # |k^(0)| of the base kernel: each modulated copy's at its omega
            ft0 = float(abs(plan.ft(0.0)))
            for j, vals in zip(open_, cols):
                try:
                    self._rung(pts[j], cls, delta, plan, ft0, vals, candidates)
                except RedSpectraError as exc:
                    pts[j].fail(exc)

        if not self.extra and len(refused) == len(cfg.delta_seq):
            raise TruncationError("no band-pass window: " + "; ".join(refused))
        return [pts[j].certificate(len(cfg.delta_seq)) for j in idx]

    def _registered(self, p, cls, candidates):
        for kern in self.extra:
            fw = complex(np.asarray(kern.ft(np.array([p.omega])))[0])
            if abs(fw) < 1e-3:
                continue
            scaled = kern.scaled(1.0 / fw, tag="unit")
            try:
                conv = convolve(self.ext, scaled, out_step=None,
                                budget=TRUNC_BUDGET)
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

    def _rung(self, p, cls, delta, plan, ft0, vals, candidates):
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
                p.omega, RegStatus.REGULAR, kid, ft0,
                {"class_report": rep.to_dict(),
                 "metric": rep.evidence.get("tail_sups", [0.0])[-1]})
        elif rep.member is Tri.NO:
            p.witnesses.append((kid, rep))
        else:
            p.refuse(f"delta={delta}: detector undecided")

    def test_regular(self, omega: float, cls: FunctionClass,
                     candidates=None) -> RegularityCertificate:
        """Classify one grid frequency for one class: ``scan`` of its
        index."""
        return self.scan(cls, [self.index_of(omega)], candidates)[0]


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


def reduced_spectrum(F: SampledSignal, cls: FunctionClass,
                     grid: FrequencyGrid | None = None, cfg: Config = DEFAULT,
                     candidates=None,
                     scanner: ReducedScanner | None = None) -> SpectrumEstimate:
    """Map the regularity test over the grid.  For candidate-hungry
    classes (AP/AAP) pass ``candidates``, typically the singular clusters
    of the C0 spectrum of the same signal."""
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    omegas = grid.values()
    sc = scanner or ReducedScanner(F, omegas, cfg)
    certs = sc.scan(cls, [sc.index_of(w) for w in omegas], candidates)
    # the ladder's band-pass kernels are all of the S family
    return SpectrumEstimate(f"reduced({cls.value},S)", grid, tuple(certs),
                            {"class": cls.value, "family": "S"})


# ---------------------------------------------------------------------------
# transform spectra
# ---------------------------------------------------------------------------

def _blowup(mag: np.ndarray, scale: float) -> np.ndarray:
    """Per grid column of the (n_a, n_w) boundary magnitudes: the peak
    reaches ``BLOWUP_THRESH`` times the scale and the value grows by
    ``GROW_RATIO`` as a decreases."""
    return (mag.max(axis=0) >= BLOWUP_THRESH * scale) & \
        (mag[-1] >= GROW_RATIO * np.maximum(mag[0], 1e-300))


def _transform_estimate(kind: str, F: SampledSignal,
                        grid: FrequencyGrid | None, cfg: Config,
                        hp: HalfPlaneGrid | None, rule) -> SpectrumEstimate:
    """The one path from a record to a transform spectrum.

    A zero record is trivially regular everywhere.  Otherwise
    ``rule(hp, grid)`` reads the half-plane scan (``hp``, or a fresh one)
    and returns boolean ``singular`` and ``regular`` arrays over the grid,
    the kernel id of a regular point, one evidence dict per point and the
    meta.  Singular beats regular beats undecided, and regular points near
    a singular one are then demoted.
    """
    grid = FrequencyGrid.from_config(cfg) if grid is None else grid
    omegas = grid.values()
    if F.sup_norm() <= cfg.tol_zero_abs:
        return SpectrumEstimate(kind, grid, tuple(map(_trivial, omegas)),
                                {"trivial": True})
    hp = half_plane_scan(F, omegas, cfg) if hp is None else hp
    singular, regular, kernel_id, evidence, meta = rule(hp, grid)
    certs = []
    for w, sing, reg, ev in zip(omegas, singular, regular, evidence):
        status = RegStatus.SINGULAR if sing else \
            RegStatus.REGULAR if reg else RegStatus.UNDECIDED
        certs.append(RegularityCertificate(
            w, status, kernel_id if status is RegStatus.REGULAR else None,
            0.0, ev))
    return SpectrumEstimate(kind, grid, _buffer_singular(certs, omegas, cfg),
                            meta)


def carleman_spectrum(F: SampledSignal, grid: FrequencyGrid | None = None,
                      cfg: Config = DEFAULT) -> SpectrumEstimate:
    """Boundary-jump / blowup classification of the Carleman transform."""
    if F.domain is not Domain.FULL_LINE:
        raise RedSpectraError("Carleman spectrum needs a full-line record")

    def rule(hp, grid):
        scale = max(hp.scale, 1e-300)
        bound = TOL_MATCH_COEFF * scale + 2.0 * hp.tail_bounds[-1]
        J = np.linalg.norm(hp.right - hp.left, axis=2)      # (n_a, n_w)
        mag = np.maximum(np.linalg.norm(hp.right, axis=2),
                         np.linalg.norm(hp.left, axis=2))
        peak = mag.max(axis=0)
        blow = _blowup(mag, scale)
        stagnant = (J[-1] >= JUMP_SING_RATIO * J.max(axis=0)) & \
            (J[-1] > bound)
        decayed = (J[-1] <= JUMP_REG_RATIO
                   * np.maximum(J.max(axis=0), 1e-300)) & (J[-1] <= bound)
        elevated = peak >= ELEVATED_THRESH * scale
        evidence = []
        for j in range(len(peak)):
            ev = {"jumps": J[:, j].tolist(),
                  "peak_over_scale": float(peak[j]) / scale,
                  "metric": float(J[-1, j])}
            if blow[j] or stagnant[j]:
                ev["witness"] = {"blowup": bool(blow[j]),
                                 "jump_stagnation": bool(stagnant[j]),
                                 "last_jump": float(J[-1, j])}
            evidence.append(ev)
        return (blow | stagnant, decayed & ~elevated, "two-sided-match",
                evidence, {"a_seq": list(hp.a_seq), "scale": scale})

    return _transform_estimate("carleman", F, grid, cfg, None, rule)


def _cauchy_circle_errors(sc: TransformScanner, a: float):
    """Reconstruction error of L F at a/2 + i omega from the circle of
    radius ``CIRCLE_RADIUS`` * a centred at a + i omega, per grid omega.

    The reconstruction is linear in the samples, so the error
    sum_l w_l L F(zeta_l + i omega) - L F(a/2 + i omega) is one scanner
    product with the damping sum_l w_l exp(-zeta_l u) - exp(-a u / 2)."""
    n = CIRCLE_N
    r = CIRCLE_RADIUS * a
    theta = 2 * np.pi * np.arange(n) / n
    zeta = a + r * np.exp(1j * theta)      # shared Re-offsets across omega
    target = 0.5 * a
    weights = (r * np.exp(1j * theta)) / (zeta - target) / n
    damping = sc.lattice.dual(weights, zeta) - np.exp(-target * sc.u)
    return np.linalg.norm(sc.product(damping), axis=1)


def laplace_spectrum(F: SampledSignal, grid: FrequencyGrid | None = None,
                     cfg: Config = DEFAULT,
                     hp: HalfPlaneGrid | None = None) -> SpectrumEstimate:
    """Blowup / Cauchy / analytic-continuation classification of the
    Laplace transform boundary behaviour for a half-line signal."""
    if F.domain is not Domain.HALF_LINE:
        raise RedSpectraError("Laplace spectrum needs a half-line signal")

    def rule(hp, grid):
        scale = max(hp.scale, 1e-300)
        mag = np.linalg.norm(hp.right, axis=2)
        diffs = np.linalg.norm(np.diff(hp.right, axis=0), axis=2)
        peak = mag.max(axis=0)
        rel = diffs[-1] / np.maximum(mag[-1], scale)
        blow = _blowup(mag, scale)
        sc = TransformScanner(F, grid.values(), cfg)
        circle_err = [_cauchy_circle_errors(sc, a) for a in hp.a_seq[-2:]]
        cauchy = (rel <= CAUCHY_REL) & (diffs[-1] <= diffs[0] + 1e-15)
        analytic = np.all(np.array(circle_err) <= CIRCLE_TOL * scale, axis=0)
        elevated = peak >= ELEVATED_THRESH * scale
        regular = cauchy & analytic & ~elevated
        evidence = []
        for j in range(len(peak)):
            ev = {"peak_over_scale": float(peak[j]) / scale,
                  "cauchy_rel": float(rel[j]),
                  "metric": float(peak[j]) / scale}
            if blow[j]:
                ev["witness"] = {"blowup": True, "values": mag[:, j].tolist()}
            else:
                ev["circle_errors"] = [float(ce[j]) for ce in circle_err]
            evidence.append(ev)
        return (blow, regular, "cauchy+analytic-continuation", evidence,
                {"a_seq": list(hp.a_seq), "scale": scale})

    return _transform_estimate("laplace", F, grid, cfg, hp, rule)


def wl_window_steps(eps_seq, grid: FrequencyGrid) -> list:
    """The whole grid steps round(eps / step) of each weak-Laplace window
    half-width eps; ConfigError when one rounds to none, since its window
    would hold no grid neighbour."""
    steps = [int(round(eps / grid.step)) for eps in eps_seq]
    narrow = [eps for eps, k in zip(eps_seq, steps) if k < 1]
    if narrow:
        raise ConfigError(
            f"wl_eps_seq entries {narrow} round to no whole grid step of "
            f"{grid.step:g}: their windows hold no grid neighbour")
    return steps


def weak_laplace_spectrum(F: SampledSignal, grid: FrequencyGrid | None = None,
                          cfg: Config = DEFAULT,
                          hp: HalfPlaneGrid | None = None) -> SpectrumEstimate:
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
    steps = wl_window_steps(cfg.wl_eps_seq, grid)

    def rule(hp, grid):
        eps_seq, dw, n = cfg.wl_eps_seq, grid.step, grid.n
        mag = np.linalg.norm(hp.right, axis=2)                    # (n_a, n_w)
        dmag = np.linalg.norm(np.diff(hp.right, axis=0), axis=2)  # (n_a-1, n_w)
        singular, regular = np.ones(n, bool), np.ones(n, bool)
        evidence = []
        for j in range(n):
            ev = {}
            for eps, k in zip(eps_seq, steps):
                lo, hi = max(0, j - k), min(n - 1, j + k)
                if hi - lo < 2:
                    singular[j] = regular[j] = False
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
                singular[j] &= bool(diverging)
                regular[j] &= bool(cauchy and not diverging)
            ev["metric"] = float(np.trapezoid(
                mag[-1, max(0, j - 2):j + 3], dx=dw))
            if singular[j]:
                ev["witness"] = {"window_mass_divergence": True}
            evidence.append(ev)
        return (singular, regular, "windowed-l1-cauchy", evidence,
                {"a_seq": list(hp.a_seq), "eps_seq": list(eps_seq),
                 "scale": hp.scale})

    return _transform_estimate("weak-laplace", F, grid, cfg, hp, rule)


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


# ---------------------------------------------------------------------------
# the spectra of one record
# ---------------------------------------------------------------------------

class SignalAnalysis:
    """The spectra of one record on the configured grid, each computed
    once and sharing the work they have in common.

    * The reduced passes share one ``ReducedScanner``; AP and AAP take the
      singular clusters of the C0 pass as candidate frequencies.
    * Laplace and weak Laplace read one half-plane scan of a nonzero
      half-line record; any other record goes to the engines as it is,
      which refuse it or return the trivial estimate.
    * Carleman reads the full-line record ``full`` when there is one,
      otherwise the zero extension of a half-line ``F``.
    """

    def __init__(self, F: SampledSignal, cfg: Config = DEFAULT,
                 extra_kernels=(), full: SampledSignal | None = None):
        self.F = F
        self.cfg = cfg
        self.extra = tuple(extra_kernels)
        self.full = full
        self.grid = FrequencyGrid.from_config(cfg)
        self._cache: dict = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def reduced(self, cls: FunctionClass) -> SpectrumEstimate:
        def run():
            candidates = None
            if cls in (FunctionClass.AP, FunctionClass.AAP):
                candidates = self.reduced(FunctionClass.C0).singular_clusters()
            scanner = self._get("scanner", lambda: ReducedScanner(
                self.F, self.grid.values(), self.cfg, self.extra))
            return reduced_spectrum(self.F, cls, self.grid, self.cfg,
                                    candidates=candidates, scanner=scanner)
        return self._get(cls, run)

    def beurling(self) -> SpectrumEstimate:
        """Classical Beurling spectrum: the reduced spectrum against the
        zero class."""
        est = self.reduced(FunctionClass.ZERO)
        return SpectrumEstimate("beurling", est.grid, est.certificates, est.meta)

    def _half_plane(self) -> HalfPlaneGrid | None:
        def run():
            F = self.F
            if F.domain is not Domain.HALF_LINE or \
                    F.sup_norm() <= self.cfg.tol_zero_abs:
                return None
            return half_plane_scan(F, self.grid.values(), self.cfg)
        return self._get("half-plane", run)

    def laplace(self) -> SpectrumEstimate:
        return self._get("laplace", lambda: laplace_spectrum(
            self.F, self.grid, self.cfg, hp=self._half_plane()))

    def weak_laplace(self) -> SpectrumEstimate:
        return self._get("weak-laplace", lambda: weak_laplace_spectrum(
            self.F, self.grid, self.cfg, hp=self._half_plane()))

    def carleman(self) -> SpectrumEstimate:
        def run():
            H = self.full
            if H is None:
                H = extend_by_zero(self.F) \
                    if self.F.domain is Domain.HALF_LINE else self.F
            return carleman_spectrum(H, self.grid, self.cfg)
        return self._get("carleman", run)
