"""Signal CSV format, kernel export, and deterministic JSON reports.

Signal files are CSV with header ``t,re0,im0[,re1,im1,...]`` and a
strictly uniform time column (relative deviation above 1e-9 is rejected
with the offending line number).  A JSON sidecar next to the CSV carries
domain, growth exponent and any expectations.

Reports are serialized by ``canonical_json``: fixed field order (insertion
order), floats at 12 significant digits, no timestamps, so identical
inputs and configuration produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

from .errors import ParseError
from .signals import Domain, SampledSignal

_UNIFORM_RTOL = 1e-9


def write_signal_csv(path, sig: SampledSignal):
    d = sig.dim
    header = "t," + ",".join(f"re{c},im{c}" for c in range(d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        t = sig.times
        for i in range(sig.n):
            row = [f"{t[i]:.12g}"]
            for c in range(d):
                v = sig.values[i, c]
                row.append(f"{v.real:.12g}")
                row.append(f"{v.imag:.12g}")
            fh.write(",".join(row) + "\n")


def read_signal_csv(path, domain: Domain | None = None,
                    growth_exponent: int | None = None) -> SampledSignal:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty signal file", line=1)
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "t" or (len(header) - 1) % 2 != 0 or len(header) < 3:
        raise ParseError("header must be t,re0,im0[,re1,im1,...]", line=1)
    arr = _parse_rows(lines, len(header))
    if len(arr) < 2:
        raise ParseError("need at least 2 samples", line=len(lines))
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        row_lines = [ln for ln, line in enumerate(lines[1:], start=2)
                     if line.strip()]
        raise ParseError("non-finite value (nan or inf)",
                         line=row_lines[int(np.argmin(finite))])
    t = arr[:, 0]
    dt = t[1] - t[0]
    if dt <= 0:
        raise ParseError("time column must increase", line=3)
    rel = np.abs(np.diff(t) - dt) / dt
    if rel.max() > _UNIFORM_RTOL:
        bad = int(np.argmax(rel)) + 3
        raise ParseError(f"non-uniform time spacing (relative deviation "
                         f"{rel.max():.2e} > {_UNIFORM_RTOL})", line=bad)
    vals = arr[:, 1::2] + 1j * arr[:, 2::2]

    meta = _read_sidecar(sidecar_path(path))
    if domain is None:
        domain = meta.get("domain")
        if domain is None:
            domain = Domain.HALF_LINE if abs(t[0]) <= _UNIFORM_RTOL * dt \
                else Domain.FULL_LINE
    if growth_exponent is None:
        growth_exponent = meta.get("growth_exponent", 0)
    return SampledSignal(domain, float(t[0]), float(dt), vals, growth_exponent)


def _parse_rows(lines, n_cols: int) -> np.ndarray:
    """Sample rows below the header as an (n, n_cols) float array, blank
    lines skipped.

    One ``np.loadtxt`` parses the usual file; its values equal
    ``float()``'s bitwise.  When it rejects the rows, the per-line scan
    runs instead: it names the offending file line, and it also takes
    what ``float()`` takes beyond ``loadtxt`` (whitespace-only lines,
    digit underscores)."""
    try:
        with warnings.catch_warnings():     # "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        if arr.shape[1] == n_cols:
            return arr
    except ValueError:
        pass
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} columns, got {len(parts)}",
                             line=ln)
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from exc
    return np.asarray(rows, float).reshape(len(rows), n_cols)


def _read_sidecar(side) -> dict:
    """The JSON sidecar's fields, with ``domain`` as a Domain and
    ``growth_exponent`` as an int; {} when there is no sidecar."""
    if not os.path.exists(side):
        return {}
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"sidecar {side}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"sidecar {side}: expected a JSON object")
    meta = dict(meta)
    if meta.get("domain") is not None:
        try:
            meta["domain"] = Domain(meta["domain"])
        except ValueError:
            raise ParseError(
                f"sidecar {side}: domain must be one of "
                f"{[d.value for d in Domain]}, got {meta['domain']!r}") from None
    if "growth_exponent" in meta:
        k = meta["growth_exponent"]
        if isinstance(k, bool) or not isinstance(k, (int, float)) \
                or not float(k).is_integer():
            raise ParseError(f"sidecar {side}: growth_exponent must be an "
                             f"integer, got {k!r}")
        meta["growth_exponent"] = int(k)
    return meta


def sidecar_path(csv_path) -> str:
    base, _ = os.path.splitext(str(csv_path))
    return base + ".json"


def write_kernel(path, kernel, dt: float = 0.01):
    """Kernel time samples in the signal CSV format plus a JSON sidecar
    with {family, ft_support, cut_mass}."""
    s0, vals = kernel.time_samples(dt)
    t = s0 + dt * np.arange(len(vals))
    with open(path, "w") as fh:
        fh.write("t,re0,im0\n")
        for ti, vi in zip(t, vals):
            fh.write(f"{ti:.12g},{vi.real:.12g},{vi.imag:.12g}\n")
    lo, hi = kernel.ft_support
    side = {"kernel": kernel.kernel_id, "family": kernel.family,
            "ft_support": [None if not math.isfinite(lo) else lo,
                           None if not math.isfinite(hi) else hi],
            "cut_mass": float(kernel.cut_mass)}
    with open(sidecar_path(path), "w") as fh:
        fh.write(canonical_json(side) + "\n")


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x)) + ".0"
    return f"{x:.12g}"


def canonical_json(obj) -> str:
    """JSON with insertion-ordered fields and 12-significant-digit floats."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        out.append(json.dumps(str(obj)))


def write_plot_csv(path, estimate):
    with open(path, "w") as fh:
        fh.write("omega,status_code,metric\n")
        for w, code, metric in estimate.plot_rows():
            fh.write(f"{w:.12g},{code},{metric:.12g}\n")
