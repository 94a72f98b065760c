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
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError
from .signals import Domain, SampledSignal

_UNIFORM_RTOL = 1e-9
_CSV_BLOCK = 1024          # rows formatted per write


def _write_csv(path, t, values):
    """Header ``t,re0,im0[,...]`` and one row per time of an (n, d)
    complex array, every number at 12 significant digits: each block of
    rows comes from one ``%``-format string."""
    values = np.asarray(values).reshape(len(t), -1)
    n, d = values.shape
    row = ",".join(["%.12g"] * (1 + 2 * d)) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"re{c},im{c}" for c in range(d)) + "\n")
        for i in range(0, n, _CSV_BLOCK):
            v = values[i:i + _CSV_BLOCK]
            cols = np.empty((len(v), 1 + 2 * d))
            cols[:, 0] = t[i:i + _CSV_BLOCK]
            cols[:, 1::2] = v.real
            cols[:, 2::2] = v.imag
            fh.write((row * len(v)) % tuple(cols.ravel().tolist()))


def write_signal_csv(path, sig: SampledSignal):
    _write_csv(path, sig.times, sig.values)


def read_signal_csv(path) -> SampledSignal:
    """The record in a signal CSV.  Domain and growth exponent come from
    the JSON sidecar; without one, a record starting at t = 0 is taken
    as half-line, and the growth exponent is 0.

    One ``np.loadtxt`` parses the rows straight from the open file; its
    values equal ``float()``'s bitwise.  Only when it rejects them, or
    they fail a check of ``_fault``, is the file read again by
    ``_scan_rows``, which names the offending file line."""
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty signal file", line=1)
        header = [h.strip() for h in first.split(",")]
        if header[0] != "t" or (len(header) - 1) % 2 != 0 or len(header) < 3:
            raise ParseError("header must be t,re0,im0[,re1,im1,...]", line=1)
        try:
            with warnings.catch_warnings():     # "input contained no data"
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            arr = None
    if arr is None or arr.shape[1] != len(header) or _fault(arr):
        arr = _scan_rows(path, len(header))
    t = arr[:, 0]
    dt = t[1] - t[0]
    vals = arr[:, 1::2] + 1j * arr[:, 2::2]

    meta = _read_sidecar(sidecar_path(path))
    domain = meta.get("domain")
    if domain is None:
        domain = Domain.HALF_LINE if abs(t[0]) <= _UNIFORM_RTOL * dt \
            else Domain.FULL_LINE
    return SampledSignal(domain, float(t[0]), float(dt), vals,
                         meta.get("growth_exponent", 0))


def _fault(arr):
    """The first check that the (n, n_cols) rows fail, as (message, row
    index or None for the file's last line); None when all pass."""
    if len(arr) < 2:
        return "need at least 2 samples", None
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        return "non-finite value (nan or inf)", int(np.argmin(finite))
    t = arr[:, 0]
    dt = t[1] - t[0]
    if dt <= 0:
        return "time column must increase", 1
    rel = np.abs(np.diff(t) - dt) / dt
    if rel.max() > _UNIFORM_RTOL:
        return (f"non-uniform time spacing (relative deviation "
                f"{rel.max():.2e} > {_UNIFORM_RTOL})", int(np.argmax(rel)) + 1)
    return None


def _scan_rows(path, n_cols: int) -> np.ndarray:
    """The rows below the header, read line by line with ``float()``,
    blank lines skipped.  Raises the first fault with its file line: a
    row that does not parse, else what ``_fault`` finds.  It also takes
    what ``float()`` takes beyond ``loadtxt`` (whitespace-only lines,
    digit underscores)."""
    rows, row_lines = [], []
    with open(path) as fh:
        fh.readline()
        ln = 1
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != n_cols:
                raise ParseError(f"expected {n_cols} columns, got "
                                 f"{len(parts)}", line=ln)
            try:
                rows.append([float(x) for x in parts])
            except ValueError as exc:
                raise ParseError(str(exc), line=ln) from exc
            row_lines.append(ln)
    arr = np.asarray(rows, float).reshape(len(rows), n_cols)
    fault = _fault(arr)
    if fault:
        message, row = fault
        raise ParseError(message, line=ln if row is None else row_lines[row])
    return arr


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
    _write_csv(path, s0 + dt * np.arange(len(vals)), vals)
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
    # the types reports hold go first, by exact type; bool, None, numpy
    # scalars, complex and subclasses take the isinstance chain below.
    # encode_basestring_ascii(s) is what json.dumps(s) returns for a str s
    kind = type(obj)
    if kind is float:
        out.append(_fmt_float(obj))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is dict:
        _emit_dict(obj, out)
    elif kind is list or kind is tuple or kind is np.ndarray:
        _emit_seq(obj, out)
    elif obj is None or isinstance(obj, bool):
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
        _emit_dict(obj, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _emit_seq(obj, out)
    else:
        out.append(json.dumps(str(obj)))


def _emit_dict(obj: dict, out):
    out.append("{")
    for i, (k, v) in enumerate(obj.items()):
        if i:
            out.append(",")
        out.append(encode_basestring_ascii(str(k)))
        out.append(":")
        _emit(v, out)
    out.append("}")


def _emit_seq(obj, out):
    out.append("[")
    seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
    for i, v in enumerate(seq):
        if i:
            out.append(",")
        _emit(v, out)
    out.append("]")


def write_plot_csv(path, estimate):
    with open(path, "w") as fh:
        fh.write("omega,status_code,metric\n")
        for w, code, metric in estimate.plot_rows():
            fh.write(f"{w:.12g},{code},{metric:.12g}\n")
