import io
import json
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redspectra.classes import ClassReport, FunctionClass, Tri
from redspectra.cli import main
from redspectra.io_utils import (canonical_json, read_signal_csv,
                                 write_kernel, write_signal_csv)
from redspectra.corpus import BUILDERS
from redspectra.errors import GridError, GrowthError, ParseError
from redspectra.signals import WORK_BYTES, Domain, SampledSignal


def test_signal_csv_round_trip(tmp_path):
    t = np.arange(0.0, 10.0 + 0.005, 0.01)
    sig = SampledSignal(Domain.HALF_LINE, 0.0, 0.01,
                        np.stack([np.exp(1j * t), np.cos(t)], axis=1))
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    assert back.domain is Domain.HALF_LINE and back.dim == 2
    assert np.abs(back.values - sig.values).max() < 1e-10


def test_reader_rejects_nonuniform_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re0,im0\n0,1,0\n0.01,1,0\n0.025,1,0\n")
    with pytest.raises(ParseError) as exc:
        read_signal_csv(path)
    assert exc.value.line == 4


def test_reader_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("t,re0,im0\n0,1,0\n0.01,oops,0\n")
    with pytest.raises(ParseError) as exc:
        read_signal_csv(path)
    assert exc.value.line == 3


def test_reader_rejects_an_extra_column_on_every_row(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("t,re0,im0\n0,1,0,0\n0.01,1,0,0\n0.02,1,0,0\n")
    with pytest.raises(ParseError) as exc:
        read_signal_csv(path)
    assert exc.value.line == 2


def _per_line_scan(text):
    """The row-by-row reader: the lines a text-mode read gives (ended by
    \\n, \\r\\n or \\r), float() per field, whitespace-only lines skipped.
    Returns the rows, or the file line of the first fault: the header, a
    row's column count or number, fewer than 2 rows (the last line), a
    non-finite value, then the time spacing."""
    lines = [line.rstrip("\n") for line in io.StringIO(text, newline=None)]
    if not lines:
        return 1
    header = lines[0].split(",")
    if header[0].strip() != "t" or len(header) < 3 or len(header) % 2 == 0:
        return 1
    rows, row_lines = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            return ln
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            return ln
        row_lines.append(ln)
    if len(rows) < 2:
        return len(lines)
    for row, ln in zip(rows, row_lines):
        if not all(math.isfinite(x) for x in row):
            return ln
    t = [row[0] for row in rows]
    dt = t[1] - t[0]
    if dt <= 0:
        return row_lines[1]
    rel = [abs((b - a) - dt) / dt for a, b in zip(t, t[1:])]
    worst = max(range(len(rel)), key=rel.__getitem__)
    if rel[worst] > 1e-9:
        return row_lines[worst + 1]
    return np.asarray(rows)


def _assert_reads_as_scan(path, text):
    """The streamed reader gives the per-line scan's record, its values
    bitwise, or its error at the same file line."""
    path.write_text(text)
    ref = _per_line_scan(text)
    if isinstance(ref, int):
        with pytest.raises(ParseError) as exc:
            read_signal_csv(path)
        assert exc.value.line == ref
    else:
        sig = read_signal_csv(path)
        assert (sig.t0, sig.dt, sig.n) == \
            (ref[0, 0], ref[1, 0] - ref[0, 0], len(ref))
        assert sig.values.tobytes() == \
            (ref[:, 1::2] + 1j * ref[:, 2::2]).tobytes()


@pytest.mark.parametrize("row", [
    "0.02,1_0,0", "0.02, 1 ,0", "0.02,0x1,0", "0.02,1e,0",
    "0.02,infinity,0", "0.02,nan,0", "   ", "", "0.02,1,0,"])
def test_reader_odd_tokens_match_per_line_scan(tmp_path, row):
    rows = [f"{0.01 * i:.2f},{(-1) ** i * 1.25},0.5" for i in range(6)]
    # an odd sample replaces the t = 0.02 row; a blank line goes before it
    rows[2:2 + row.startswith("0.02")] = [row]
    _assert_reads_as_scan(tmp_path / "odd.csv",
                          "t,re0,im0\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("text", [
    "t,re0,im0\r\n0,1.5,0\r\n0.01,1,-0.0\r\n0.02,1,0\r\n",
    "t,re0,im0\r0,1.5,0\r\r0.01,1,0\r0.02,oops,0\r",
    "t,re0,im0\n0,1.5,0\n0.01,1,0\n0.02,1,0",
    # a form feed or NEL ends no line: str.splitlines() breaks there
    "t,re0,im0\n0,1\x0c,0\n0.01,1,0\n0.02,1\x85,0\n",
    "t,re0,im0\n0,1\x0c,0\n\x85\n0.01,1,0\n0.02,oops,0\n",
    "t,re0,im0\n", "t,re0,im0", "t,re0,im0\n0,1,0\n",
    "t,re0,im0\n0,1,0\n\n\n", "t,re0,im0\n\n\n", "t,re0,im0\n \n\t\n"],
    ids=["crlf", "cr", "no-final-newline", "ff-nel", "ff-nel-bad-row",
         "header-only", "header-only-no-newline", "one-row",
         "one-row-blank-tail", "blank-rows-only", "whitespace-rows-only"])
def test_reader_line_ends_match_per_line_scan(tmp_path, text):
    _assert_reads_as_scan(tmp_path / "ends.csv", text)


@pytest.mark.parametrize("text, message, line", [
    ("t,re0,im0\n0,1,0\n\n\n0.01,1,0\n0.025,1,0\n", "non-uniform", 6),
    ("t,re0,im0\n\n0.01,1,0\n0,1,0\n", "time column must increase", 4)],
    ids=["non-uniform", "decreasing"])
def test_reader_names_the_file_line_of_a_bad_spacing(tmp_path, text, message,
                                                      line):
    # blank lines before the bad row: the error still names its file line
    path = tmp_path / "spacing.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        read_signal_csv(path)
    assert exc.value.line == line


def test_reader_holds_no_text_of_the_whole_file(tmp_path):
    # 40 001 rows (1.5 MB of text): the read holds the parsed rows, the
    # values and work buffers, never the text or a list of its lines
    n = 40001
    path = tmp_path / "long.csv"
    write_signal_csv(path, SampledSignal(
        Domain.FULL_LINE, -200.0, 0.01,
        np.exp(0.01j * np.arange(-20000, 20001)), trusted=True))
    tracemalloc.start()
    try:
        sig = read_signal_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sig.n == n
    assert peak <= n * 3 * 8 + n * 16 + 2 * WORK_BYTES


def _outgrows(rows) -> bool:
    """Whether the record of these rows fails its growth check (k = 0)."""
    try:
        SampledSignal(Domain.FULL_LINE, rows[0, 0], rows[1, 0] - rows[0, 0],
                      rows[:, 1::2] + 1j * rows[:, 2::2])
    except GrowthError:
        return True
    return False


@settings(max_examples=40, deadline=None)
@given(line=st.integers(0, 6), field=st.none() | st.integers(0, 2),
       text=st.text("0123456789.-+eE_ ,\t\r\n\x0c\x85tnaifx", max_size=6))
@example(line=2, field=None, text="")   # a blank line before a bad spacing
def test_reader_fuzz_matches_per_line_scan(tmp_path_factory, line, field,
                                           text):
    """One field or line of a valid 6-row file replaced: the reader gives
    the per-line scan's record or its line (or, for rows the scan takes,
    the record's own growth refusal), and analyze exits 0 or 2."""
    lines = ["t,re0,im0"] + [f"{0.01 * i:.2f},{(-1) ** i * 1.25},0.5"
                             for i in range(6)]
    if field is None:
        lines[line] = text
    else:
        parts = lines[line].split(",")
        parts[field] = text
        lines[line] = ",".join(parts)
    csv = "\n".join(lines) + "\n"
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    ref = _per_line_scan(csv)
    if isinstance(ref, np.ndarray) and _outgrows(ref):
        path.write_text(csv)
        with pytest.raises(GrowthError):
            read_signal_csv(path)
    else:
        _assert_reads_as_scan(path, csv)
    out = tmp_path_factory.getbasetemp() / "fuzz.json"
    assert main(["analyze", str(path), "--kind", "laplace",
                 "--out", str(out)]) in (0, 2)


def test_reader_values_are_float_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    t = np.arange(0.0, 20.0 + 0.005, 0.01)
    sig = SampledSignal(Domain.HALF_LINE, 0.0, 0.01,
                        np.exp(1j * t)[:, None] * rng.standard_normal((1, 2)),
                        trusted=True)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    ref = np.array([[float(x) for x in line.split(",")]
                    for line in path.read_text().splitlines()[1:]])
    assert back.values.tobytes() == \
        (ref[:, 1::2] + 1j * ref[:, 2::2]).tobytes()


def _rows_one_by_one(t, values):
    """The CSV text of a per-row, per-field f-string writer."""
    d = values.shape[1]
    lines = ["t," + ",".join(f"re{c},im{c}" for c in range(d))]
    for ti, row in zip(t, values):
        fields = [f"{ti:.12g}"]
        for v in row:
            fields += [f"{v.real:.12g}", f"{v.imag:.12g}"]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_per_row_formatting(tmp_path):
    # the edge values repeated past one block of rows
    edge = np.tile([-0.0, 5e-324, 1e15, 1e16, 2 / 3, -1.5e-7, 123456.789],
                   1300)
    vals = edge[:, None] + 1j * edge[::-1, None] * np.array([[1.0, -3.0]])
    sig = SampledSignal(Domain.FULL_LINE, -2 / 3, 2 / 3, vals, trusted=True)
    path = tmp_path / "edge.csv"
    write_signal_csv(path, sig)
    assert path.read_text() == _rows_one_by_one(sig.times, sig.values)

    kernel = SimpleNamespace(time_samples=lambda dt: (-0.0, vals[:, 1]),
                             ft_support=(-np.inf, 1.0), kernel_id="edge",
                             family="S", cut_mass=0.0)
    path = tmp_path / "kernel.csv"
    write_kernel(path, kernel, dt=1 / 3)
    t = -0.0 + (1 / 3) * np.arange(len(vals))
    assert path.read_text() == _rows_one_by_one(t, vals[:, 1:])


def test_synth_and_analyze(tmp_path):
    out = str(tmp_path)
    assert main(["synth", "exp_iw1", "--out", out]) == 0
    csv = os.path.join(out, "exp_iw1.csv")
    assert os.path.exists(csv)
    meta = json.load(open(os.path.join(out, "exp_iw1.json")))
    assert meta["domain"] == "half_line"
    assert all("source" in e for e in meta["expectations"])
    rc = main(["analyze", csv, "--kind", "laplace",
               "--out", os.path.join(out, "r.json")])
    assert rc == 0
    report = json.load(open(os.path.join(out, "r.json")))
    sing = [w for w, s in zip(np.linspace(-5, 5, 101), report["status"])
            if s == "singular"]
    assert sing and all(abs(w - 1.0) <= 0.25 for w in sing)
    assert os.path.exists(os.path.join(out, "r.csv"))


def test_analyze_requires_class_for_reduced(tmp_path, capsys):
    out = str(tmp_path)
    main(["synth", "decay_exp", "--out", out])
    rc = main(["analyze", os.path.join(out, "decay_exp.csv"),
               "--kind", "reduced"])
    assert rc == 2


@pytest.mark.parametrize("kind", ["laplace", "weak-laplace", "carleman",
                                  "beurling"])
def test_analyze_refuses_class_with_a_non_reduced_kind(tmp_path, tone_csv,
                                                       capsys, kind):
    # it used to be ignored silently; now refused before any work
    out = tmp_path / "r.json"
    rc = main(["analyze", str(tone_csv), "--kind", kind, "--class", "c0",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: --class applies only to --kind reduced\n"
    assert not out.exists()


def test_analyze_accepts_a_bounded_record_with_a_rising_tail(tmp_path):
    # a beat longer than the record: bounded, though its envelope rises
    # over the last seconds; it used to exit 2 with a GrowthError
    t = np.arange(0.0, 60.0 + 0.005, 0.01)
    csv = tmp_path / "beat.csv"
    write_signal_csv(csv, SampledSignal(Domain.HALF_LINE, 0.0, 0.01,
                                        -np.exp(1.03125j * t) + np.cos(t)))
    assert main(["analyze", str(csv), "--kind", "laplace", "--grid=-2:2:1",
                 "--out", str(tmp_path / "r.json")]) == 0

def test_analyze_rejects_corrupt_csv(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("t,re0,im0\n0,1,0\nnope\n")
    rc = main(["analyze", str(bad), "--kind", "laplace"])
    assert rc == 2


def test_analyze_rejects_non_finite_samples(tmp_path, capsys):
    # a blank line before the bad row: the error still names its file line
    rows = "".join(f"{0.01 * i:.2f},1,0\n" for i in range(5))
    bad = tmp_path / "nan.csv"
    bad.write_text("t,re0,im0\n" + rows + "\n0.05,nan,0\n0.06,1,0\n")
    with pytest.raises(ParseError) as exc:
        read_signal_csv(bad)
    assert exc.value.line == 8
    rc = main(["analyze", str(bad), "--kind", "laplace"])
    assert rc == 2 and "line 8" in capsys.readouterr().err
    bad.write_text("t,re0,im0\n" + rows + "0.05,1,-inf\n")
    assert main(["analyze", str(bad), "--kind", "laplace"]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_refuses_a_row_whose_norm_overflows(tmp_path, capsys):
    # |1e200|^2 is past the float range: no growth bound holds for the
    # record, and the engines would sum inf and nan
    t = np.arange(0.0, 200.0 + 0.005, 0.01)
    vals = np.exp(1j * t)
    vals[10000] = 1e200
    csv = tmp_path / "big.csv"
    write_signal_csv(csv, SampledSignal(Domain.HALF_LINE, 0.0, 0.01, vals,
                                        trusted=True))
    with pytest.raises(GrowthError, match="t=100 is not finite"):
        read_signal_csv(csv)
    out = tmp_path / "r.json"
    rc = main(["analyze", str(csv), "--kind", "laplace", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "t=100 is not finite" in err


@pytest.fixture(scope="module")
def tone_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("tone")
    assert main(["synth", "exp_iw1", "--tmax", "60", "--out", str(out)]) == 0
    return out / "exp_iw1.csv"


@pytest.fixture(scope="module")
def default_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    for name in ("const", "exp_iw1"):
        assert main(["synth", name, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("record, cls", [
    ("const", "ergodic"), ("const", "ergodic_mean_zero"),
    ("exp_iw1", "ergodic"), ("exp_iw1", "ergodic_mean_zero")])
def test_reduced_spectrum_relative_to_the_ergodic_classes(
        tmp_path, default_records, record, cls):
    # every band output of a constant or of exp(i t) is a multiple of the
    # record, which is ergodic, so both spectra relative to "ergodic" are
    # empty.  exp(i t) has mean zero; a constant's band output has mean
    # zero exactly when the band misses 0, so relative to
    # "ergodic_mean_zero" the constant is singular at 0 alone (up to the
    # band-pass blur) and exp(i t) nowhere
    out = tmp_path / "r.json"
    assert main(["analyze", str(default_records / f"{record}.csv"),
                 "--kind", "reduced", "--class", cls, "--out", str(out)]) == 0
    status = json.loads(out.read_text())["status"]
    singular = [w for w, s in zip(np.linspace(-5, 5, 101), status)
                if s == "singular"]
    if record == "const" and cls == "ergodic_mean_zero":
        assert 0.0 in singular and all(abs(w) <= 0.5 for w in singular)
    else:
        assert singular == []


@pytest.mark.parametrize("cfg_text", ['{"grid_step": "x"}',
                                      '{"a_seq": [0.4, 0.4, 0.1]}'])
def test_analyze_rejects_bad_config(tmp_path, tone_csv, capsys, cfg_text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cfg_text)
    rc = main(["analyze", str(tone_csv), "--kind", "laplace",
               "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("grid_step" in err or "a_seq" in err)
    assert not (tmp_path / "r.json").exists()


_ROWS = "".join(f"{0.01 * i:.2f},1,0\n" for i in range(5))


@pytest.mark.parametrize("csv_text, cfg_text, kind", [
    pytest.param(None, '{"conv_out_step": 0}', ["reduced", "--class", "c0"],
                 id="conv_out_step=0"),
    pytest.param(None, '{"circle_nodes": 0}', ["laplace"],
                 id="circle_nodes=0"),
    pytest.param(None, '{"circle_nodes": -64}', ["laplace"],
                 id="circle_nodes<0"),
    pytest.param(None, '{"wl_eps_seq": [0.25, 0]}', ["weak-laplace"],
                 id="wl_eps_seq=0"),
    pytest.param(None, '{"wl_eps_seq": [-0.5]}', ["weak-laplace"],
                 id="wl_eps_seq<0"),
    pytest.param(None, '{"evolution_dt": 0}', ["laplace"],
                 id="evolution_dt=0"),
    pytest.param(None, '{"min_window": -30}', ["reduced", "--class", "c0"],
                 id="min_window<0"),
    pytest.param(None, '{"so_mollify_h": 0}', ["reduced", "--class", "slowly_oscillating"],
                 id="so_mollify_h=0"),
    pytest.param(None, '{"corpus_seed": -1}', ["laplace"],
                 id="corpus_seed<0"),
    pytest.param(None, '{"buffer_radius": -1}', ["laplace"],
                 id="buffer_radius<0"),
    pytest.param(None, '{"grid_step": 1e-12}', ["laplace"],
                 id="grid-too-large"),
    pytest.param(None, '{"grid_min": 0, "grid_max": 0.1, "grid_step": 0.1}',
                 ["laplace"], id="grid-of-two-points"),
    pytest.param("", None, ["laplace"], id="csv-empty"),
    pytest.param("t,re0,im0\n", None, ["laplace"], id="csv-header-only"),
    pytest.param("t,re0,im0\n0,1,0\n", None, ["laplace"], id="csv-one-row"),
    pytest.param("t,re0,im0\n" + _ROWS + "0.055,1,0\n", None, ["laplace"],
                 id="csv-uneven-times"),
    pytest.param("t,re0,im0\n" + _ROWS + "0.04,1,0\n", None, ["laplace"],
                 id="csv-duplicate-time"),
    pytest.param("t,re0,im0\n" + _ROWS + "0.05,1\n", None, ["laplace"],
                 id="csv-short-row"),
    pytest.param("t,re0,im0\n" + _ROWS + "0.05,inf,0\n", None, ["laplace"],
                 id="csv-inf"),
])
def test_bad_input_exits_2_without_traceback(tmp_path, tone_csv, capsys,
                                             csv_text, cfg_text, kind):
    # malformed CSV or an ill-valued config: exit 2 with a one-line
    # message, never an exception, a traceback or a report
    csv = tone_csv
    if csv_text is not None:
        csv = tmp_path / "sig.csv"
        csv.write_text(csv_text)
    argv = ["analyze", str(csv), "--kind", *kind,
            "--out", str(tmp_path / "r.json")]
    if cfg_text is not None:
        (tmp_path / "cfg.json").write_text(cfg_text)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_analyze_rejects_a_grid_step_that_does_not_divide_the_span(
        tmp_path, tone_csv, capsys):
    # 10 / 0.3 steps is no whole number: the grid would space its points
    # 0.30303 apart while the report said 0.3
    rc = main(["analyze", str(tone_csv), "--kind", "laplace",
               "--grid=-5:5:0.3", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not divide" in err
    assert not (tmp_path / "r.json").exists()


def test_weak_laplace_rejects_windows_below_one_grid_step(
        tmp_path, tone_csv, capsys):
    # eps = 0.25 rounds to no grid step of 0.5: every point would be
    # undecided for want of a window
    rc = main(["analyze", str(tone_csv), "--kind", "weak-laplace",
               "--grid=-5:5:0.5", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "wl_eps_seq" in err and "0.5" in err
    assert not (tmp_path / "r.json").exists()


def test_out_naming_a_directory_is_refused_before_any_work(
        tmp_path, tone_csv, capsys, monkeypatch):
    # an --out that is an existing directory could never be written: both
    # commands refuse it, naming it, before an engine runs
    import redspectra.spectra
    import redspectra.theorems

    def engine(*args, **kwargs):
        raise AssertionError("an engine ran before the --out check")
    monkeypatch.setattr(redspectra.spectra, "SignalAnalysis", engine)
    monkeypatch.setattr(redspectra.theorems, "run_all", engine)
    out = tmp_path / "reports"
    out.mkdir()
    for argv in (["analyze", str(tone_csv), "--kind", "reduced",
                  "--class", "c0"],
                 ["verify", "--builtin", "--only", "regular-ft"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert "is a directory" in err
    assert list(out.iterdir()) == []


def test_main_turns_every_package_error_into_exit_2(tmp_path, capsys):
    # one second of so_composite contradicts its declared growth: the
    # GrowthError is bad input, not a traceback
    assert main(["synth", "so_composite", "--tmax", "1",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_end": 1}')
    assert main(["verify", "--builtin", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("sidecar", ['{"domain": "halfline"}',
                                     '{"domain": "half_line", "growth_',
                                     '{"growth_exponent": "two"}'])
def test_analyze_rejects_bad_sidecar(tmp_path, tone_csv, capsys, sidecar):
    csv = tmp_path / "sig.csv"
    csv.write_text(tone_csv.read_text())
    (tmp_path / "sig.json").write_text(sidecar)
    rc = main(["analyze", str(csv), "--kind", "laplace",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "sig.json" in capsys.readouterr().err


@pytest.mark.parametrize("kind, record, domain", [
    ("laplace", "exp_iw1", "half_line"),
    ("weak-laplace", "exp_iw1", "half_line"),
    ("carleman", "exp_iw1_full", "full_line")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_tail_bound_refuses_the_abscissa(
        tmp_path, tone_csv, capsys, kind, record, domain):
    # (1 + T^2)^400 is past the float range on a 60 s record: each
    # abscissa is refused, as one whose bound exceeds the cap
    csv = tmp_path / "sig.csv"
    csv.write_text((tone_csv.parent / f"{record}.csv").read_text())
    (tmp_path / "sig.json").write_text(
        f'{{"domain": "{domain}", "growth_exponent": 400}}')
    rc = main(["analyze", str(csv), "--kind", kind,
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fewer than 3 admissible abscissae" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("kind", ["laplace", "weak-laplace"])
def test_analyze_rejects_full_line_record_for_half_plane_kinds(
        tmp_path, tone_csv, capsys, kind):
    full = tone_csv.parent / "exp_iw1_full.csv"
    rc = main(["analyze", str(full), "--kind", kind,
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "needs a half-line signal" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "exp_iw1", "--dt", "0", "--out", "{tmp}/s"],
                 id="synth-dt=0"),
    pytest.param(["synth", "exp_iw1", "--tmax", "0", "--out", "{tmp}/s"],
                 id="synth-tmax=0"),
    pytest.param(["synth", "exp_iw1", "--out", "{tmp}/a_file"],
                 id="synth-out-is-a-file"),
    pytest.param(["analyze", "{csv}", "--kind", "laplace",
                  "--out", "{tmp}/missing/r.json"], id="analyze-out-dir-missing"),
    pytest.param(["verify", "--builtin", "--only", "transform-identities",
                  "--out", "{tmp}/missing/r.json"], id="verify-out-dir-missing"),
    pytest.param(["verify", "{tmp}/missing", "--only", "transform-identities"],
                 id="verify-corpus-dir-missing"),
    # the directory used to be ignored silently beside --builtin
    pytest.param(["verify", "{tmp}", "--builtin", "--only", "regular-ft",
                  "--out", "{tmp}/r.json"], id="verify-corpus-dir-and-builtin"),
])
def test_bad_paths_and_zero_steps_exit_2(tmp_path, tone_csv, capsys, argv):
    # a zero --dt or --tmax is a value, not an absent flag; an output or
    # corpus path that cannot be used is an input error, not a traceback
    (tmp_path / "a_file").write_text("")
    argv = [a.format(tmp=tmp_path, csv=tone_csv) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "s").exists() and not (tmp_path / "missing").exists()
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("dt, named", [("0.3", "shift 1.0"),
                                       ("0.25", "output step 0.2")])
def test_verify_refuses_a_dt_off_the_lattice_of_its_spans(tmp_path, capsys,
                                                          dt, named):
    # a dt that misses a fixed shift, width or output step of the checks
    # used to fail a dozen of them with GridError and exit 1
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(f'{{"dt": {dt}}}')
    assert main(["verify", "--builtin", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} is not a multiple of dt={dt}")
    assert not out.exists()


@pytest.mark.parametrize("cfg_text, named", [
    ('{"wl_eps_seq": [0.04, 0.5]}', "wl_eps_seq entries [0.04] round to no "
                                    "whole grid step of 0.1"),
    ('{"a_seq": [0.4, 0.2]}', "a_seq [0.4, 0.2] holds fewer than 3")],
    ids=["wl_eps_seq", "a_seq"])
def test_verify_refuses_a_config_no_scan_can_use(tmp_path, capsys, cfg_text,
                                                named):
    # windows narrower than a grid step left all 14 chain subjects VACUOUS
    # with exit 0; two abscissae left the chain VACUOUS and failed every
    # evolution subject with a TailError
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(cfg_text)
    assert main(["verify", "--builtin", "--only", "inclusion-chain",
                 "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert not out.exists()


def test_verify_refuses_a_corpus_record_off_the_lattice_of_its_spans(
        tmp_path, capsys):
    # the spans were checked against the configured dt only, so a record
    # at dt 0.3 failed four checks with GridError and exit 1
    corpus, out = tmp_path / "corpus", tmp_path / "r.json"
    assert main(["synth", "exp_iw1", "--dt", "0.3",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["verify", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: record exp_iw1: shift 1.0 is not a multiple of " \
                  "dt=0.3\n"
    assert not out.exists()


def test_verify_refuses_a_corpus_entry_its_builder_rejects(
        tmp_path, capsys, monkeypatch):
    # an entry is built when its first job comes; a builder's package
    # error still ends the run with exit 2, never as a FAIL row
    def rejected(*args):
        raise GridError("sinc_sq cannot be built")

    monkeypatch.setitem(BUILDERS, "sinc_sq", rejected)
    out = tmp_path / "r.json"
    assert main(["verify", "--builtin", "--only", "regular-ft",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: sinc_sq cannot be built\n"
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["0.5", "20"])
def test_verify_refuses_a_horizon_below_the_minimum_window(
        tmp_path, capsys, monkeypatch, t_end):
    # at t_end 20 the run gave 1 pass, 46 fail, 16 vacuous and exit 1; at
    # 0.5 it met tchirp's GrowthError only once tchirp's first job came
    def unbuilt(*args):
        raise AssertionError("a corpus entry was built")

    for name in BUILDERS:
        monkeypatch.setitem(BUILDERS, name, unbuilt)
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(f'{{"t_end": {t_end}}}')
    assert main(["verify", "--builtin", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: t_end: horizon {t_end}s is below the minimum analysis " \
        f"window 30s\n"
    assert not out.exists()


def test_verify_refuses_a_corpus_record_below_the_minimum_window(
        tmp_path, capsys):
    corpus, out = tmp_path / "corpus", tmp_path / "r.json"
    assert main(["synth", "exp_iw1", "--tmax", "10",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["verify", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: record exp_iw1: horizon 10s " \
        "is below the minimum analysis window 30s\n"
    assert not out.exists()


def test_synth_refuses_a_mollifier_width_off_the_lattice(tmp_path, capsys):
    # round(1 / 0.3) = 3 steps wrote M_0.9 samples labelled M_1
    assert main(["synth", "chirp_mollified", "--dt", "0.3",
                 "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "mollifier width 1.0 is not a multiple of dt=0.3" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("kind", [["reduced", "--class", "c0"], ["beurling"]])
def test_reduced_kinds_refuse_a_record_too_short_for_every_rung(
        tmp_path, capsys, kind):
    # on a 10 s record no band-pass rung admits an output window; the
    # report used to hold 101 UNDECIDED points and exit 0
    assert main(["synth", "exp_iw1", "--tmax", "10",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "r.json"
    assert main(["analyze", str(tmp_path / "exp_iw1.csv"), "--kind", *kind,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no band-pass window: delta=1.0: ")
    assert not out.exists()


def test_synth_unknown_name(tmp_path):
    assert main(["synth", "not_a_signal", "--out", str(tmp_path)]) == 2


def test_verify_only_subset_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    rc1 = main(["verify", "--builtin", "--only", "transform-identities",
                "--out", str(out1)])
    rc2 = main(["verify", "--builtin", "--only", "transform-identities",
                "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2                      # byte-identical reports
    payload = json.loads(b1)
    assert all(r["check"] == "transform-identities" for r in payload)
    assert all(r["status"] == "pass" for r in payload)


def test_verify_rejects_unknown_check_id(tmp_path, capsys):
    rc = main(["verify", "--builtin", "--only", "bogus",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "inclusion-chain" in err and "evolution" in err
    assert not (tmp_path / "r.json").exists()


def test_canonical_json_formatting():
    s = canonical_json({"a": 1.0, "b": 0.1234567890123456, "c": [1, 2.5],
                        "d": complex(1, -2)})
    assert s == '{"a":1.0,"b":0.123456789012,"c":[1,2.5],"d":{"re":1.0,"im":-2.0}}'
    # numpy scalars and arrays, tuples and reports nested in evidence
    # serialize as their plain Python values do
    s = canonical_json({"f": np.float64(0.1234567890123456), "i": np.int64(-3),
                        "z": np.complex128(0.5 - 1.5j),
                        "v": np.array([1j, 2.0 + 0.25j]), "p": (1, 2.5)})
    assert s == ('{"f":0.123456789012,"i":-3,"z":{"re":0.5,"im":-1.5},'
                 '"v":[{"re":0.0,"im":1.0},{"re":2.0,"im":0.25}],"p":[1,2.5]}')
    rep = ClassReport(FunctionClass.AAP, Tri.YES,
                      {"frequencies": [np.float64(1.0)],
                       "coefficients": {"1": np.array([1.0 - 2.0j])},
                       "witness": {"t": np.float64(2.5), "k": np.int64(7)}},
                      {"scale_ref": np.float64(3.0), "lags": (0.01, 0.02)})
    assert canonical_json({"report": rep.to_dict()}) == (
        '{"report":{"class":"aap","member":"yes","evidence":'
        '{"frequencies":[1.0],"coefficients":{"1":[{"re":1.0,"im":-2.0}]},'
        '"witness":{"t":2.5,"k":7}},'
        '"tolerances":{"scale_ref":3.0,"lags":[0.01,0.02]}}}')


def test_verify_reads_the_records_of_a_corpus_dir(tmp_path):
    # a shorter exp_iw1 in the directory replaces the built-in one; the
    # other subjects keep their built-in records
    corpus = tmp_path / "corpus"
    assert main(["synth", "exp_iw1", "--tmax", "100",
                 "--out", str(corpus)]) == 0
    reports = {}
    for tag, source in (("dir", [str(corpus)]), ("builtin", ["--builtin"])):
        out = tmp_path / f"{tag}.json"
        assert main(["verify", *source, "--only", "transform-identities",
                     "--out", str(out)]) == 0
        reports[tag] = {r["subject"]: r["details"]
                        for r in json.loads(out.read_text())}
    assert list(reports["dir"]) == ["decay_exp", "exp_iw1", "chirp"]
    for name in ("decay_exp", "chirp"):
        assert reports["dir"][name] == reports["builtin"][name]
    assert reports["dir"]["exp_iw1"] != reports["builtin"]["exp_iw1"]


def test_verify_rejects_corrupt_corpus_dir(tmp_path):
    bad = tmp_path / "zero.csv"
    bad.write_text("t,re0,im0\n0,0,0\n0.01,0,0\n0.03,0,0\n")
    rc = main(["verify", str(tmp_path), "--only", "regular-ft"])
    assert rc == 2


def test_synth_expgrow_writes_kernel_sidecars(tmp_path):
    out = str(tmp_path)
    assert main(["synth", "expgrow", "--out", out]) == 0
    kernels = [p for p in os.listdir(out) if "annihilator" in p]
    assert any(p.endswith(".csv") for p in kernels)
    side = [p for p in kernels if p.endswith(".json")][0]
    meta = json.load(open(os.path.join(out, side)))
    assert meta["family"] == "D" and "cut_mass" in meta
