import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from redspectra.classes import ClassReport, FunctionClass, Tri
from redspectra.cli import main
from redspectra.io_utils import (canonical_json, read_signal_csv,
                                 write_kernel, write_signal_csv)
from redspectra.errors import ParseError
from redspectra.signals import Domain, SampledSignal


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
    """The row-by-row reader: float() per field, whitespace-only lines
    skipped; returns the rows or the file line of the first error."""
    rows, row_lines = [], []
    lines = text.splitlines()
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            return ln
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            return ln
        row_lines.append(ln)
    finite = np.isfinite(rows).all(axis=1)
    return row_lines[int(np.argmin(finite))] if not finite.all() else \
        np.asarray(rows)


@pytest.mark.parametrize("row", [
    "0.02,1_0,0", "0.02, 1 ,0", "0.02,0x1,0", "0.02,1e,0",
    "0.02,infinity,0", "0.02,nan,0", "   ", "", "0.02,1,0,"])
def test_reader_odd_tokens_match_per_line_scan(tmp_path, row):
    """The vectorised reader gives the per-line scan's values, or its
    error at the same file line."""
    rows = [f"{0.01 * i:.2f},{(-1) ** i * 1.25},0.5" for i in range(6)]
    # an odd sample replaces the t = 0.02 row; a blank line goes before it
    rows[2:2 + row.startswith("0.02")] = [row]
    text = "t,re0,im0\n" + "\n".join(rows) + "\n"
    path = tmp_path / "odd.csv"
    path.write_text(text)
    ref = _per_line_scan(text)
    if isinstance(ref, int):
        with pytest.raises(ParseError) as exc:
            read_signal_csv(path)
        assert exc.value.line == ref
    else:
        sig = read_signal_csv(path)
        assert np.array_equal(sig.times, ref[:, 0])
        assert sig.values.tobytes() == (ref[:, 1] + 1j * ref[:, 2])[:, None] \
            .tobytes()


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


@pytest.fixture(scope="module")
def tone_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("tone")
    assert main(["synth", "exp_iw1", "--tmax", "60", "--out", str(out)]) == 0
    return out / "exp_iw1.csv"


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
