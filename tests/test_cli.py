import json
import os

import numpy as np
import pytest

from redspectra.cli import main
from redspectra.io_utils import (canonical_json, read_signal_csv,
                                 write_signal_csv)
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
