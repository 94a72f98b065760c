import pytest

from redspectra.config import Config
from redspectra.errors import ConfigError


def test_unknown_keys_rejected():
    # the others were Config fields that no CLI path read or no run varied;
    # the dimensionless thresholds are now constants of the engines
    for key in ("not_a_knob", "tol_ft_coeff", "tol_conv_coeff", "tol_decay",
                "eps_div", "freq_grid_divisor", "circle_nodes",
                "circle_radius_factor", "tol_analytic_coeff",
                "support_cut", "trunc_budget", "trunc_budget_strict",
                "tol_c0", "tol_erg", "tol_bohr", "tol_uc", "tol_zero",
                "decay_factor", "erg_window_frac", "blowup_thresh",
                "elevated_thresh", "grow_ratio", "cauchy_rel",
                "jump_reg_ratio", "jump_sing_ratio", "tol_match_coeff",
                "tail_cap", "tol_transform_coeff", "tol_ode_coeff"):
        with pytest.raises(ConfigError, match="unknown config keys"):
            Config.from_dict({"tol_zero_abs": 1e-8, key: 1})


def test_tolerances_must_be_positive():
    with pytest.raises(ConfigError, match="tol_zero_abs"):
        Config(tol_zero_abs=-1.0)


def test_a_seq_must_decrease():
    with pytest.raises(ConfigError):
        Config(a_seq=(0.1, 0.2))


def test_from_json_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"tol_zero_abs": 1e-6, "a_seq": [0.4, 0.1]}')
    cfg = Config.from_json(p)
    assert cfg.tol_zero_abs == 1e-6 and cfg.a_seq == (0.4, 0.1)
    p2 = tmp_path / "bad.json"
    p2.write_text('{"zzz": 1}')
    with pytest.raises(ConfigError):
        Config.from_json(p2)


def test_a_seq_rejects_equal_neighbours():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        Config(a_seq=(0.4, 0.4, 0.1))
    with pytest.raises(ConfigError):
        Config.from_dict({"a_seq": [0.4, 0.4, 0.1]})


@pytest.mark.parametrize("key, value", [
    ("grid_step", "x"), ("grid_min", None), ("tol_zero_abs", True),
    ("grid_max", float("inf")), ("corpus_seed", 1.5),
    ("buffer_radius", "0.45"),
    ("a_seq", 0.4), ("a_seq", []), ("delta_seq", ["1.0"]),
    ("wl_eps_seq", {"a": 1})])
def test_ill_typed_values_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        Config.from_dict({key: value})


def test_ints_accepted_for_float_fields():
    cfg = Config.from_dict({"grid_step": 1, "a_seq": [1, 0.5, 0.25]})
    assert cfg.grid_step == 1 and cfg.a_seq == (1, 0.5, 0.25)


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        Config.from_json(tmp_path / "absent.json")


@pytest.mark.parametrize("key, value", [
    ("conv_out_step", 0.0), ("buffer_radius", 0.0), ("buffer_radius", -1.0),
    ("wl_eps_seq", (0.25, 0.0)), ("delta_seq", (1.0, -0.5)),
    ("a_seq", (0.4, -0.1)), ("evolution_dt", 0.0), ("min_window", -30.0),
    ("so_mollify_h", 0.0), ("dt", 0.0), ("t_end", -1.0)])
def test_steps_widths_and_counts_must_be_positive(key, value):
    with pytest.raises(ConfigError, match=key):
        Config(**{key: value})
