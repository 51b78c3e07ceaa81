import math
from pathlib import Path

import pytest

from xduce import ConfigError, Scheme
from xduce.config import dump_normalized, load_config

SHIPPED_FIXTURE = Path(__file__).resolve().parent.parent / "configs" / "device.ini"

MINIMAL = """\
[device]
a_frequency_hz = 193.5e12
a_kappa_i_hz = 10e6
a_kappa_ex_hz = 20e6
b_frequency_hz = 9e9
b_q_i = 1.13097335529e11
b_q_ex = 9e6
p_frequency_hz = 193.5e12
p_kappa_i_hz = 15e6
p_kappa_ex_hz = 15e6
g_eo_hz = 40
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_shipped_fixture_loads():
    run = load_config(str(SHIPPED_FIXTURE))
    assert run.drive.scheme is Scheme.RED
    assert run.drive.pump_power == 2e-5
    assert run.sweep is not None
    assert run.herald is not None
    assert run.seed == 12345


def test_hz_to_rad_conversion_is_exactly_two_pi(tmp_path):
    run = load_config(write_config(tmp_path, MINIMAL))
    assert run.transducer.mode_a.omega == 2.0 * math.pi * 193.5e12
    assert run.transducer.mode_a.kappa_i == 2.0 * math.pi * 10e6
    assert run.transducer.mode_a.kappa_ex == 2.0 * math.pi * 20e6
    assert run.transducer.g_eo == 2.0 * math.pi * 40.0


def test_quality_factor_route(tmp_path):
    run = load_config(write_config(tmp_path, MINIMAL))
    b = run.transducer.mode_b
    # Q_i ~ omega * 2 s, Q_ex = omega / (2 pi * 1 kHz)
    assert b.kappa_i == pytest.approx(0.5, rel=1e-9)
    assert b.kappa_ex == pytest.approx(2.0 * math.pi * 1000.0, rel=1e-9)


def test_dump_normalized_lists_rad_s_values(tmp_path):
    run = load_config(write_config(tmp_path, MINIMAL))
    dump = dump_normalized(run)
    assert f"device.a_omega_rad_s = {2.0 * math.pi * 193.5e12!r}" in dump
    assert f"device.g_eo_rad_s = {2.0 * math.pi * 40.0!r}" in dump


def test_defaults_without_optional_sections(tmp_path):
    run = load_config(write_config(tmp_path, MINIMAL))
    assert run.drive.pump_power == 0.0
    assert run.drive.scheme is Scheme.RED
    assert run.herald is None
    assert run.sweep is None
    assert run.out_format == "csv"
    assert run.seed == 0


def test_mixed_q_and_kappa_rejected(tmp_path):
    text = MINIMAL.replace("b_q_i = 1.13097335529e11", "b_q_i = 1e11\nb_kappa_i_hz = 1.0")
    with pytest.raises(ConfigError, match="mode b"):
        load_config(write_config(tmp_path, text))


def test_missing_losses_rejected(tmp_path):
    text = MINIMAL.replace("b_q_i = 1.13097335529e11\nb_q_ex = 9e6\n", "")
    with pytest.raises(ConfigError, match="mode b"):
        load_config(write_config(tmp_path, text))


def test_missing_frequency_rejected(tmp_path):
    text = MINIMAL.replace("p_frequency_hz = 193.5e12\n", "")
    with pytest.raises(ConfigError, match="p_frequency_hz"):
        load_config(write_config(tmp_path, text))


def test_bad_number_names_field(tmp_path):
    text = MINIMAL.replace("g_eo_hz = 40", "g_eo_hz = forty")
    with pytest.raises(ConfigError, match="g_eo_hz"):
        load_config(write_config(tmp_path, text))


def test_bad_scheme_rejected(tmp_path):
    text = MINIMAL + "\n[drive]\npower_w = 1e-3\nscheme = purple\n"
    with pytest.raises(ConfigError, match="scheme"):
        load_config(write_config(tmp_path, text))


def test_negative_rate_rejected_as_config_error(tmp_path):
    text = MINIMAL.replace("a_kappa_i_hz = 10e6", "a_kappa_i_hz = -10e6")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


def test_syntax_error_reports_line(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "not an ini file at all\n"))


def test_sweep_section_parses(tmp_path):
    text = MINIMAL + (
        "\n[sweep]\npower_min_w = 1e-7\npower_max_w = 1e-3\npower_points = 11\n"
        "power_spacing = log\nq_values = 9e6, 9e7\noutputs = efficiency\n"
    )
    run = load_config(write_config(tmp_path, text))
    assert run.sweep.q_axis == (9e6, 9e7)
    assert run.sweep.outputs == ("efficiency",)
    assert len(run.sweep.power_axis.grid()) == 11


def test_unknown_output_format_rejected(tmp_path):
    text = MINIMAL + "\n[output]\nformat = parquet\n"
    with pytest.raises(ConfigError, match="format"):
        load_config(write_config(tmp_path, text))


def test_negative_seed_rejected(tmp_path):
    text = MINIMAL + "\n[output]\nseed = -1\n"
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_config(tmp_path, text))
