import contextlib
import io
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xduce import ConfigError, Mode, Scheme, TransducerConfig
from xduce.cli import run_cli
from xduce.config import _SCHEMA, dump_normalized, load_config

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


def test_missing_device_section_rejected(tmp_path):
    text = "[drive]\npower_w = 1e-3\nscheme = red\n"
    with pytest.raises(ConfigError, match=r"^missing \[device\] section$"):
        load_config(write_config(tmp_path, text))


def test_bad_scheme_rejected(tmp_path):
    text = MINIMAL + "\n[drive]\npower_w = 1e-3\nscheme = purple\n"
    with pytest.raises(ConfigError, match="scheme"):
        load_config(write_config(tmp_path, text))


def test_negative_rate_rejected_as_config_error(tmp_path):
    text = MINIMAL.replace("a_kappa_i_hz = 10e6", "a_kappa_i_hz = -10e6")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


def test_subnormal_rate_from_q_rejected(tmp_path):
    # omega / Q = 6.28e-310 rad/s is subnormal; such a config used to load
    text = MINIMAL.replace("b_frequency_hz = 9e9", "b_frequency_hz = 1e-10")
    text = text.replace("b_q_i = 1.13097335529e11", "b_q_i = 1e300")
    message = (r"^\[device\] kappa = omega / Q = 6\.28\d*e-310 is not a normal double: "
               r"omega = 6\.28\d*e-10, Q = 1e\+300$")
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("r0", ["-1", "nan", "inf"])
def test_bad_herald_rate_rejected(tmp_path, r0):
    text = SHIPPED_FIXTURE.read_text()
    assert "r0_per_s = 100" in text
    text = text.replace("r0_per_s = 100", f"r0_per_s = {r0}")
    with pytest.raises(ConfigError, match="r0_per_s"):
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


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_power_points_capped_at_load(tmp_path, spacing):
    text = MINIMAL + (
        "\n[sweep]\npower_min_w = 1e-7\npower_max_w = 1e-3\npower_points = 2000\n"
        f"power_spacing = {spacing}\nq_values = 9e6\n"
    )
    assert len(load_config(write_config(tmp_path, text)).sweep.power_axis.grid()) == 2000
    text = text.replace("power_points = 2000", "power_points = 2001")
    with pytest.raises(ConfigError, match="2001"):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize(
    "old, new, section",
    [("power_points = 16", "power_points = 2001", "sweep"),
     ("power_max_w = 1e-3", "power_max_w = inf", "sweep"),
     ("dt_s = 1e-3", "dt_s = -1", "herald"),
     ("power_w = 2e-5", "power_w = -1", "drive"),
     ("a_kappa_i_hz = 10e6", "a_kappa_i_hz = -10e6", "device")],
)
def test_value_type_rejection_names_the_section(tmp_path, old, new, section):
    text = SHIPPED_FIXTURE.read_text()
    assert old in text
    with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
        load_config(write_config(tmp_path, text.replace(old, new)))


def test_unknown_output_format_rejected(tmp_path):
    text = MINIMAL + "\n[output]\nformat = parquet\n"
    with pytest.raises(ConfigError, match="format"):
        load_config(write_config(tmp_path, text))


def test_negative_seed_rejected(tmp_path):
    text = MINIMAL + "\n[output]\nseed = -1\n"
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize(
    "text, message",
    [(MINIMAL.replace("g_eo_hz = 40", "g_eo_hz = 40\ng_eo = 40"), r"^\[device\] .*g_eo\b"),
     (MINIMAL + "\n[drive]\npower = 1e-3\n", r"^\[drive\] .*power\b"),
     (MINIMAL + "\n[outputs]\nformat = csv\n", r"^unknown section \[outputs\]"),
     # [DEFAULT] keys appear in every section, and no section takes this one
     ("[DEFAULT]\nformat = csv\n" + MINIMAL, r"^\[device\] .*format")],
)
def test_unknown_section_or_field_rejected(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, text))


# Text no field should take, or take only in some kinds: a rejection names
# the field's section, or the file-level fault before any value is read.
HOSTILE_TEXT = ("", "abc", ", ,", "1,2", "nan", "-1", "1e400", "1.5", "50%")
FILE_LEVEL = ("cannot parse ", "unknown section [", "missing [device] section")


def set_field(text, section, field, value):
    """``text`` with ``field`` set to ``value``, added to ``[section]`` if absent."""
    line = f"{field} = {value}"
    if re.search(rf"^{field} = ", text, flags=re.M):
        return re.sub(rf"^{field} = .*$", lambda _: line, text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(changes=st.lists(
    st.tuples(st.sampled_from([(section, field) for section, fields in _SCHEMA.items()
                               for field in fields]),
              st.sampled_from(HOSTILE_TEXT)),
    min_size=1, max_size=2))
def test_hostile_field_is_loaded_or_rejected_in_its_section(changes):
    text = SHIPPED_FIXTURE.read_text()
    for (section, field), value in changes:
        text = set_field(text, section, field, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        try:
            load_config(path)
        except ConfigError as exc:  # any other exception fails the test
            message = str(exc)
            sections = {section for (section, _), _ in changes}
            assert (message.startswith(FILE_LEVEL)
                    or any(message.startswith(f"[{section}] ") for section in sections)), message


def test_bad_interpolation_rejected_with_its_field(tmp_path):
    text = SHIPPED_FIXTURE.read_text().replace("seed = 12345", "seed = 12345\ntable = out%.csv")
    with pytest.raises(ConfigError, match=r"^\[output\] field 'table': '%' must be followed"):
        load_config(write_config(tmp_path, text))
    text = text.replace("out%.csv", "out%%.csv")
    assert load_config(write_config(tmp_path, text)).table_path == "out%.csv"


def test_repeated_q_values_rejected(tmp_path):
    text = MINIMAL + (
        "\n[sweep]\npower_min_w = 1e-7\npower_max_w = 1e-3\npower_points = 11\n"
        "q_values = 9e7, 9e6, 9e7\n"
    )
    with pytest.raises(ConfigError, match=r"^\[sweep\] q_axis values must be distinct"):
        load_config(write_config(tmp_path, text))


def test_word_fields_ignore_case(tmp_path):
    # every word field, the words of the outputs list included, reads lower-cased
    text = SHIPPED_FIXTURE.read_text().replace("scheme = red", "scheme = blue")
    lower = load_config(write_config(tmp_path, text))
    text = text.replace("scheme = blue", "scheme = BLUE").replace(
        "outputs = efficiency, cooperativity, infidelity",
        "outputs = Efficiency, COOPERATIVITY, infidelity")
    mixed = load_config(write_config(tmp_path, text, "mixed.ini"))
    assert mixed.drive.scheme is Scheme.BLUE
    assert mixed.sweep.outputs == ("efficiency", "cooperativity", "infidelity")
    assert mixed == lower


def test_repeated_outputs_rejected(tmp_path):
    text = MINIMAL + (
        "\n[sweep]\npower_min_w = 1e-7\npower_max_w = 1e-3\npower_points = 11\n"
        "q_values = 9e6\noutputs = efficiency, efficiency\n"
    )
    with pytest.raises(ConfigError, match=r"^\[sweep\] outputs must be distinct"):
        load_config(write_config(tmp_path, text))


def _log10_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda exponent: 10.0 ** exponent)


@st.composite
def device_sections(draw):
    """A [device] section with each mode in Q form or kappa form."""
    lines = ["[device]"]
    for label in "abp":
        frequency = draw(_log10_uniform(9.0, 15.0))
        lines.append(f"{label}_frequency_hz = {frequency!r}")
        if draw(st.booleans()):
            lines += [f"{label}_q_i = {draw(_log10_uniform(3.0, 12.0))!r}",
                      f"{label}_q_ex = {draw(_log10_uniform(3.0, 12.0))!r}"]
        else:
            lines += [f"{label}_kappa_i_hz = {draw(_log10_uniform(-2.0, 8.0))!r}",
                      f"{label}_kappa_ex_hz = {draw(_log10_uniform(-2.0, 8.0))!r}"]
    lines.append(f"g_eo_hz = {draw(_log10_uniform(-1.0, 4.0))!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(device=device_sections(),
       detuning=st.one_of(st.none(), st.floats(-1e9, 1e9, allow_nan=False)))
def test_dump_normalized_round_trips(device, detuning):
    text = device + "\n[drive]\npower_w = 1e-6\n"
    if detuning is not None:
        text += f"detuning_hz = {detuning!r}\n"
    text += ("\n[herald]\ndt_s = 1e-3\nr0_per_s = 100\n"
             "\n[sweep]\npower_min_w = 1e-7\npower_max_w = 1e-3\npower_points = 2\n"
             "q_values = 9e6\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        run = load_config(path)
        dumps = set()
        for sub in ("efficiency", "sweep", "herald", "verify"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                run_cli([sub, "--config", path, "--dump-normalized"])
            dumps.add("\n".join(out.getvalue().splitlines()[:11]))
    assert dumps == {dump_normalized(run)}
    values = {}
    for line in dumps.pop().splitlines():
        key, value = line.split(" = ")
        values[key] = float(value)
    assert len(values) == 11
    modes = [Mode(label, values[f"device.{label}_omega_rad_s"],
                  values[f"device.{label}_kappa_i_rad_s"],
                  values[f"device.{label}_kappa_ex_rad_s"]) for label in "abp"]
    assert TransducerConfig(*modes, g_eo=values["device.g_eo_rad_s"]) == run.transducer
    assert values["drive.detuning_rad_s"] == run.drive.pump_detuning
