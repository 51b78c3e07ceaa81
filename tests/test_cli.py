import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from xduce import (
    DriveCondition,
    HeraldModel,
    Scheme,
    blue_breakdown,
    conversion_efficiency,
    critical_pump_power,
    intracavity_photon_number,
    mc_blue_infidelity,
    retune_microwave_q,
)
from xduce.cli import run_cli
from xduce.config import load_config

HERE = Path(__file__).resolve().parent
SHIPPED_FIXTURE = HERE.parent / "configs" / "device.ini"
GOLDEN_CSV = HERE / "data" / "golden_sweep.csv"
SWEEP_HEADER = "pump_power_w,q_b,n_p,cooperativity,eta_internal,eta,infidelity"

DEVICE_SECTION = """\
[device]
a_frequency_hz = 193.5e12
a_kappa_i_hz = 10e6
a_kappa_ex_hz = 20e6
b_frequency_hz = 9e9
b_kappa_i_hz = 0.07957747154594767
b_kappa_ex_hz = 1000
p_frequency_hz = 193.5e12
p_kappa_i_hz = 15e6
p_kappa_ex_hz = 15e6
g_eo_hz = 40
"""

GOLDEN_TEMPLATE = DEVICE_SECTION + """
[drive]
power_w = 2e-5
detuning_hz = 0
scheme = red

[herald]
dt_s = 1e-3
r0_mapping = direct
r0_per_s = 100

[sweep]
power_min_w = 1e-7
power_max_w = 1e-3
power_points = 6
power_spacing = log
q_values = 9e6, 9e7
outputs = efficiency, cooperativity, infidelity

[output]
format = csv
table = {table}
seed = 12345
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_single_record(output: str) -> dict:
    header, values = output.strip().splitlines()
    return dict(zip(header.split(","), values.split(",")))


class TestEfficiencyCommand:
    def test_worked_example_matches_library(self, capsys):
        rc = run_cli(["efficiency", "--config", str(SHIPPED_FIXTURE)])
        assert rc == 0
        record = parse_single_record(capsys.readouterr().out)
        run = load_config(str(SHIPPED_FIXTURE))
        n_p = intracavity_photon_number(run.transducer.mode_p, run.drive)
        breakdown = conversion_efficiency(run.transducer, n_p)
        assert float(record["n_p"]) == n_p
        assert float(record["cooperativity"]) == breakdown.cooperativity
        assert float(record["eta"]) == breakdown.eta
        # independent hand calculation of C from the raw config numbers
        two_pi = 2.0 * math.pi
        g = two_pi * 40.0
        kappa_a = two_pi * 10e6 + two_pi * 20e6
        kappa_b = two_pi * 0.07957747154594767 + two_pi * 1000.0
        hand_c = 4.0 * n_p * g * g / (kappa_a * kappa_b)
        assert float(record["cooperativity"]) == pytest.approx(hand_c, rel=1e-12)

    def test_critical_coupling_fixture_has_unit_internal_efficiency(self, tmp_path, capsys):
        run = load_config(str(SHIPPED_FIXTURE))
        p_star = critical_pump_power(run.transducer)
        text = DEVICE_SECTION + f"\n[drive]\npower_w = {p_star!r}\nscheme = red\n"
        rc = run_cli(["efficiency", "--config", write_config(tmp_path, text)])
        assert rc == 0
        record = parse_single_record(capsys.readouterr().out)
        assert float(record["eta_internal"]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_power_fixture_is_all_zero(self, tmp_path, capsys):
        text = DEVICE_SECTION + "\n[drive]\npower_w = 0\nscheme = red\n"
        rc = run_cli(["efficiency", "--config", write_config(tmp_path, text)])
        assert rc == 0
        record = parse_single_record(capsys.readouterr().out)
        for column in ("n_p", "cooperativity", "eta_internal", "eta"):
            assert float(record[column]) == 0.0

    def test_jsonl_format(self, capsys):
        rc = run_cli(["efficiency", "--config", str(SHIPPED_FIXTURE), "--format", "jsonl"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {
            "n_p", "cooperativity", "eta_internal", "eta", "extraction_a", "extraction_b",
        }


class TestSweepCommand:
    def test_golden_file_byte_stability(self, tmp_path):
        golden = GOLDEN_CSV.read_bytes()
        outputs = []
        for name in ("first.csv", "second.csv"):
            table = tmp_path / name
            cfg = write_config(
                tmp_path, GOLDEN_TEMPLATE.format(table=table), f"{name}.ini"
            )
            assert run_cli(["sweep", "--config", cfg]) == 0
            outputs.append(table.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == golden

    def test_header_contract(self, tmp_path):
        table = tmp_path / "out.csv"
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=table))
        run_cli(["sweep", "--config", cfg])
        first_line = table.read_text().splitlines()[0]
        assert first_line == "pump_power_w,q_b,n_p,cooperativity,eta_internal,eta,infidelity"

    def test_degenerate_single_point_sweep(self, tmp_path, capsys):
        text = DEVICE_SECTION + (
            "\n[sweep]\npower_min_w = 1e-5\npower_max_w = 2e-5\npower_points = 2\n"
            "power_spacing = linear\nq_values = 9e6\noutputs = efficiency\n"
        )
        rc = run_cli(["sweep", "--config", write_config(tmp_path, text)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("pump_power_w,")
        assert len(lines) == 3

    def test_jsonl_rows(self, tmp_path, capsys):
        text = GOLDEN_TEMPLATE.format(table="").replace("table = \n", "")
        cfg = write_config(tmp_path, text)
        rc = run_cli(["sweep", "--config", cfg, "--format", "jsonl"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        row = json.loads(lines[0])
        assert set(row) == {
            "pump_power_w", "q_b", "n_p", "cooperativity", "eta_internal", "eta", "infidelity",
        }

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_table_bytes_match_scalar_reference(self, tmp_path, fmt):
        # a c_kappa_b sweep, with one infidelity per point, against rows built
        # one at a time from the scalar API
        text = GOLDEN_TEMPLATE.replace("r0_mapping = direct", "r0_mapping = c_kappa_b")
        text = text.replace("dt_s = 1e-3", "dt_s = 3e-7").replace("power_points = 6",
                                                                  "power_points = 40")
        table = tmp_path / f"out.{fmt}"
        assert run_cli(["sweep", "--config", write_config(tmp_path, text.format(table=table)),
                        "--format", fmt]) == 0
        run = load_config(str(tmp_path / "run.ini"))
        lines = [] if fmt == "jsonl" else [SWEEP_HEADER]
        for q_b in (9e6, 9e7):
            cfg = retune_microwave_q(run.transducer, q_b)
            for power in np.geomspace(1e-7, 1e-3, 40).tolist():
                n_p = intracavity_photon_number(cfg.mode_p, DriveCondition(pump_power=power))
                point = conversion_efficiency(cfg, n_p)
                model = HeraldModel(r0=point.cooperativity * cfg.mode_b.kappa, dt=3e-7,
                                    scheme=Scheme.BLUE)
                values = [power, q_b, n_p, point.cooperativity, point.eta_i, point.eta,
                          blue_breakdown(model).infidelity]
                if fmt == "jsonl":
                    lines.append(json.dumps(dict(zip(SWEEP_HEADER.split(","), values))))
                else:
                    lines.append(",".join(map(repr, values)))
        assert table.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_svg_structure_one_path_per_q(self, tmp_path):
        svg_path = tmp_path / "plot.svg"
        text = DEVICE_SECTION + (
            "\n[sweep]\npower_min_w = 1e-7\npower_max_w = 1e-3\npower_points = 12\n"
            "power_spacing = log\nq_values = 9e6, 9e7\noutputs = efficiency\n"
        )
        cfg = write_config(tmp_path, text)
        rc = run_cli(["sweep", "--config", cfg, "--plot", str(svg_path)])
        assert rc == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.get("viewBox") == "0 0 800 600"
        paths = root.findall("{http://www.w3.org/2000/svg}path")
        assert len(paths) == 2

    def test_svg_three_panels(self, tmp_path):
        svg_path = tmp_path / "plot.svg"
        table = tmp_path / "out.csv"
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=table))
        rc = run_cli(["sweep", "--config", cfg, "--plot", str(svg_path)])
        assert rc == 0
        root = ET.fromstring(svg_path.read_text())
        paths = root.findall("{http://www.w3.org/2000/svg}path")
        assert len(paths) == 3 * 2


class TestHeraldCommand:
    def _blue_config(self, tmp_path, extra=""):
        text = DEVICE_SECTION + (
            "\n[drive]\npower_w = 2e-5\nscheme = blue\n"
            "\n[herald]\ndt_s = 1e-3\nr0_mapping = direct\nr0_per_s = 100\n" + extra
        )
        return write_config(tmp_path, text)

    def test_blue_fixture_reference_infidelity(self, tmp_path, capsys):
        rc = run_cli(["herald", "--config", self._blue_config(tmp_path)])
        assert rc == 0
        record = parse_single_record(capsys.readouterr().out)
        assert float(record["mu"]) == pytest.approx(0.1, rel=1e-12)
        assert float(record["infidelity"]) == pytest.approx(0.0175450, abs=1e-6)

    def test_red_breakdown_reported(self, capsys):
        rc = run_cli(["herald", "--config", str(SHIPPED_FIXTURE)])
        assert rc == 0
        record = parse_single_record(capsys.readouterr().out)
        assert record["scheme"] == "red"
        assert record["p1"] == ""
        assert record["pmn"] == ""
        assert float(record["infidelity"]) == pytest.approx(math.exp(-0.2), rel=1e-12)

    def test_mc_reproducible_and_matches_library(self, tmp_path, capsys):
        cfg = self._blue_config(tmp_path)
        args = ["herald", "--config", cfg, "--mc", "100000", "--seed", "77"]
        assert run_cli(args) == 0
        first = parse_single_record(capsys.readouterr().out)
        assert run_cli(args) == 0
        second = parse_single_record(capsys.readouterr().out)
        assert first == second
        expected = mc_blue_infidelity(
            HeraldModel(r0=100.0, dt=1e-3, scheme=Scheme.BLUE), 100000, seed=77
        )
        assert float(first["mc_infidelity"]) == expected.infidelity_mean
        assert float(first["mc_gap_sigma"]) == pytest.approx(
            (float(first["infidelity"]) - expected.infidelity_mean) / expected.standard_error
        )

    def test_zero_rate_mc_is_exactly_zero(self, tmp_path, capsys):
        text = DEVICE_SECTION + (
            "\n[drive]\npower_w = 0\nscheme = blue\n"
            "\n[herald]\ndt_s = 1e-3\nr0_mapping = direct\nr0_per_s = 0\n"
        )
        cfg = write_config(tmp_path, text)
        assert run_cli(["herald", "--config", cfg, "--mc", "10000"]) == 0
        record = parse_single_record(capsys.readouterr().out)
        assert float(record["infidelity"]) == 0.0
        assert float(record["mc_infidelity"]) == 0.0

    def test_zero_mc_errors_give_finite_json_gap(self, tmp_path, capsys):
        # mu = 1e-5: 1000 trials see no error, yet the closed form is non-zero,
        # so the standard error is 0 and the Wilson half-width scales the gap
        text = DEVICE_SECTION + (
            "\n[drive]\npower_w = 2e-5\nscheme = blue\n"
            "\n[herald]\ndt_s = 1e-3\nr0_mapping = direct\nr0_per_s = 0.01\n"
        )
        cfg = write_config(tmp_path, text)
        assert run_cli(["herald", "--config", cfg, "--mc", "1000", "--format", "jsonl"]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        record = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert record["mc_infidelity"] == 0.0 and record["mc_standard_error"] == 0.0
        assert record["infidelity"] > 0.0
        # z = 1 Wilson half-width at zero successes in n trials is 1 / (2 (n + 1))
        assert record["mc_gap_sigma"] == pytest.approx(record["infidelity"] * 2.0 * 1001.0)

    def test_red_with_mc_unsupported(self, capsys):
        rc = run_cli(["herald", "--config", str(SHIPPED_FIXTURE), "--mc", "1000"])
        assert rc == 5


class TestVerifyCommand:
    def test_shipped_fixture_passes(self, capsys):
        rc = run_cli(["verify", "--config", str(SHIPPED_FIXTURE)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_relative_deviation" in out
        assert "blue_parametric_threshold_C = 1.0" in out

    def test_zero_coupling_fixture(self, tmp_path, capsys):
        text = DEVICE_SECTION.replace("g_eo_hz = 40", "g_eo_hz = 0")
        text += "\n[drive]\npower_w = 1e-3\nscheme = red\n"
        rc = run_cli(["verify", "--config", write_config(tmp_path, text)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_relative_deviation = 0.0" in out
        assert "blue_parametric_threshold_C = inf" in out

    def test_blue_fixture_beyond_threshold_reports_instability(self, tmp_path, capsys):
        run = load_config(str(SHIPPED_FIXTURE))
        p_star = critical_pump_power(run.transducer)
        text = DEVICE_SECTION + f"\n[drive]\npower_w = {4.0 * p_star!r}\nscheme = blue\n"
        rc = run_cli(["verify", "--config", write_config(tmp_path, text)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unstable" in out
        assert "blue_parametric_threshold_C = 1.0" in out

    def test_deviation_above_tolerance_exits_6(self, tmp_path, capsys, monkeypatch):
        import xduce.scattering as scattering_mod
        from xduce.scattering import ScatteringPoint

        real = scattering_mod.scattering_at

        def skewed(sys_, omega):
            point = real(sys_, omega)
            return ScatteringPoint(
                probe_offset=point.probe_offset,
                amplitude_ab=point.amplitude_ab,
                amplitude_ba=point.amplitude_ba,
                conversion=point.conversion * (1.0 + 1e-6),
            )

        monkeypatch.setattr(scattering_mod, "scattering_at", skewed)
        rc = run_cli(["verify", "--config", str(SHIPPED_FIXTURE)])
        assert rc == 6


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[device]\na_frequency_hz = not_a_number\n")
        assert run_cli(["efficiency", "--config", cfg]) == 2

    def test_missing_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, DEVICE_SECTION)
        assert run_cli(["sweep", "--config", cfg]) == 2

    def test_domain_error_exits_3(self, tmp_path):
        # mu >= 10 rows are outside the herald model regime
        text = DEVICE_SECTION + (
            "\n[drive]\npower_w = 1e-3\nscheme = red\n"
            "\n[herald]\ndt_s = 1.0\nr0_mapping = direct\nr0_per_s = 100\n"
            "\n[sweep]\npower_min_w = 1e-4\npower_max_w = 1e-3\npower_points = 2\n"
            "power_spacing = log\nq_values = 9e6\noutputs = infidelity\n"
        )
        assert run_cli(["sweep", "--config", write_config(tmp_path, text)]) == 3

    def test_unreadable_config_exits_4(self, tmp_path):
        assert run_cli(["efficiency", "--config", str(tmp_path / "missing.ini")]) == 4

    def test_unwritable_table_exits_4(self, tmp_path):
        table = tmp_path / "no" / "such" / "dir" / "out.csv"
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=table))
        assert run_cli(["sweep", "--config", cfg]) == 4

    def test_unsupported_exits_5(self):
        assert run_cli(["herald", "--config", str(SHIPPED_FIXTURE), "--mc", "10"]) == 5

    def test_overflowing_cooperativity_exits_3(self, tmp_path, capsys):
        # C ~ 1e204 overflows (1 + C)**2 in the internal efficiency
        text = SHIPPED_FIXTURE.read_text()
        efficiency = write_config(
            tmp_path, text.replace("power_w = 2e-5", "power_w = 1e200"), "eff.ini"
        )
        assert run_cli(["efficiency", "--config", efficiency]) == 3
        sweep = write_config(
            tmp_path, text.replace("power_max_w = 1e-3", "power_max_w = 1e200"), "sweep.ini"
        )
        assert run_cli(["sweep", "--config", sweep]) == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [("q_values = 9e6, 9e7", "q_values = nan, 9e7"),
         ("q_values = 9e6, 9e7", "q_values = 9e6, inf"),
         ("power_max_w = 1e-3", "power_max_w = inf"),
         ("power_min_w = 1e-7", "power_min_w = nan")],
    )
    def test_non_finite_sweep_values_rejected_at_load(self, tmp_path, capsys, old, new):
        text = SHIPPED_FIXTURE.read_text()
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        assert run_cli(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--probes", "-1"], ["--seed", "-1"]])
    def test_negative_verify_arguments_exit_5(self, capsys, flags):
        assert run_cli(["verify", "--config", str(SHIPPED_FIXTURE), *flags]) == 5
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["efficiency", "verify"])
    def test_negative_config_seed_exits_2(self, tmp_path, capsys, sub):
        text = SHIPPED_FIXTURE.read_text().replace("seed = 12345", "seed = -1")
        assert run_cli([sub, "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err

    @pytest.mark.parametrize("old, new", [("detuning_hz = 0", "detuning_hz = 1e200"),
                                          ("g_eo_hz = 40", "g_eo_hz = 1e200")])
    @pytest.mark.parametrize("sub", ["efficiency", "verify", "sweep"])
    def test_overflowing_square_of_config_value_exits_3(self, tmp_path, capsys, sub, old, new):
        text = SHIPPED_FIXTURE.read_text()
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        assert run_cli([sub, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "^2 overflows" in captured.err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: importing the package and its CLI must
    # not pull it in
    src = str(HERE.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import xduce, xduce.cli, xduce.config, sys; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_dump_normalized_shows_two_pi_conversion(tmp_path, capsys):
    cfg = write_config(tmp_path, DEVICE_SECTION)
    rc = run_cli(["efficiency", "--config", cfg, "--dump-normalized"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"device.a_omega_rad_s = {2.0 * math.pi * 193.5e12!r}" in out
    assert f"device.b_kappa_ex_rad_s = {2.0 * math.pi * 1000.0!r}" in out
