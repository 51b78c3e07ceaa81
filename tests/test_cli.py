import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xduce import (
    HBAR,
    DriveCondition,
    HeraldModel,
    InstabilityError,
    Scheme,
    blue_breakdown,
    build_linearized,
    conversion_efficiency,
    critical_pump_power,
    intracavity_photon_number,
    mc_blue_infidelity,
    retune_microwave_q,
    scattering_at,
)
from xduce import herald, scattering
from xduce.cli import MC_SAMPLES_CAP, _sweep_lines, build_parser, run_cli
from xduce.config import _SCHEMA, load_config
from xduce.svgplot import _PALETTE, render_sweep_svg
from xduce.sweep import HeraldOptions, PowerAxis, SweepSpec, SweepTable, run_sweep
from conftest import checked_float_types

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

# r0 = C * kappa_b on a linear grid from 0 W: the SVG's note, and points a
# log power axis (and the log-y infidelity panel) cannot place
LINEAR_TEMPLATE = (
    GOLDEN_TEMPLATE.replace("r0_mapping = direct", "r0_mapping = c_kappa_b")
    .replace("dt_s = 1e-3", "dt_s = 3e-7")
    .replace("power_min_w = 1e-7", "power_min_w = 0")
    .replace("power_points = 6", "power_points = 9")
    .replace("power_spacing = log", "power_spacing = linear")
    .replace("q_values = 9e6, 9e7", "q_values = 9e7, 9e6, 9e8")
)
GOLDEN_SVGS = {"golden_sweep.svg": GOLDEN_TEMPLATE, "golden_sweep_linear.svg": LINEAR_TEMPLATE}


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

    @pytest.mark.parametrize("name", sorted(GOLDEN_SVGS))
    def test_golden_svg_byte_stability(self, tmp_path, name):
        table, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        cfg = write_config(tmp_path, GOLDEN_SVGS[name].format(table=table))
        assert run_cli(["sweep", "--config", cfg, "--plot", str(svg)]) == 0
        assert svg.read_bytes() == (HERE / "data" / name).read_bytes()

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

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        mapping=st.sampled_from((None, "direct", "c_kappa_b")),
        dt=st.one_of(st.just(0.0), st.floats(1e-9, 1e-5)),
        r0=st.one_of(st.just(0.0), st.floats(1.0, 1e3)),
        q_axis=st.lists(st.floats(1e5, 1e9), min_size=1, max_size=4, unique=True),
        spacing=st.sampled_from(("log", "linear")),
        points=st.integers(2, 40),
    )
    def test_table_bytes_match_a_repr_per_cell(self, mapping, dt, r0, q_axis, spacing, points):
        # the formatter writes each distinct value once per run or per sweep;
        # the reference calls repr (or json.dumps) on every cell of every row
        device = load_config(str(SHIPPED_FIXTURE)).transducer
        options = None if mapping is None else HeraldOptions(
            dt=dt, r0_mapping=mapping, r0_value=r0 if mapping == "direct" else None)
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7 if spacing == "log" else 0.0, 1e-3, points, spacing),
            q_axis=tuple(q_axis),
            outputs=("efficiency",) + (("infidelity",) if options else ()),
            herald_options=options,
        )
        table = run_sweep(spec)
        rows = [(power, q_b, n_p, table.cooperativity[k][i], table.eta_i[k][i], table.eta[k][i],
                 None if table.infidelity is None else table.infidelity[k][i])
                for k, q_b in enumerate(table.q_b)
                for i, (power, n_p) in enumerate(zip(table.pump_power_w, table.n_p))]
        assert len(rows) == len(table)
        names = SWEEP_HEADER.split(",")
        csv = [SWEEP_HEADER] + [",".join("" if v is None else repr(v) for v in row)
                                for row in rows]
        jsonl = [json.dumps(dict(zip(names, row))) for row in rows]
        for fmt, lines in (("csv", csv), ("jsonl", jsonl)):
            assert "".join(_sweep_lines(table, fmt)) == "\n".join(lines) + "\n"

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


class TestRenderSweepSvg:
    """The SVG writer on hand-built tables, for the cases a run_sweep table
    of the shipped configs does not reach."""

    SVG = "{http://www.w3.org/2000/svg}"

    def render(self, powers, curves, outputs, note=None):
        q_b = [9e6 * 10.0**k for k in range(len(curves))]
        table = SweepTable(powers, q_b, [0.0] * len(powers), curves, curves, curves, curves)
        return ET.fromstring(render_sweep_svg(table, outputs, note=note))

    def test_one_placeable_power_widens_the_axes(self):
        # 0 W has no place on the log power axis, so 1e-4 W is alone on it:
        # both axes widen by 0.5 about its one point, which lands mid-panel
        root = self.render([0.0, 1e-4], [[0.2, 0.4]], ["efficiency"])
        ticks = [t.text for t in root.iter(self.SVG + "text")][1:6]
        assert ticks == ["3.16e-05", "0.000316", "pump power (W)", "-0.1", "0.9"]
        [path] = root.iter(self.SVG + "path")
        assert path.get("d") == "M 420.00 295.00"

    def test_log_y_curve_of_zeros_is_skipped(self):
        # the first Q's infidelity is 0 everywhere: no point of it can be
        # placed on the log-y axis, and the second Q keeps its colour
        root = self.render([1e-6, 1e-5, 1e-4], [[0.0, 0.0, 0.0], [1e-3, 1e-2, 1e-1]],
                           ["infidelity"])
        [path] = root.iter(self.SVG + "path")
        assert path.get("stroke") == _PALETTE[1]
        assert len(path.get("d").split(" L ")) == 3
        assert len(list(root.iter(self.SVG + "rect"))) == 2

    def test_note_text_is_escaped(self):
        note = """r0 & <mu> > "1" 'a'"""
        root = self.render([1e-6, 1e-5], [[0.1, 0.2]], ["efficiency"], note=note)
        assert [t.text for t in root.iter(self.SVG + "text")
                if t.get("font-size") == "9"] == [note]

    @pytest.mark.parametrize("infidelity", [None, [[0.0, 0.0]]], ids=["absent", "zero"])
    def test_note_goes_to_the_first_panel_that_draws(self, infidelity):
        # the infidelity panel is absent, or can place no point on its log-y
        # axis: the second panel takes the note, and the third has none
        curves = [[0.1, 0.2]]
        table = SweepTable([1e-6, 1e-5], [9e6], [0.0, 0.0], curves, curves, curves, infidelity)
        root = ET.fromstring(render_sweep_svg(
            table, ["infidelity", "efficiency", "cooperativity"], note="r0 & mu"))
        notes = [t for t in root.iter(self.SVG + "text") if t.get("font-size") == "9"]
        assert [(t.text, t.get("x")) for t in notes] == [("r0 & mu", "326.67")]

    def test_unknown_output_raises(self):
        with pytest.raises(ValueError, match="no such output column: 'eta'"):
            self.render([1e-6, 1e-5], [[0.1, 0.2]], ["efficiency", "eta"])

    def test_imports_no_xml_library(self):
        code = ("import sys, xduce.svgplot; "
                "print(sorted({m.split('.')[0] for m in sys.modules} & {'xml', 'html'}))")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

    def test_blue_small_mu_prints_accurate_probabilities(self, tmp_path, capsys):
        # mu = 1e-9, where 1 - P0 - P1 cancels to pmn = -5.46e-17 and
        # infidelity = -5.36e-17; the keys and their order stay the same
        text = Path(self._blue_config(tmp_path)).read_text()
        assert "r0_per_s = 100\n" in text
        text = text.replace("r0_per_s = 100\n", "r0_per_s = 1e-6\n")
        assert run_cli(["herald", "--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "scheme,mu,p0,p1,p11,pmn,infidelity"
        record = parse_single_record(out)
        with localcontext() as ctx:
            ctx.prec = 60
            mu = Decimal(record["mu"])
            p0 = (-mu).exp()
            pmn = 2 * (1 - p0 - mu * p0)
            infidelity = pmn + (mu * p0) ** 2
        for key, expected in (("pmn", pmn), ("infidelity", infidelity)):
            assert abs(Decimal(record[key]) - expected) <= Decimal("1e-12") * expected, key

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

    def test_c_kappa_b_mapping_note_matches_sweep(self, tmp_path, capsys):
        # the linear golden SVG's config: the sweep's note is in that SVG
        direct = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=""), "direct.ini")
        mapped = write_config(tmp_path, LINEAR_TEMPLATE.format(table=""), "mapped.ini")
        assert run_cli(["sweep", "--config", mapped]) == 0
        note = capsys.readouterr().err
        assert note == "r0 mapping: c_kappa_b (r0 = C * kappa_b), an explicit modeling assumption\n"
        assert run_cli(["herald", "--config", mapped]) == 0
        assert capsys.readouterr().err == note
        assert run_cli(["herald", "--config", direct]) == 0
        assert capsys.readouterr().err == ""

    def test_c_kappa_b_note_only_when_the_sweep_computes_infidelity(self, tmp_path, capsys):
        # without infidelity the sweep computes no r0, so it states no mapping
        text = LINEAR_TEMPLATE.format(table="").replace(
            "outputs = efficiency, cooperativity, infidelity", "outputs = efficiency")
        cfg = write_config(tmp_path, text)
        plot = tmp_path / "plot.svg"
        assert run_cli(["sweep", "--config", cfg, "--plot", str(plot)]) == 0
        assert capsys.readouterr().err == ""
        assert "r0 mapping" not in plot.read_text()
        assert run_cli(["herald", "--config", cfg]) == 0
        assert capsys.readouterr().err.startswith("r0 mapping: c_kappa_b ")

    def test_c_kappa_b_note_goes_to_the_first_panel_that_draws(self, tmp_path, capsys):
        # with g_eo = 0 every infidelity is 0, so the log-y first panel draws
        # nothing and the efficiency panel carries the note
        text = (SHIPPED_FIXTURE.read_text()
                .replace("r0_mapping = direct", "r0_mapping = c_kappa_b")
                .replace("g_eo_hz = 40", "g_eo_hz = 0")
                .replace("outputs = efficiency, cooperativity, infidelity",
                         "outputs = infidelity, efficiency"))
        cfg = write_config(tmp_path, text)
        plot = tmp_path / "plot.svg"
        assert run_cli(["sweep", "--config", cfg, "--plot", str(plot)]) == 0
        note = capsys.readouterr().err.rstrip("\n")
        assert note.startswith("r0 mapping: c_kappa_b ")
        assert plot.read_text().count(f">{note}</text>") == 1

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

    @pytest.mark.parametrize("samples", [str(MC_SAMPLES_CAP + 1), "10000000000000"])
    def test_mc_over_cap_exits_5_before_drawing(self, tmp_path, capsys, monkeypatch, samples):
        def no_draw(*args):
            raise AssertionError("an MC block was drawn")

        monkeypatch.setattr(herald, "_count_errors", no_draw)
        cfg = self._blue_config(tmp_path)
        assert run_cli(["herald", "--config", cfg, "--mc", samples]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MC_SAMPLES_CAP}" in captured.err

    def test_mc_at_cap_is_drawn(self, tmp_path, capsys, monkeypatch):
        # the benchmark's cold calls use --mc 1000000; the cap is inclusive
        assert MC_SAMPLES_CAP >= 1_000_000
        calls = []
        monkeypatch.setattr(herald, "_count_errors", lambda *args: calls.append(args) or 0)
        cfg = self._blue_config(tmp_path)
        assert run_cli(["herald", "--config", cfg, "--mc", str(MC_SAMPLES_CAP)]) == 0
        assert [args[1] for args in calls] == [MC_SAMPLES_CAP]
        assert float(parse_single_record(capsys.readouterr().out)["mc_infidelity"]) == 0.0

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

    @pytest.mark.parametrize(
        "device, power, unstable",
        [
            # within ULPs of C = 1: 4G^2/(kappa_a kappa_b) reads 1.0 on the first
            # design (stable) and 1 - 2^-53 on the second (unstable), so a
            # C >= threshold comparison gets both wrong
            (dict(a_kappa_i_hz=50791236.426916, a_kappa_ex_hz=1182539.606077645,
                  b_kappa_i_hz=0.03817280945439754, b_kappa_ex_hz=8937.807806513782,
                  g_eo_hz=79.42052423288257), 0.00022248450657787555, False),
            (dict(a_kappa_i_hz=32872724.72470641, a_kappa_ex_hz=82081205.84802534,
                  b_kappa_i_hz=0.0579223617818918, b_kappa_ex_hz=108.335833192638,
                  g_eo_hz=21.103857223363086), 8.45186484881175e-05, True),
            ({}, 0.5, False),
            ({}, 4.0, True),
        ],
    )
    def test_blue_instability_line_follows_the_solver(self, tmp_path, capsys, device,
                                                      power, unstable):
        text = DEVICE_SECTION
        for key, value in device.items():
            text = re.sub(f"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
        if not device:  # shipped device, power in units of P*
            power *= critical_pump_power(load_config(str(SHIPPED_FIXTURE)).transducer)
        path = write_config(tmp_path, text + f"\n[drive]\npower_w = {power!r}\nscheme = blue\n")
        run = load_config(path)
        n_p = intracavity_photon_number(run.transducer.mode_p, run.drive)
        blue = build_linearized(run.transducer, n_p, Scheme.BLUE)
        try:
            scattering_at(blue, 0.0)
            raises = False
        except InstabilityError:
            raises = True
        assert raises == unstable
        assert run_cli(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        c = conversion_efficiency(run.transducer, n_p).cooperativity
        line = f"blue drive is unstable: C = {c!r} is at or beyond the threshold\n"
        assert (line in out) == raises
        assert out.count("unstable") == raises

    def test_output_seed_does_not_change_verify(self, tmp_path, capsys):
        # the probe offsets are a fixed grid; [output] seed only seeds herald --mc
        outs = []
        for seed in ("12345", "1"):
            text = SHIPPED_FIXTURE.read_text().replace("seed = 12345", f"seed = {seed}")
            assert run_cli(["verify", "--config", write_config(tmp_path, text)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_probes_are_the_midpoints_of_32_cells(self, tmp_path, capsys):
        # at this power the rounding-level reciprocity gap differs between
        # neighbouring grids, so the printed maxima pin the offsets
        text = SHIPPED_FIXTURE.read_text().replace("power_w = 2e-5", "power_w = 1e-4")
        path = write_config(tmp_path, text)
        run = load_config(path)
        n_p = intracavity_photon_number(run.transducer.mode_p, run.drive)
        red = build_linearized(run.transducer, n_p, Scheme.RED)
        span = 5.0 * max(red.kappa_a, red.kappa_b)

        def maxima(cells):
            points = [scattering_at(red, span * ((2 * k + 1) / cells - 1.0))
                      for k in range(cells)]
            return (max(0.0, *(p.conversion - 1.0 for p in points)),
                    max(0.0, *(abs(abs(p.amplitude_ab) - abs(p.amplitude_ba)) for p in points)))

        excess, gap = maxima(32)
        assert all(maxima(cells)[1] != gap for cells in (16, 31, 33, 64))
        assert run_cli(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "probe_offsets_checked = 32\n" in out
        assert f"max_conversion_excess_over_1 = {excess!r}\n" in out
        assert f"max_reciprocity_gap = {gap!r}\n" in out

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

    @pytest.mark.parametrize("old, new, named", [
        ("power_points = 16", "power_point = 16", ("[sweep]", "power_point")),
        ("[sweep]", "[sweeep]", ("[sweeep]",)),
    ])
    def test_unknown_section_or_field_exits_2(self, tmp_path, capsys, old, new, named):
        text = SHIPPED_FIXTURE.read_text()
        assert old in text
        assert run_cli(["sweep", "--config", write_config(tmp_path, text.replace(old, new))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(word in captured.err for word in named), captured.err

    @pytest.mark.parametrize("sub", ["sweep", "herald"])
    def test_missing_section_exits_2(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, DEVICE_SECTION)
        assert run_cli([sub, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: missing [{sub}] section\n"

    def test_domain_error_exits_3(self, tmp_path):
        # mu >= 10 rows are outside the herald model regime
        text = DEVICE_SECTION + (
            "\n[drive]\npower_w = 1e-3\nscheme = red\n"
            "\n[herald]\ndt_s = 1.0\nr0_mapping = direct\nr0_per_s = 100\n"
            "\n[sweep]\npower_min_w = 1e-4\npower_max_w = 1e-3\npower_points = 2\n"
            "power_spacing = log\nq_values = 9e6\noutputs = infidelity\n"
        )
        assert run_cli(["sweep", "--config", write_config(tmp_path, text)]) == 3

    def test_unreadable_config_exits_4(self, tmp_path, capsys):
        assert run_cli(["efficiency", "--config", str(tmp_path / "missing.ini")]) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_unwritable_table_exits_4(self, tmp_path):
        table = tmp_path / "no" / "such" / "dir" / "out.csv"
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=table))
        assert run_cli(["sweep", "--config", cfg]) == 4

    @pytest.mark.parametrize("sub", ["efficiency", "sweep", "herald", "verify"])
    def test_dump_normalized_to_a_failing_stdout_exits_4(self, capsys, monkeypatch, sub):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run_cli([sub, "--config", str(SHIPPED_FIXTURE), "--dump-normalized"]) == 4
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("to_file", [True, False])
    def test_unwritable_plot_leaves_no_output(self, tmp_path, capsys, to_file):
        # neither the table (file or stdout) nor a temporary file is left behind
        text = GOLDEN_TEMPLATE.format(table=tmp_path / "out.csv")
        if not to_file:
            text = text.replace(f"table = {tmp_path / 'out.csv'}\n", "")
        assert ("table =" in text) == to_file
        cfg = write_config(tmp_path, text)
        plot = tmp_path / "no" / "such" / "dir" / "plot.svg"
        assert run_cli(["sweep", "--config", cfg, "--plot", str(plot)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(plot) in captured.err
        assert sorted(os.listdir(tmp_path)) == ["run.ini"]

    @pytest.mark.parametrize("output, via_link", [("plot", False), ("plot", True),
                                                  ("table", False)])
    def test_directory_output_exits_4_before_writing(self, tmp_path, capsys, output, via_link):
        # refused before the table reaches stdout or any file is staged
        folder = tmp_path / "folder"
        folder.mkdir()
        target = folder
        if via_link:
            target = tmp_path / "link"
            target.symlink_to(folder)
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(
            table=target if output == "table" else ""))
        plot = target if output == "plot" else tmp_path / "plot.svg"
        assert run_cli(["sweep", "--config", cfg, "--plot", str(plot)]) == 4
        with pytest.raises(IsADirectoryError) as opened:
            open(target, "w")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"i/o error: {opened.value}\n"
        assert sorted(os.listdir(tmp_path)) == sorted(["folder", "run.ini"]
                                                      + ["link"] * via_link)
        assert os.listdir(folder) == []

    @pytest.mark.parametrize("plot", ["out.csv", "./out.csv"])
    def test_table_and_plot_on_one_path_exit_2(self, tmp_path, monkeypatch, capsys, plot):
        # both staged files would be renamed onto one path, the table lost
        text = SHIPPED_FIXTURE.read_text().replace("[output]\n", "[output]\ntable = out.csv\n")
        cfg = write_config(tmp_path, text)
        monkeypatch.chdir(tmp_path)
        assert run_cli(["sweep", "--config", cfg, "--plot", plot]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert plot in captured.err
        assert sorted(os.listdir(tmp_path)) == ["run.ini"]

    def test_outputs_replace_files_with_the_mode_open_gives(self, tmp_path):
        table, plot = tmp_path / "out.csv", tmp_path / "plot.svg"
        table.write_text("stale")
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=table))
        assert run_cli(["sweep", "--config", cfg, "--plot", str(plot)]) == 0
        assert table.read_bytes() == GOLDEN_CSV.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "plot.svg", "run.ini"]
        fresh = tmp_path / "fresh"
        with open(fresh, "w"):
            pass
        assert table.stat().st_mode == plot.stat().st_mode == fresh.stat().st_mode

    def test_outputs_write_through_symlinks(self, tmp_path):
        # a symlinked output is written in place, through the link
        table = tmp_path / "real.csv"
        table.write_text("stale")
        link = tmp_path / "link.csv"
        link.symlink_to(table)
        cfg = write_config(tmp_path, GOLDEN_TEMPLATE.format(table=link))
        assert run_cli(["sweep", "--config", cfg]) == 0
        assert link.is_symlink()
        assert table.read_bytes() == GOLDEN_CSV.read_bytes()

    def test_plot_to_a_pipe_is_written_in_place(self, tmp_path, capsys):
        # a pipe (or /dev/stdout) has nothing to rename: it is written directly
        fifo = tmp_path / "plot.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            argv = ["sweep", "--config", str(SHIPPED_FIXTURE), "--plot", str(fifo)]
            assert run_cli(argv) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert data.startswith(b"<svg") and data.rstrip().endswith(b"</svg>")
        assert fifo.is_fifo()
        assert sorted(os.listdir(tmp_path)) == ["plot.fifo"]
        assert capsys.readouterr().out.startswith(SWEEP_HEADER)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "scheme, r0, dt",
        [("blue", "1e4", "1e-3"), ("blue", "100", "1"), ("blue", "100", "1e308"),
         ("red", "100", "1e308")],
    )
    def test_herald_outside_regime_exits_3(self, tmp_path, capsys, fmt, scheme, r0, dt):
        # blue: mu = 10 and mu = 100 are outside the model regime; both
        # schemes: dt = 1e308 overflows mu = r0 * dt
        text = (SHIPPED_FIXTURE.read_text().replace("scheme = red", f"scheme = {scheme}")
                .replace("r0_per_s = 100", f"r0_per_s = {r0}").replace("dt_s = 1e-3", f"dt_s = {dt}"))
        cfg = write_config(tmp_path, text)
        assert run_cli(["herald", "--config", cfg, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error: mu" in captured.err

    def test_verify_determinant_overflow_exits_3(self, tmp_path, capsys):
        text = SHIPPED_FIXTURE.read_text()
        old = "b_kappa_i_hz = 0.07957747154594767"
        assert old in text
        # kappa_a * kappa_b overflows: the closed form rejects it before any solve
        cfg = write_config(tmp_path, text.replace(old, "b_kappa_i_hz = 1e300"))
        assert run_cli(["verify", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kappa_a * kappa_b = inf is not a normal double" in captured.err
        # a normal kappa_a * kappa_b, but the probes at 5 kappa_b square past
        # the doubles in the determinant
        text = text.replace(old, "b_kappa_i_hz = 1e160").replace("power_w = 2e-5",
                                                                 "power_w = 1e100")
        assert run_cli(["verify", "--config", write_config(tmp_path, text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "determinant is (-inf+infj)" in captured.err

    def test_herald_just_inside_regime_exits_0(self, tmp_path, capsys):
        text = (SHIPPED_FIXTURE.read_text().replace("scheme = red", "scheme = blue")
                .replace("r0_per_s = 100", "r0_per_s = 9990"))
        assert run_cli(["herald", "--config", write_config(tmp_path, text)]) == 0
        record = parse_single_record(capsys.readouterr().out)
        assert 0.0 < float(record["infidelity"]) < 2.0

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

    def test_repeated_outputs_exit_2(self, tmp_path, capsys):
        text = GOLDEN_TEMPLATE.format(table=tmp_path / "out.csv")
        text = text.replace("outputs = efficiency, cooperativity, infidelity",
                            "outputs = efficiency, efficiency")
        plot = tmp_path / "plot.svg"
        assert run_cli(["sweep", "--config", write_config(tmp_path, text), "--plot",
                        str(plot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: [sweep] outputs must be distinct")
        assert sorted(os.listdir(tmp_path)) == ["run.ini"]

    def test_too_many_power_points_exits_2(self, tmp_path, capsys):
        text = GOLDEN_TEMPLATE.format(table=tmp_path / "out.csv")
        text = text.replace("power_points = 6", "power_points = 2001")
        plot = tmp_path / "plot.svg"
        assert run_cli(["sweep", "--config", write_config(tmp_path, text), "--plot",
                        str(plot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 to 2000 points, got 2001" in captured.err
        assert sorted(os.listdir(tmp_path)) == ["run.ini"]

    @pytest.mark.parametrize("r0", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("sub", ["herald", "sweep"])
    def test_bad_herald_rate_exits_2(self, tmp_path, capsys, sub, r0):
        text = SHIPPED_FIXTURE.read_text().replace("r0_per_s = 100", f"r0_per_s = {r0}")
        assert run_cli([sub, "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "r0_per_s" in captured.err

    @pytest.mark.parametrize(
        "sub, flags",
        [("efficiency", ["--mc", "5"]), ("efficiency", ["--seed", "1"]),
         ("efficiency", ["--plot", "x.svg"]), ("efficiency", ["--probes", "3"]),
         ("sweep", ["--mc", "5"]), ("sweep", ["--seed", "1"]), ("sweep", ["--probes", "3"]),
         ("herald", ["--plot", "x.svg"]), ("herald", ["--probes", "3"]),
         ("verify", ["--format", "csv"]), ("verify", ["--plot", "x.svg"]),
         ("verify", ["--mc", "5"]), ("verify", ["--seed", "1"]), ("verify", ["--probes", "3"])],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys, sub, flags):
        svg = tmp_path / "x.svg"
        flags = [str(svg) if flag == "x.svg" else flag for flag in flags]
        with pytest.raises(SystemExit) as exc_info:
            run_cli([sub, "--config", str(SHIPPED_FIXTURE), *flags])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not svg.exists()

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


def fresh_python(*argv):
    """Run a fresh interpreter with ``argv`` and the package on its path."""
    src = str(HERE.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=False)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency, and numpy and the SVG writer load only
    # in the subcommands that use them: importing the package, its CLI and
    # its config loader must pull in none of them
    code = ("import xduce, xduce.cli, xduce.config, sys; "
            "print([m for m in ('numpy', 'scipy', 'xduce.svgplot') if m in sys.modules])")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # the value types are built without the dataclass machinery, whose
    # import pulls in inspect, ast and dis on every cold start
    code = ("import xduce, xduce.cli, xduce.config, sys; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_that_is_not_utf8_exits_2(tmp_path):
    # a UTF-16 file starts with the bytes ff fe, which UTF-8 cannot decode
    cfg = tmp_path / "utf16.ini"
    cfg.write_bytes(SHIPPED_FIXTURE.read_text().encode("utf-16"))
    proc = fresh_python("-m", "xduce.cli", "efficiency", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"cannot parse {cfg}: 'utf-8' codec can't decode byte 0xff" in proc.stderr


# Every rate near 1e-160 Hz: kappa_a * kappa_b is the subnormal 1.73e-322 and
# g_eo^2 underflows to 0, where C is about 382.
TINY_KAPPA = (("a_kappa_i_hz", "2.30525e-161"), ("a_kappa_ex_hz", "5.54244e-162"),
              ("b_kappa_i_hz", "1.54768e-163"), ("b_kappa_ex_hz", "9.91374e-169"),
              ("p_kappa_i_hz", "5.4312e-158"), ("p_kappa_ex_hz", "6.17442e-153"),
              ("g_eo_hz", "3.10095e-240"), ("power_w", "5.59361e-14"))


# The pump linewidth at 1e-150 Hz: the buildup hbar omega_p (kappa_p/2)^2 is
# the subnormal 5.06e-318.
SUBNORMAL_BUILDUP = (("p_kappa_i_hz", "1e-150"), ("p_kappa_ex_hz", "1e-150"),
                     ("power_w", "1e-160"))


# The pump linewidth at 1e-160 Hz under a 1e300 Hz pump: (kappa_p/2)^2 is the
# subnormal 9.87e-320, but the buildup is a normal double.
SUBNORMAL_SQUARE = (("p_frequency_hz", "1e300"), ("p_kappa_i_hz", "0.5e-160"),
                    ("p_kappa_ex_hz", "0.5e-160"))


def with_fields(text: str, fields) -> str:
    for key, value in fields:
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    return text


def test_verify_residual_failure_exits_3(monkeypatch, capsys):
    # a failed 2x2 residual check is an ArithmeticError: a domain error, not
    # a traceback
    monkeypatch.setattr(scattering, "_RESIDUAL_RTOL", -1.0)
    assert run_cli(["verify", "--config", str(SHIPPED_FIXTURE)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: 2x2 residual")


@pytest.mark.parametrize("command", ["efficiency", "sweep", "verify"])
def test_tiny_kappa_config_exits_3(tmp_path, command):
    # C and eta would read 0 here; the product that leaves the normal
    # doubles is named instead
    text = with_fields(SHIPPED_FIXTURE.read_text(), TINY_KAPPA)
    proc = fresh_python("-m", "xduce.cli", command, "--config", write_config(tmp_path, text))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("domain error: ")
    assert " is not a normal double" in proc.stderr


@pytest.mark.parametrize("command", ["efficiency", "sweep", "verify"])
def test_subnormal_pump_buildup_exits_3(tmp_path, capsys, command):
    # n_p came out off by 2.7e-7 relative, and verify passed, as both of its
    # sides shared that n_p
    text = with_fields(SHIPPED_FIXTURE.read_text(), SUBNORMAL_BUILDUP)
    assert run_cli([command, "--config", write_config(tmp_path, text)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the sweep names its first point, the grid's lowest power at the lowest Q
    where = "sweep failed at Q_b = 9e+06, power = 1e-07 W: " * (command == "sweep")
    assert captured.err.startswith(f"domain error: {where}pump buildup hbar * omega_p * "
                                   f"((kappa_p/2)^2 + delta_p^2) = 5.06")


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda exponent: 10.0 ** exponent)


@st.composite
def hostile_configs(draw):
    """A config that loads, with rates and coupling anywhere from far below to
    far above any device, powers down to the subnormals, and herald means
    from 1e-12 to past the model's regime."""
    lines = ["[device]"]
    for label in "abp":
        lines += [f"{label}_frequency_hz = {draw(_log_uniform(9.0, 15.0))!r}",
                  f"{label}_kappa_i_hz = {draw(_log_uniform(-150.0, 150.0))!r}",
                  f"{label}_kappa_ex_hz = {draw(_log_uniform(-150.0, 150.0))!r}"]
    g_eo = draw(st.just(0.0) | _log_uniform(-300.0, 150.0))
    power = draw(st.just(0.0) | _log_uniform(-320.0, 10.0))
    lines += [f"g_eo_hz = {g_eo!r}", "", "[drive]", f"power_w = {power!r}",
              f"scheme = {draw(st.sampled_from(['red', 'blue']))}"]
    dt = draw(_log_uniform(-15.0, 0.0))
    mu = draw(_log_uniform(-12.0, 1.3))
    lines += ["", "[herald]", f"dt_s = {dt!r}",
              f"r0_mapping = {draw(st.sampled_from(['direct', 'c_kappa_b']))}",
              f"r0_per_s = {mu / dt!r}"]
    low, high = sorted(draw(st.lists(st.floats(-320.0, 10.0), min_size=2, max_size=2,
                                     unique=True)))
    q_values = draw(st.lists(_log_uniform(3.0, 12.0), min_size=1, max_size=2, unique=True))
    lines += ["", "[sweep]", f"power_min_w = {10.0 ** low!r}", f"power_max_w = {10.0 ** high!r}",
              f"power_points = {draw(st.integers(2, 3))}",
              f"power_spacing = {draw(st.sampled_from(['log', 'linear']))}",
              f"q_values = {', '.join(map(repr, q_values))}",
              "outputs = efficiency, cooperativity, infidelity"]
    return "\n".join(lines) + "\n"


def assert_cooperativity(c: float, n_p: float, cfg) -> None:
    """C is 0 only where g_eo n_p is 0 or the exact C is below the least
    subnormal, and within 1e-9 of the exact C where that is a normal double."""
    exact = (4 * Fraction(n_p) * Fraction(cfg.g_eo) ** 2
             / (Fraction(cfg.mode_a.kappa) * Fraction(cfg.mode_b.kappa)))
    assert c >= 0.0
    if c == 0.0:
        assert exact < Fraction(2.0 ** -1074)
    if exact >= Fraction(sys.float_info.min):
        assert abs(Fraction(c) - exact) <= exact / 10**9


def assert_photon_number(n_p: float, mode_p, power: float) -> None:
    """n_p is 0 only where the exact n_p (a ``Fraction`` of the power and the
    loaded rates, on resonance) is, and otherwise within 1e-9 of it, which
    is then a normal double."""
    exact = (Fraction(mode_p.kappa_ex) * Fraction(power) / Fraction(HBAR)
             / Fraction(mode_p.omega) / (Fraction(mode_p.kappa) / 2) ** 2)
    if n_p == 0.0:
        assert exact == 0
    else:
        assert exact >= Fraction(sys.float_info.min)
        assert abs(Fraction(n_p) - exact) <= exact / 10**9


def assert_probabilities(record: dict, *keys) -> None:
    for key in keys:
        assert 0.0 <= record[key] <= 1.0, key


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=hostile_configs())
@example(text=with_fields(SHIPPED_FIXTURE.read_text(), TINY_KAPPA))
@example(text=with_fields(SHIPPED_FIXTURE.read_text(),
                          (("scheme", "blue"), ("r0_per_s", "1e-6"))))
@example(text=with_fields(SHIPPED_FIXTURE.read_text(), SUBNORMAL_BUILDUP))
@example(text=with_fields(SHIPPED_FIXTURE.read_text(), SUBNORMAL_SQUARE))
def test_commands_keep_their_contract_on_hostile_configs(text):
    # every exit is a success, a config error or a domain error, and what a
    # success prints is in range; verify never exits 6 here, so its oracle
    # agrees with the closed form wherever the closed form answers
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        Path(path).write_text(text, encoding="utf-8")
        for command in ("efficiency", "herald", "sweep", "verify"):
            argv = [command, "--config", path] + ["--format", "jsonl"] * (command != "verify")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run_cli(argv)
            assert code in (0, 2, 3), command
            if code == 0 and command != "verify":
                records[command] = [json.loads(line) for line in out.getvalue().splitlines()]
        run = load_config(path) if records else None
    for record in records.get("efficiency", ()):
        assert_probabilities(record, "eta_internal", "eta", "extraction_a", "extraction_b")
        assert_photon_number(record["n_p"], run.transducer.mode_p, run.drive.pump_power)
        assert_cooperativity(record["cooperativity"], record["n_p"], run.transducer)
    for record in records.get("herald", ()):
        assert_probabilities(record, *(key for key in ("p0", "p1", "p11")
                                       if record[key] is not None))
        assert record["pmn"] is None or record["pmn"] >= 0.0
        assert record["infidelity"] >= 0.0
    for record in records.get("sweep", ()):
        assert_probabilities(record, "eta_internal", "eta")
        assert_photon_number(record["n_p"], run.transducer.mode_p, record["pump_power_w"])
        assert_cooperativity(record["cooperativity"], record["n_p"],
                             retune_microwave_q(run.transducer, record["q_b"]))
        assert record["infidelity"] >= 0.0


def test_verify_with_a_subnormal_eta_exits_3(tmp_path):
    # n_p, g_eo^2 and C's numerator are normal doubles, but C and eta (about
    # 4.7e-316) are below them, where eta cannot carry 9 significant digits
    text = with_fields(SHIPPED_FIXTURE.read_text(),
                       (("g_eo_hz", "1e-153"), ("power_w", "1.6e-11")))
    cfg = write_config(tmp_path, text)
    proc = fresh_python("-m", "xduce.cli", "verify", "--config", cfg)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert re.fullmatch(r"domain error: eta = 4\.7\d*e-316 is subnormal: a subnormal double "
                        r"carries fewer than 9 significant digits, so it cannot carry the "
                        r"1e-09 agreement\n", proc.stderr)
    assert "Traceback" not in proc.stderr


def test_module_run_verifies():
    # python -m xduce.cli runs the command line like the xduce script does
    proc = fresh_python("-m", "xduce.cli", "verify", "--config", str(SHIPPED_FIXTURE))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("verification passed\n")


@pytest.mark.parametrize("sub", ["efficiency", "herald", "verify"])
def test_numpy_free_subcommands_leave_numpy_unloaded(sub):
    code = ("import sys; from xduce.cli import run_cli; rc = run_cli(sys.argv[1:]); "
            "print(rc, 'numpy' in sys.modules, file=sys.stderr)")
    proc = fresh_python("-c", code, sub, "--config", str(SHIPPED_FIXTURE))
    assert proc.stderr.strip() == "0 False"
    assert proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--plot", "{tmp}/plot.svg"], ["sweep", "--format", "jsonl"], ["verify"],
     ["herald", "--mc", "20000", "--seed", "5", "--format", "jsonl"]],
)
def test_fresh_process_matches_in_process(tmp_path, capsys, argv):
    # numpy and svgplot load inside the subcommands that need them; a cold
    # process must give the same bytes as one that already has them loaded
    text = SHIPPED_FIXTURE.read_text().replace("scheme = red", "scheme = blue")
    cfg = write_config(tmp_path, text)
    outputs = {}
    for where in ("fresh", "in_process"):
        out_dir = tmp_path / where
        out_dir.mkdir()
        args = [argv[0], "--config", cfg] + [a.format(tmp=out_dir) for a in argv[1:]]
        if where == "fresh":
            proc = fresh_python("-c", "from xduce.cli import main; main()", *args)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            code = run_cli(args)
            out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        outputs[where] = (code, out, err, files)
    assert outputs["fresh"] == outputs["in_process"]
    assert outputs["fresh"][0] == 0
    assert ("plot.svg" in outputs["fresh"][3]) == ("--plot" in argv)


def test_dump_normalized_shows_two_pi_conversion(tmp_path, capsys):
    cfg = write_config(tmp_path, DEVICE_SECTION)
    rc = run_cli(["efficiency", "--config", cfg, "--dump-normalized"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"device.a_omega_rad_s = {2.0 * math.pi * 193.5e12!r}" in out
    assert f"device.b_kappa_ex_rad_s = {2.0 * math.pi * 1000.0!r}" in out


# Every numeric field of the shipped config, and values a hostile config may
# hold in them: the specials, and log-uniform magnitudes over the double range.
NUMERIC_FIELDS = (
    "a_frequency_hz", "a_kappa_i_hz", "a_kappa_ex_hz", "b_frequency_hz", "b_kappa_i_hz",
    "b_kappa_ex_hz", "p_frequency_hz", "p_kappa_i_hz", "p_kappa_ex_hz", "g_eo_hz",
    "power_w", "detuning_hz", "dt_s", "r0_per_s", "power_min_w", "power_max_w",
    "power_points", "q_values", "seed",
)
SPECIAL_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", "5e-324")
HOSTILE_VALUE = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.floats(-320.0, 308.0).map(lambda exponent: repr(10.0 ** exponent)),
)


def _reject_constant(constant):
    raise ValueError(f"not JSON: {constant}")


def _assert_finite_numbers(fmt, out):
    """Every number ``out`` prints is finite, and JSONL is strict JSON."""
    lines = out.splitlines()
    if fmt == "jsonl":
        values = [v for line in lines
                  for v in json.loads(line, parse_constant=_reject_constant).values()]
        numbers = [v for v in values if isinstance(v, (int, float))]
    else:
        cells = [cell for line in lines[1:] for cell in line.split(",")]  # after the header
        numbers = [float(cell) for cell in cells if cell not in ("", "red", "blue")]
    assert numbers, out
    assert all(math.isfinite(v) for v in numbers), out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    changes=st.lists(st.tuples(st.sampled_from(NUMERIC_FIELDS), HOSTILE_VALUE),
                     min_size=1, max_size=3),
    scheme=st.sampled_from(("red", "blue")),
    mapping=st.sampled_from(("direct", "c_kappa_b")),
)
@example(changes=[("dt_s", "1e308")], scheme="red", mapping="direct")
@example(changes=[("dt_s", "1e308")], scheme="blue", mapping="direct")
@example(changes=[("b_kappa_i_hz", "1e+300")], scheme="red", mapping="direct")
def test_hostile_config_keeps_the_exit_code_contract(changes, scheme, mapping):
    text = SHIPPED_FIXTURE.read_text().replace("scheme = red", f"scheme = {scheme}")
    text = text.replace("r0_mapping = direct", f"r0_mapping = {mapping}")
    for field, value in changes:
        text = re.sub(rf"^{field} = .*$", f"{field} = {value}", text, flags=re.M)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(text)
        runs = [
            ("efficiency", "csv", []), ("efficiency", "jsonl", []),
            ("herald", "csv", []), ("herald", "jsonl", []),
            ("herald", "jsonl", ["--mc", "1000", "--seed", "3"]),
            ("sweep", "csv", ["--plot", os.path.join(tmp, "plot.svg")]),
            ("sweep", "jsonl", []),
            ("verify", None, []),
        ]
        for sub, fmt, extra in runs:
            argv = [sub, "--config", cfg, *(["--format", fmt] if fmt else []), *extra]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in (0, 2, 3, 4, 5, 6), (argv, text, err.getvalue())
            if code == 0 and fmt is not None:
                _assert_finite_numbers(fmt, out.getvalue())


# Every flag a subcommand may be given, with valid and invalid values; None
# marks a flag that takes no value. --mc and --probes stay small, or --mc is
# over its cap and refused before any block is drawn, so no example runs long.
ARGV_VALUES = {
    "--format": st.sampled_from(("csv", "jsonl", "xml", "")),
    "--plot": st.sampled_from(("plot.svg", os.path.join("missing", "plot.svg"))),
    "--mc": st.one_of(st.sampled_from(("-1", "0", "1", "many", "1e3",
                                       str(MC_SAMPLES_CAP + 1), "10000000000000")),
                      st.integers(2, 20000).map(str)),
    "--seed": st.sampled_from(("-1", "0", "1", str(2**200), "seven", "1.5")),
    "--probes": st.one_of(st.sampled_from(("-1", "0", "1", "all", "2.5")),
                          st.integers(2, 64).map(str)),
    "--dump-normalized": st.none(),
}


def parser_flags():
    """Each subcommand's long options, as ``build_parser`` gives them."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: set(re.findall(r"--[a-z-]+", parser.format_usage()))
            for name, parser in subparsers.choices.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sub=st.sampled_from(sorted(parser_flags())), scheme=st.sampled_from(("red", "blue")),
       stray=st.booleans(), data=st.data())
def test_no_argv_exits_1(sub, scheme, stray, data):
    # half the examples give only flags the subcommand reads, so most of them
    # get past argparse
    pool = sorted(ARGV_VALUES if stray else parser_flags()[sub] & set(ARGV_VALUES))
    flags = data.draw(st.lists(st.sampled_from(pool), unique=True))
    text = SHIPPED_FIXTURE.read_text().replace("scheme = red", f"scheme = {scheme}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [sub, "--config", cfg]
        for flag in flags:
            value = data.draw(ARGV_VALUES[flag], label=flag)
            if flag == "--plot":
                value = os.path.join(tmp, value)
            argv += [flag] if value is None else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_cli(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = ("usage", exc.code)
        assert code in (0, 2, 3, 4, 5, 6, ("usage", 2)), (argv, err.getvalue())


def test_readme_synopsis_lists_the_parser_flags():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## Command line", 1)[1].split("```")[1]
    listed = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
              for line in synopsis.splitlines() if line.startswith("xduce ")}
    assert listed == parser_flags()


def test_readme_config_table_lists_the_schema():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| section | field | kind |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    listed = {}
    for row in rows:
        section, field, kind = (cell.strip().strip("`") for cell in row.split("|")[1:4])
        listed.setdefault(section, {})[field] = kind
    assert listed == {section: {field: re.sub(r"^an? ", "", spec[0]) for field, spec in fields.items()}
                      for section, fields in _SCHEMA.items()}


def test_readme_numpy_paragraph_lists_the_checked_types():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    (paragraph,) = (part for part in readme.split("\n\n") if "NumPy scalars" in part)
    missing = {t.__name__ for t in checked_float_types()} - set(re.findall(r"`(\w+)`", paragraph))
    assert not missing, missing
