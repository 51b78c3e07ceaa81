import math

import numpy as np
import pytest

from xduce import (
    BracketingError,
    DomainError,
    DriveCondition,
    HeraldModel,
    HeraldOptions,
    ModelRegimeError,
    PowerAxis,
    Scheme,
    SweepSpec,
    UsageError,
    blue_breakdown,
    conversion_efficiency,
    cooperativity,
    critical_pump_power,
    infidelity_curve,
    intracavity_photon_number,
    maximize_efficiency,
    retune_microwave_q,
    run_sweep,
)
from xduce.sweep import _golden_section_max
from conftest import make_device


def eta_of_power(cfg, power):
    n_p = intracavity_photon_number(cfg.mode_p, DriveCondition(pump_power=power))
    return conversion_efficiency(cfg, n_p).eta


class TestPowerAxis:
    def test_linear_grid(self):
        axis = PowerAxis(0.0, 1e-3, points=5, spacing="linear")
        assert axis.grid() == pytest.approx(np.linspace(0.0, 1e-3, 5))

    def test_log_grid_default_density(self):
        axis = PowerAxis(1e-7, 1e-2, spacing="log")
        grid = axis.grid()
        assert len(grid) == 1000  # 200 per decade over 5 decades
        assert grid[0] == pytest.approx(1e-7)
        assert grid[-1] == pytest.approx(1e-2)

    def test_log_grid_capped(self):
        axis = PowerAxis(1e-12, 1e-1, spacing="log")
        assert len(axis.grid()) == 2000

    def test_validation(self):
        with pytest.raises(DomainError):
            PowerAxis(1e-3, 1e-3, points=5)
        with pytest.raises(DomainError):
            PowerAxis(0.0, 1e-3, spacing="log")
        with pytest.raises(DomainError):
            PowerAxis(1e-7, 1e-3, points=1)
        with pytest.raises(DomainError):
            PowerAxis(0.0, 1e-3, spacing="linear")
        for bounds in ((1e-7, math.inf), (math.nan, 1e-3), (1e-7, math.nan)):
            with pytest.raises(DomainError, match="finite"):
                PowerAxis(*bounds, points=4, spacing="log")


class TestSweepSpec:
    @pytest.mark.parametrize("q_axis", [(math.nan, 9e7), (9e6, math.inf), (0.0,), ()])
    def test_bad_q_values_rejected(self, device, q_axis):
        with pytest.raises(DomainError, match="q_axis"):
            SweepSpec(config=device, power_axis=PowerAxis(1e-7, 1e-3, points=4), q_axis=q_axis)

    def test_numpy_q_values_become_floats(self, device):
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-3, points=4),
            q_axis=np.array([9e7, 9e6]),
        )
        assert spec.q_axis == (9e7, 9e6)
        assert all(type(q) is float for q in spec.q_axis)
        assert {repr(row.q_b) for row in run_sweep(spec)} == {"9000000.0", "90000000.0"}


class TestRetune:
    def test_sets_total_q_and_keeps_split(self, device):
        retuned = retune_microwave_q(device, 1e7)
        b = retuned.mode_b
        assert b.omega / b.kappa == pytest.approx(1e7, rel=1e-12)
        assert b.extraction == pytest.approx(device.mode_b.extraction, rel=1e-12)

    def test_rejects_nonpositive_q(self, device):
        with pytest.raises(DomainError):
            retune_microwave_q(device, 0.0)


class TestRunSweep:
    def test_degenerate_sweep_matches_direct_evaluation(self, device):
        q_b = device.mode_b.omega / device.mode_b.kappa
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(2e-5, 3e-5, points=2, spacing="linear"),
            q_axis=(q_b,),
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        cfg = retune_microwave_q(device, q_b)
        n_p = intracavity_photon_number(cfg.mode_p, DriveCondition(pump_power=2e-5))
        breakdown = conversion_efficiency(cfg, n_p)
        assert rows[0].n_p == n_p
        assert rows[0].cooperativity == breakdown.cooperativity
        assert rows[0].eta == breakdown.eta
        assert rows[0].infidelity is None

    def test_rows_ordered_and_finite(self, device):
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-3, points=25, spacing="log"),
            q_axis=(9e7, 9e6),
        )
        rows = run_sweep(spec)
        keys = [(row.q_b, row.pump_power_w) for row in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert math.isfinite(row.n_p) and math.isfinite(row.eta)

    def test_peak_power_matches_closed_form_within_grid_step(self, device):
        points = 400
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-2, points=points, spacing="log"),
            q_axis=(9e6, 9e7),
        )
        rows = run_sweep(spec)
        step = (1e-2 / 1e-7) ** (1.0 / (points - 1))
        for q_b in (9e6, 9e7):
            per_q = [row for row in rows if row.q_b == q_b]
            best = max(per_q, key=lambda row: row.eta)
            p_star = critical_pump_power(retune_microwave_q(device, q_b))
            assert p_star / step <= best.pump_power_w <= p_star * step

    def test_tenfold_q_peaks_at_tenth_power(self, device):
        points = 400
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-8, 1e-2, points=points, spacing="log"),
            q_axis=(9e6, 9e7),
        )
        rows = run_sweep(spec)
        step = (1e-2 / 1e-8) ** (1.0 / (points - 1))
        best = {
            q: max((r for r in rows if r.q_b == q), key=lambda r: r.eta).pump_power_w
            for q in (9e6, 9e7)
        }
        ratio = best[9e7] / best[9e6]
        assert 0.1 / step <= ratio <= 0.1 * step

    def test_bitwise_determinism(self, device):
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-3, points=64, spacing="log"),
            q_axis=(9e6, 9e7),
            outputs=("efficiency", "cooperativity", "infidelity"),
            herald_options=HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b"),
        )
        assert run_sweep(spec) == run_sweep(spec)

    def test_cooperativity_affine_in_power(self, device):
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-3, points=200, spacing="log"),
            q_axis=(9e6,),
        )
        rows = run_sweep(spec)
        p = np.array([row.pump_power_w for row in rows])
        c = np.array([row.cooperativity for row in rows])
        coeffs = np.polyfit(p / p.max(), c, 1)
        fitted = np.polyval(coeffs, p / p.max())
        assert np.max(np.abs(c - fitted)) <= 1e-9 * np.max(np.abs(c))

    def test_tenfold_q_scales_cooperativity(self, device):
        axis = PowerAxis(1e-7, 1e-6, points=10, spacing="log")
        rows = run_sweep(SweepSpec(config=device, power_axis=axis, q_axis=(9e6, 9e7)))
        low = [row for row in rows if row.q_b == 9e6]
        high = [row for row in rows if row.q_b == 9e7]
        for row_low, row_high in zip(low, high):
            assert row_high.cooperativity == pytest.approx(
                10.0 * row_low.cooperativity, rel=1e-13
            )

    def test_row_error_carries_coordinates(self, device):
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-3, 1e-1, points=3, spacing="log"),
            q_axis=(9e6,),
            outputs=("efficiency", "infidelity"),
            herald_options=HeraldOptions(dt=10.0, r0_mapping="c_kappa_b"),
        )
        with pytest.raises(ModelRegimeError, match="Q_b = 9e\\+06"):
            run_sweep(spec)

    def test_infidelity_requires_herald_options(self, device):
        with pytest.raises(DomainError):
            SweepSpec(
                config=device,
                power_axis=PowerAxis(1e-7, 1e-3, points=4, spacing="log"),
                q_axis=(9e6,),
                outputs=("efficiency", "infidelity"),
            )


class TestMaximizeEfficiency:
    def test_recovers_critical_power(self, device):
        p_star = critical_pump_power(device)
        p_opt, eta_opt = maximize_efficiency(device, (p_star / 100.0, p_star * 100.0))
        assert p_opt == pytest.approx(p_star, rel=1e-6)
        assert eta_opt == pytest.approx(eta_of_power(device, p_star), rel=1e-9)

    def test_unitary_for_overcoupled_modes(self):
        cfg = make_device(kappa_a_i=0.0, kappa_b_i=0.0)
        p_star = critical_pump_power(cfg)
        _, eta_opt = maximize_efficiency(cfg, (p_star / 10.0, p_star * 10.0))
        assert eta_opt == pytest.approx(1.0, abs=1e-9)

    def test_beats_random_probes(self, device):
        p_star = critical_pump_power(device)
        bracket = (p_star / 50.0, p_star * 50.0)
        p_opt, eta_opt = maximize_efficiency(device, bracket)
        rng = np.random.default_rng(17)
        for power in rng.uniform(bracket[0], bracket[1], 100):
            assert eta_opt >= eta_of_power(device, float(power))

    def test_bracket_excluding_optimum_rejected(self, device):
        p_star = critical_pump_power(device)
        with pytest.raises(BracketingError):
            maximize_efficiency(device, (p_star * 10.0, p_star * 1000.0))
        with pytest.raises(BracketingError):
            maximize_efficiency(device, (p_star / 1000.0, p_star / 10.0))

    def test_golden_section_iteration_budget(self, device):
        p_star = critical_pump_power(device)

        def eta_at(power):
            return eta_of_power(device, power)

        x, _, iterations = _golden_section_max(eta_at, p_star * 1e-3, p_star * 1e3)
        assert iterations <= 80
        assert x == pytest.approx(p_star, rel=1e-6)


class TestInfidelityCurve:
    def test_zero_power_gives_zero(self, device):
        axis = PowerAxis(0.0, 1e-3, points=5, spacing="linear")
        options = HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b")
        curve = infidelity_curve(device, axis, options)
        assert curve[0] == (0.0, 0.0)

    def test_monotone_in_power_at_low_mu(self, device):
        axis = PowerAxis(0.0, 1e-3, points=60, spacing="linear")
        options = HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b")
        curve = infidelity_curve(device, axis, options)
        values = [v for _, v in curve]
        mu_max = cooperativity(
            device, intracavity_photon_number(device.mode_p, DriveCondition(1e-3))
        ) * device.mode_b.kappa * 1e-6
        assert mu_max < 0.2
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_manual_composition(self, device):
        axis = PowerAxis(1e-6, 1e-4, points=7, spacing="log")
        for options in (
            HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b"),
            HeraldOptions(dt=1e-3, r0_mapping="direct", r0_value=55.0),
        ):
            curve = infidelity_curve(device, axis, options)
            for power, value in curve:
                n_p = intracavity_photon_number(device.mode_p, DriveCondition(pump_power=power))
                c = cooperativity(device, n_p)
                r0 = options.r0_value if options.r0_mapping == "direct" else c * device.mode_b.kappa
                expected = blue_breakdown(HeraldModel(r0=r0, dt=options.dt, scheme=Scheme.BLUE))
                assert value == expected.infidelity

    def test_large_mu_rejected(self, device):
        axis = PowerAxis(1e-3, 1e-1, points=3, spacing="log")
        options = HeraldOptions(dt=1.0, r0_mapping="c_kappa_b")
        with pytest.raises(ModelRegimeError):
            infidelity_curve(device, axis, options)

    def test_red_scheme_rejected(self, device):
        axis = PowerAxis(1e-6, 1e-4, points=3, spacing="log")
        options = HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b", scheme=Scheme.RED)
        with pytest.raises(UsageError):
            infidelity_curve(device, axis, options)


def test_herald_options_validation():
    with pytest.raises(DomainError):
        HeraldOptions(dt=1e-6, r0_mapping="direct")  # missing value
    with pytest.raises(DomainError):
        HeraldOptions(dt=1e-6, r0_mapping="nonsense")
    with pytest.raises(DomainError):
        HeraldOptions(dt=-1.0, r0_mapping="c_kappa_b")
