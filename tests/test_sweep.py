import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xduce import (
    BracketingError,
    DomainError,
    DriveCondition,
    HeraldModel,
    HeraldOptions,
    ModelRegimeError,
    Mode,
    NoCriticalPointError,
    PowerAxis,
    Scheme,
    SweepSpec,
    TransducerConfig,
    UndriveablePumpError,
    blue_breakdown,
    conversion_efficiency,
    cooperativity,
    critical_pump_power,
    intracavity_photon_number,
    maximize_efficiency,
    retune_microwave_q,
    run_sweep,
)
from xduce import core
from xduce.core import photon_number
from conftest import TWO_PI, golden_section_max, log_uniform, make_device


def eta_of_power(cfg, power, pump_detuning=0.0):
    drive = DriveCondition(pump_power=power, pump_detuning=pump_detuning)
    return conversion_efficiency(cfg, intracavity_photon_number(cfg.mode_p, drive)).eta


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

    def test_log_grid_capped_when_the_ratio_overflows(self):
        # max_w / min_w is inf; the point count came out of round(inf)
        grid = PowerAxis(1e-320, 1e10, spacing="log").grid()
        assert np.array_equal(grid, np.geomspace(1e-320, 1e10, 2000))

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

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_explicit_point_count_capped(self, spacing):
        assert len(PowerAxis(1e-7, 1e-3, points=2000, spacing=spacing).grid()) == 2000
        with pytest.raises(DomainError, match="2 to 2000 points, got 2001"):
            PowerAxis(1e-7, 1e-3, points=2001, spacing=spacing)
        # str() of an int beyond 4300 digits raises, so the message gives its size
        for points, shown in ((10**5000, "an"), (-10**5000, "a negative")):
            with pytest.raises(DomainError, match=f"points, got {shown} integer of 16610 bits$"):
                PowerAxis(1e-7, 1e-3, points=points, spacing=spacing)


class TestSweepSpec:
    @pytest.mark.parametrize("q_axis", [(math.nan, 9e7), (9e6, math.inf), (0.0,), (),
                                        (9e7, 9e6, 9e7)])
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
        assert {repr(q_b) for q_b in run_sweep(spec).q_b} == {"9000000.0", "90000000.0"}

    @pytest.mark.parametrize("low, spacing", [(1e-7, "log"), (0.0, "linear")])
    def test_float32_bounds_and_detuning_give_a_float64_table(self, device, low, spacing):
        def table(cast):
            return run_sweep(SweepSpec(
                config=device,
                power_axis=PowerAxis(cast(low), cast(1e-3), points=9, spacing=spacing),
                q_axis=(9e6, 9e7),
                pump_detuning=cast(3e7),
            ))

        narrow, widened = table(np.float32), table(lambda x: float(np.float32(x)))
        assert narrow == widened
        assert repr(narrow) == repr(widened)
        # a non-finite detuning is rejected when the spec is built, not in the sweep
        for detuning in (math.nan, math.inf, np.float32(math.nan)):
            with pytest.raises(DomainError, match="pump_detuning"):
                SweepSpec(config=device, power_axis=PowerAxis(1e-7, 1e-3, points=4),
                          q_axis=(9e6,), pump_detuning=detuning)


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
        table = run_sweep(spec)
        assert len(table) == 2
        cfg = retune_microwave_q(device, q_b)
        n_p = intracavity_photon_number(cfg.mode_p, DriveCondition(pump_power=2e-5))
        breakdown = conversion_efficiency(cfg, n_p)
        assert table.n_p[0] == n_p
        assert table.cooperativity[0][0] == breakdown.cooperativity
        assert table.eta[0][0] == breakdown.eta
        assert table.infidelity is None

    def test_len_counts_rows(self, device):
        # a non-square grid with several Q, so rows and grid points differ
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-3, points=7, spacing="log"),
            q_axis=(9e7, 9e6, 3e7),
        )
        table = run_sweep(spec)
        assert len(table) == 7 * 3
        assert len(table.pump_power_w) == len(table.n_p) == 7
        assert len(table.q_b) == len(table.cooperativity) == len(table.eta) == 3

    def test_rows_ordered_and_finite(self, device):
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-3, points=25, spacing="log"),
            q_axis=(9e7, 9e6),
        )
        table = run_sweep(spec)
        assert table.q_b == [9e6, 9e7]
        assert table.pump_power_w == sorted(table.pump_power_w)
        assert [len(curve) for curve in table.eta] == [25, 25]
        assert all(map(math.isfinite, table.n_p))
        assert all(math.isfinite(eta) for curve in table.eta for eta in curve)

    def test_peak_power_matches_closed_form_within_grid_step(self, device):
        points = 400
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-7, 1e-2, points=points, spacing="log"),
            q_axis=(9e6, 9e7),
        )
        table = run_sweep(spec)
        step = (1e-2 / 1e-7) ** (1.0 / (points - 1))
        assert table.q_b == [9e6, 9e7]
        for q_b, eta in zip(table.q_b, table.eta):
            best = max(range(points), key=eta.__getitem__)
            p_star = critical_pump_power(retune_microwave_q(device, q_b))
            assert p_star / step <= table.pump_power_w[best] <= p_star * step

    def test_tenfold_q_peaks_at_tenth_power(self, device):
        points = 400
        spec = SweepSpec(
            config=device,
            power_axis=PowerAxis(1e-8, 1e-2, points=points, spacing="log"),
            q_axis=(9e6, 9e7),
        )
        table = run_sweep(spec)
        step = (1e-2 / 1e-8) ** (1.0 / (points - 1))
        assert table.q_b == [9e6, 9e7]
        low, high = (table.pump_power_w[max(range(points), key=eta.__getitem__)]
                     for eta in table.eta)
        ratio = high / low
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
        table = run_sweep(spec)
        p = np.array(table.pump_power_w)
        (c,) = map(np.array, table.cooperativity)
        coeffs = np.polyfit(p / p.max(), c, 1)
        fitted = np.polyval(coeffs, p / p.max())
        assert np.max(np.abs(c - fitted)) <= 1e-9 * np.max(np.abs(c))

    def test_tenfold_q_scales_cooperativity(self, device):
        axis = PowerAxis(1e-7, 1e-6, points=10, spacing="log")
        table = run_sweep(SweepSpec(config=device, power_axis=axis, q_axis=(9e6, 9e7)))
        assert table.q_b == [9e6, 9e7]
        low, high = table.cooperativity
        assert len(low) == len(high) == 10
        for c_low, c_high in zip(low, high):
            assert c_high == pytest.approx(10.0 * c_low, rel=1e-13)

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

    def test_photon_number_error_carries_coordinates(self, device):
        # kappa_p_ex * P is subnormal at the lowest power, for every Q
        spec = SweepSpec(config=device, power_axis=PowerAxis(1e-318, 1e-3, points=2),
                         q_axis=(9e7, 9e6))
        # the grid's first power, 1e-318 W through geomspace
        where = r"^sweep failed at Q_b = 9e\+06, power = 9\.99\d*e-319 W: "
        with pytest.raises(DomainError, match=where + r"n_p = kappa_p_ex \* P / buildup"):
            run_sweep(spec)

    def test_overflowing_power_ratio_names_the_first_point(self, device):
        spec = SweepSpec(config=device, power_axis=PowerAxis(1e-320, 1e10), q_axis=(9e6,))
        # the grid's first power, 1e-320 W through geomspace
        where = r"^sweep failed at Q_b = 9e\+06, power = 9\.99989e-321 W: "
        with pytest.raises(DomainError, match=where + r"n_p = kappa_p_ex \* P / buildup"):
            run_sweep(spec)

    def test_q_whose_rate_overflows_names_its_first_point(self, device):
        spec = SweepSpec(config=device, power_axis=PowerAxis(1e-7, 1e-3, points=4),
                         q_axis=(9e6, 1e-300))
        where = r"^sweep failed at Q_b = 1e-300, power = 1e-07 W: "
        with pytest.raises(DomainError, match=where + r"kappa = omega / Q = inf is not a normal "
                                                      r"double: omega = 56548667764\.6\d*, "
                                                      r"Q = 1e-300$"):
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

    def test_lossless_optimum_is_at_most_one(self):
        # at P*, C is within a few ULPs of 1, where 4C/(1+C)^2 can round above 1
        lossless = make_device(kappa_a_i=0.0, kappa_b_i=0.0)
        for q_b in np.geomspace(1e4, 1e8, 200).tolist():
            cfg = retune_microwave_q(lossless, q_b)
            p_star = critical_pump_power(cfg)
            _, eta_opt = maximize_efficiency(cfg, (p_star / 2.0, p_star * 2.0))
            assert 1.0 - 1e-15 < eta_opt <= 1.0

    def test_beats_random_probes(self, device):
        p_star = critical_pump_power(device)
        bracket = (p_star / 50.0, p_star * 50.0)
        p_opt, eta_opt = maximize_efficiency(device, bracket)
        rng = np.random.default_rng(17)
        for power in rng.uniform(bracket[0], bracket[1], 100):
            assert eta_opt >= eta_of_power(device, float(power))

    def test_bracket_excluding_optimum_rejected(self, device):
        p_star = critical_pump_power(device)
        bracket = (p_star * 10.0, p_star * 1000.0)
        with pytest.raises(BracketingError) as caught:
            maximize_efficiency(device, bracket)
        # an ordinary bracket is shown by its repr
        assert str(caught.value) == (f"the optimum P* = {p_star!r} W is outside the bracket "
                                     f"{bracket!r}")
        with pytest.raises(BracketingError):
            maximize_efficiency(device, (p_star / 1000.0, p_star / 10.0))
        with pytest.raises(BracketingError, match=r"^invalid bracket \[0\.1, 0\.01\]$"):
            maximize_efficiency(device, [0.1, 0.01])

    @pytest.mark.parametrize("bracket, message", [
        # out of order
        ((Fraction(10**5000 + 1, 10**5000), Fraction(1, 10)), "invalid bracket"),
        # in order, about 1 W to 2 W, so P* (about 57 uW) is below it
        ((Fraction(10**5000 + 1, 10**5000), Fraction(2)), "the optimum P* = "),
    ])
    def test_bracket_too_large_to_show_rejected(self, device, bracket, message):
        # repr of a Fraction beyond the int-to-str digit limit raises
        # ValueError, so the message gives the bracket's type
        with pytest.raises(BracketingError) as caught:
            maximize_efficiency(device, bracket)
        assert str(caught.value).startswith(message)
        assert str(caught.value).endswith(" bracket a tuple too large to show")

    @pytest.mark.parametrize("bracket", [[1e-9, 1e-3, 1.0], (1e-3,), 1e-3, None])
    def test_bracket_that_is_not_a_pair_rejected(self, device, bracket):
        with pytest.raises(BracketingError, match=r"^invalid bracket: not a \(low, high\) pair$"):
            maximize_efficiency(device, bracket)

    def test_golden_section_iteration_budget(self, device):
        p_star = critical_pump_power(device)

        def eta_at(power):
            return eta_of_power(device, power)

        x, _, iterations = golden_section_max(eta_at, p_star * 1e-3, p_star * 1e3)
        assert iterations <= 80
        assert x == pytest.approx(p_star, rel=1e-6)

    def test_no_coupling_has_no_optimum(self):
        cfg = make_device(g_eo=0.0)
        with pytest.raises(NoCriticalPointError):
            maximize_efficiency(cfg, (1e-9, 1.0))

    def test_n_p_has_one_formula_path(self, device, monkeypatch):
        # photon_number, the sweep's column and the optimum's n_p at P* all
        # come from _pump_photons, over the buildup _pump_buildup gives
        detuning = 3e7
        buildup = core._pump_buildup(device.mode_p, detuning)
        pump_photons, calls = core._pump_photons, []

        def spy(mode_p, pump_power, given):
            assert mode_p is device.mode_p and repr(given) == repr(buildup)
            result = pump_photons(mode_p, pump_power, given)
            calls.append(result[0])
            return result

        monkeypatch.setattr(core, "_pump_photons", spy)
        p_star = critical_pump_power(device, detuning)
        n_p = photon_number(device.mode_p, p_star, detuning)
        # the middle of this linear grid is P* itself
        table = run_sweep(SweepSpec(device, PowerAxis(0.0, 2.0 * p_star, 3, "linear"),
                                    (device.mode_b.omega / device.mode_b.kappa,),
                                    pump_detuning=detuning))
        maximize_efficiency(device, (0.0, 2.0 * p_star), detuning)
        assert len(calls) == 3
        assert table.pump_power_w[1] == p_star
        assert repr(calls[1].tolist()) == repr(table.n_p)
        assert repr(calls[0]) == repr(table.n_p[1]) == repr(calls[2]) == repr(n_p)

    def test_undriveable_pump_has_no_optimum(self, device):
        pump = Mode("p", device.mode_p.omega, device.mode_p.kappa, 0.0)
        cfg = TransducerConfig(device.mode_a, device.mode_b, pump, device.g_eo)
        with pytest.raises(UndriveablePumpError):
            maximize_efficiency(cfg, (1e-9, 1.0))


def test_sweep_infidelity_monotone_in_power_at_low_mu(device):
    q_b = device.mode_b.omega / device.mode_b.kappa
    spec = SweepSpec(
        config=device,
        power_axis=PowerAxis(0.0, 1e-3, points=60, spacing="linear"),
        q_axis=(q_b,),
        outputs=("infidelity",),
        herald_options=HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b"),
    )
    (values,) = run_sweep(spec).infidelity
    mu_max = cooperativity(
        device, intracavity_photon_number(device.mode_p, DriveCondition(1e-3))
    ) * device.mode_b.kappa * 1e-6
    assert mu_max < 0.2
    assert len(values) == 60
    assert all(b > a for a, b in zip(values, values[1:]))


def test_herald_options_validation():
    with pytest.raises(DomainError):
        HeraldOptions(dt=1e-6, r0_mapping="direct")  # missing value
    with pytest.raises(DomainError):
        HeraldOptions(dt=1e-6, r0_mapping="nonsense")
    with pytest.raises(DomainError):
        HeraldOptions(dt=-1.0, r0_mapping="c_kappa_b")
    for r0 in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="r0"):
            HeraldOptions(dt=1e-6, r0_mapping="direct", r0_value=r0)
    for dt in (math.nan, math.inf, np.float32(-1.0)):
        with pytest.raises(DomainError, match="dt"):
            HeraldOptions(dt=dt, r0_mapping="c_kappa_b")
    options = HeraldOptions(dt=np.float32(1e-3), r0_value=np.float32(100.0))
    assert type(options.dt) is float and type(options.r0_value) is float
    assert options.dt == float(np.float32(1e-3))


@st.composite
def sweep_specs(draw):
    def mode(label, omega, kappa):
        frac = draw(st.floats(0.0, 1.0))
        return Mode(label, omega, kappa * (1.0 - frac), kappa * frac)

    def one_in_five(hostile, usual):
        return draw(hostile if draw(st.integers(0, 4)) == 0 else usual)

    def either_side(low, high):
        return log_uniform(*low) | log_uniform(*high)

    # one draw in five so wide or so narrow that the pump buildup can fail
    kappa_p = one_in_five(either_side((-170.0, -150.0), (150.0, 170.0)), log_uniform(6.0, 9.0))
    # one draw in five so strong that (1+C)^2 overflows, and one in five
    # where C's numerator 4 n_p g_eo^2 leaves the normal doubles: above them,
    # or below them at powers so low that n_p is below 1e-3
    coupling = draw(st.sampled_from(["overflow"] * 2 + ["above", "below"] + ["usual"] * 6))
    g_eo = {"overflow": log_uniform(74.0, 90.0), "above": log_uniform(152.0, 154.0),
            "below": log_uniform(-153.5, -153.0), "usual": log_uniform(-2.0, 4.0)}[coupling]
    device = TransducerConfig(
        mode_a=mode("a", 1.2e15, draw(log_uniform(2.0, 10.0))),
        mode_b=mode("b", 5.7e10, draw(log_uniform(-1.0, 6.0))),
        mode_p=Mode("p", 1.2e15, kappa_p / 2.0, kappa_p / 2.0),
        g_eo=draw(g_eo),
    )
    if coupling == "below":
        axis = PowerAxis(0.0, draw(log_uniform(-25.0, -16.0)), points=draw(st.integers(2, 40)),
                         spacing="linear")
    elif draw(st.booleans()):
        # one draw in five so weak that kappa_p_ex P can leave the normal doubles
        low = one_in_five(log_uniform(-320.0, -300.0), log_uniform(-12.0, 2.0))
        axis = PowerAxis(low, low * draw(log_uniform(0.5, 8.0)),
                         points=draw(st.integers(2, 40)), spacing="log")
    else:
        axis = PowerAxis(0.0, draw(log_uniform(-9.0, 2.0)), points=draw(st.integers(2, 40)),
                         spacing="linear")
    if draw(st.booleans()):
        # one draw in five so long that r0 * dt overflows
        options = HeraldOptions(dt=one_in_five(log_uniform(300.0, 308.0), log_uniform(-16.0, -4.0)),
                                r0_mapping="c_kappa_b")
    else:
        options = HeraldOptions(dt=draw(log_uniform(-6.0, -1.0)), r0_mapping="direct",
                                r0_value=draw(st.floats(0.0, 1e3)))
    q_axis = draw(st.lists(log_uniform(4.0, 10.0), min_size=1, max_size=4, unique=True))
    # one draw in five adds a Q at which alone the chain can fail: so low
    # that kappa_b, or kappa_a kappa_b, can leave the normal doubles, or so
    # high that (1+C)^2 can overflow
    q_axis += one_in_five(st.lists(either_side((-298.0, -289.0), (150.0, 300.0)), max_size=1),
                          st.just([]))
    return SweepSpec(
        config=device,
        power_axis=axis,
        q_axis=tuple(q_axis),
        outputs=("efficiency", "cooperativity", "infidelity"),
        herald_options=options,
        pump_detuning=draw(st.sampled_from([0.0, 3e7, -2e9])),
    )


def scalar_rows(spec):
    """The sweep one point at a time through the scalar API, stopping with
    (error class, message) at the first point that fails; the message is
    the scalar error's, after the point's coordinates."""
    options = spec.herald_options
    rows = []
    for q_b in sorted(spec.q_axis):
        for power in spec.power_axis.grid().tolist():
            try:
                cfg = retune_microwave_q(spec.config, q_b)
                drive = DriveCondition(pump_power=power, pump_detuning=spec.pump_detuning)
                n_p = intracavity_photon_number(cfg.mode_p, drive)
                point = conversion_efficiency(cfg, n_p)
                r0 = point.cooperativity * cfg.mode_b.kappa
                if options.r0_mapping == "direct":
                    r0 = options.r0_value
                model = HeraldModel(r0=r0, dt=options.dt, scheme=Scheme.BLUE)
                infidelity = blue_breakdown(model).infidelity
            except DomainError as exc:
                where = f"sweep failed at Q_b = {q_b:g}, power = {power:g} W"
                return rows, (type(exc), f"{where}: {exc}")
            rows.append((power, q_b, n_p, point.cooperativity, point.eta_i, point.eta,
                         infidelity))
    return rows, None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sweep_specs())
# r0 = C kappa_b overflows and dt = 0, so the column's mu is inf * 0 = nan,
# which the regime rule must reject as the scalar API rejects r0 = inf
@example(SweepSpec(
    config=TransducerConfig(Mode("a", 1.2e15, 5e-11, 5e-11), Mode("b", 5.7e10, 1.0, 1.0),
                            Mode("p", 1.2e15, 1e7, 1e7), g_eo=1e145),
    power_axis=PowerAxis(1e-3, 1e-2, points=3),
    q_axis=(1e-290,),
    outputs=("efficiency", "cooperativity", "infidelity"),
    herald_options=HeraldOptions(0.0, "c_kappa_b"),
))
def test_columns_equal_scalar_api_bit_for_bit(spec):
    rows, failure = scalar_rows(spec)
    if failure is not None:
        error, message = failure
        with pytest.raises(DomainError) as info:
            run_sweep(spec)
        assert type(info.value) is error
        assert str(info.value) == message
        return
    table = run_sweep(spec)
    points = len(table.pump_power_w)
    assert len(table) == len(rows) == points * len(table.q_b)
    assert table.q_b == sorted(spec.q_axis)
    # each Q's rows against the grid and that Q's curves; list equality
    # compares floats with ==, and 0.0 == -0.0 is the only non-identical
    # pair it would accept, so compare reprs too
    for k, q_b in enumerate(table.q_b):
        columns = (table.pump_power_w, [q_b] * points, table.n_p, table.cooperativity[k],
                   table.eta_i[k], table.eta[k], table.infidelity[k])
        for column, expected in zip(columns, zip(*rows[k * points:(k + 1) * points])):
            assert column == list(expected)
            assert list(map(repr, column)) == list(map(repr, expected))


@st.composite
def optimum_cases(draw):
    """A device, a pump detuning (zero in half the draws) and a bracket:
    its ends lie within a factor 1e3 of the critical power, on either side
    of it or on it, and the lower end is 0 in a tenth of the draws."""
    def mode(label, omega, kappa):
        frac = draw(st.floats(0.01, 1.0))
        return Mode(label, omega, kappa * (1.0 - frac), kappa * frac)

    kappa_p = draw(log_uniform(6.0, 9.0))
    cfg = TransducerConfig(
        mode_a=mode("a", 1.2e15, draw(log_uniform(2.0, 10.0))),
        mode_b=mode("b", 5.7e10, draw(log_uniform(-1.0, 6.0))),
        mode_p=mode("p", 1.2e15, kappa_p),
        g_eo=TWO_PI * draw(log_uniform(0.0, 3.0)),
    )
    detuning = 0.0
    if draw(st.booleans()):
        detuning = draw(st.sampled_from((-1.0, 1.0))) * kappa_p * draw(log_uniform(-2.0, 1.0))
    p_star = critical_pump_power(cfg, detuning)
    lo = p_star * 10.0**draw(st.floats(-3.0, 0.5))
    hi = p_star * 10.0**draw(st.floats(-0.5, 3.0))
    assume(lo < hi)
    return cfg, detuning, (0.0 if draw(st.integers(0, 9)) == 0 else lo, hi)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(optimum_cases())
def test_optimum_is_the_critical_power(case):
    cfg, detuning, (lo, hi) = case
    p_star = critical_pump_power(cfg, detuning)
    if not lo < p_star < hi:
        with pytest.raises(BracketingError):
            maximize_efficiency(cfg, (lo, hi), detuning)
        return
    p_opt, eta_opt = maximize_efficiency(cfg, (lo, hi), detuning)
    assert p_opt == p_star
    assert eta_opt == eta_of_power(cfg, p_star, detuning)
    assert 0.0 < eta_opt <= 1.0
    x, eta_search, _ = golden_section_max(lambda p: eta_of_power(cfg, p, detuning), lo, hi)
    assert x == pytest.approx(p_star, rel=1e-6)
    # on the flat peak, eta at the exact P* can round 1-3 ULPs below the
    # search's best eta
    assert eta_opt >= eta_search - 4 * math.ulp(eta_search)


def composed_optimum(cfg, bracket, detuning):
    """The optimum through the public API, one call after another, with
    maximize_efficiency's message for a bracket that misses P*."""
    p_star = critical_pump_power(cfg, detuning)
    if not bracket[0] < p_star < bracket[1]:
        raise BracketingError(f"the optimum P* = {p_star!r} W is outside the bracket "
                              f"{bracket!r}")
    return p_star, conversion_efficiency(cfg, photon_number(cfg.mode_p, p_star, detuning)).eta


def outcome(call):
    """The reprs of what ``call()`` returns, or its error's class and message."""
    try:
        return tuple(map(repr, call()))
    except (DomainError, BracketingError) as exc:
        return type(exc), str(exc)


@st.composite
def hostile_optima(draw):
    """A device with every rate from 1e-150 to 1e150 Hz, a mode's kappa_ex or
    kappa_i 0 in two draws of three, g_eo from 1e-300 to 1e150 Hz or, in one
    draw of ten, 0, a signed pump detuning and a bracket (0, hi)."""
    def mode(label):
        rates = [TWO_PI * draw(log_uniform(-150.0, 150.0)) for _ in range(2)]
        zeroed = draw(st.integers(0, 2))
        if zeroed < 2:
            rates[zeroed] = 0.0
        return Mode(label, TWO_PI * draw(log_uniform(9.0, 15.0)), *rates)

    g_eo = 0.0 if draw(st.integers(0, 9)) == 0 else TWO_PI * draw(log_uniform(-300.0, 150.0))
    cfg = TransducerConfig(mode("a"), mode("b"), mode("p"), g_eo)
    detuning = draw(st.sampled_from((-TWO_PI, 0.0, TWO_PI))) * draw(log_uniform(-150.0, 150.0))
    return cfg, detuning, (0.0, draw(st.just(math.inf) | log_uniform(-320.0, 300.0)))


def hostile_example(kappa_a=1e10, kappa_b=1e10, mode_p=Mode("p", 1e15, 1e6, 1e6), g_eo=1.0,
                    detuning=0.0, hi=math.inf):
    modes = Mode("a", 1e15, 0.0, kappa_a), Mode("b", 1e10, 0.0, kappa_b), mode_p
    return TransducerConfig(*modes, g_eo), detuning, (0.0, hi)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hostile_optima())
# one example per error, in the order maximize_efficiency meets them; n_p at
# P* is n_p* and C is 1 to a few ULPs, so no device is known on which n_p's
# check or (1+C)^2 fails there
@example(hostile_example(mode_p=Mode("p", 1e15, 1e6, 0.0)))  # undriveable pump
@example(hostile_example(g_eo=0.0))  # no critical point
@example(hostile_example(kappa_a=1e-160, kappa_b=1e-160))  # kappa_a kappa_b subnormal
@example(hostile_example(g_eo=1e160))  # g_eo^2 overflows
@example(hostile_example(g_eo=1e-160))  # g_eo^2 underflows
@example(hostile_example(kappa_a=2e-150, kappa_b=2e-150, g_eo=1e150))  # n_p* underflows
@example(hostile_example(detuning=-1e200))  # delta_p^2 overflows
# (kappa_p/2)^2 subnormal behind a huge omega_p, then a subnormal buildup
@example(hostile_example(mode_p=Mode("p", TWO_PI * 1e300, TWO_PI * 0.5e-160,
                                     TWO_PI * 0.5e-160)))
@example(hostile_example(mode_p=Mode("p", TWO_PI * 193.5e12, TWO_PI * 1e-150,
                                     TWO_PI * 1e-150)))
@example(hostile_example(mode_p=Mode("p", 1e15, 1e150, 1e150), g_eo=1e-140))  # P* overflows
@example(hostile_example(hi=1e-30))  # P* above the bracket
# n_p* is 1e308, so C's numerator 4 n_p g_eo^2 overflows at P*
@example(hostile_example(kappa_a=1e154, kappa_b=1e154, mode_p=Mode("p", 1e15, 0.5, 0.5),
                         g_eo=0.5))
def test_optimum_errors_equal_the_composed_api(case):
    cfg, detuning, bracket = case
    assert (outcome(lambda: maximize_efficiency(cfg, bracket, detuning))
            == outcome(lambda: composed_optimum(cfg, bracket, detuning)))
