import math
import re
from enum import Enum
from fractions import Fraction
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xduce
from xduce import (
    HBAR,
    DomainError,
    DriveCondition,
    EfficiencyBreakdown,
    HeraldBreakdown,
    HeraldModel,
    HeraldOptions,
    LinearizedSystem,
    McEstimate,
    Mode,
    NoCriticalPointError,
    PowerAxis,
    ScatteringPoint,
    Scheme,
    SweepSpec,
    SweepTable,
    TransducerConfig,
    UndriveablePumpError,
    blue_breakdown,
    build_linearized,
    conversion_efficiency,
    conversion_spectrum,
    cooperativity,
    critical_photon_number,
    critical_pump_power,
    internal_efficiency,
    intracavity_photon_number,
    kappa_to_lifetime,
    maximize_efficiency,
    parametric_threshold,
    q_to_kappa,
    red_breakdown,
    retune_microwave_q,
    run_sweep,
    scattering_at,
    storage_loss_infidelity,
)
from xduce.config import RunConfig, load_config
from xduce.core import _Frozen, photon_number
from conftest import TWO_PI, checked_float_types, make_device

SHIPPED_FIXTURE = Path(__file__).resolve().parent.parent / "configs" / "device.ini"


class TestModeInvariants:
    def test_total_is_sum_of_parts(self):
        mode = Mode("a", 1e15, 3.0, 5.0)
        assert mode.kappa == 3.0 + 5.0
        assert mode.extraction == 5.0 / 8.0

    def test_rejects_bad_label(self):
        with pytest.raises(DomainError):
            Mode("x", 1e15, 1.0, 1.0)

    def test_rejects_zero_total_loss(self):
        with pytest.raises(DomainError):
            Mode("a", 1e15, 0.0, 0.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(DomainError):
            Mode("a", 1e15, -1.0, 2.0)
        with pytest.raises(DomainError):
            Mode("a", -1e15, 1.0, 2.0)

    def test_config_requires_distinct_labels(self):
        a = Mode("a", 1e15, 1.0, 1.0)
        b = Mode("b", 1e10, 1.0, 1.0)
        with pytest.raises(DomainError):
            TransducerConfig(mode_a=a, mode_b=a, mode_p=b, g_eo=1.0)


class TestQKappaLifetime:
    def test_two_second_lifetime_point(self):
        # Q = omega * tau at 9 GHz and tau = 2 s
        omega = TWO_PI * 9e9
        q = omega * 2.0
        kappa = q_to_kappa(omega, q)
        assert kappa == pytest.approx(0.5, rel=1e-15)
        assert kappa_to_lifetime(kappa) == pytest.approx(2.0, rel=1e-15)

    def test_identity(self):
        assert q_to_kappa(1.0, 1.0) == 1.0
        assert kappa_to_lifetime(1.0) == 1.0

    def test_direct_arithmetic(self):
        assert q_to_kappa(TWO_PI * 9e9, 1e10) == pytest.approx(5.654866776461628, rel=1e-15)
        assert kappa_to_lifetime(4.0) == 0.25

    def test_round_trip(self):
        for omega, q in [(TWO_PI * 9e9, 1e10), (2.5e15, 3.7e6), (1.0, 123.0)]:
            assert kappa_to_lifetime(q_to_kappa(omega, q)) == pytest.approx(q / omega, rel=1e-15)

    @pytest.mark.parametrize("omega,q", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, omega, q):
        with pytest.raises(DomainError):
            q_to_kappa(omega, q)

    @pytest.mark.parametrize("omega,q,kappa", [(6e-300, 1e15, "6e-315"),
                                               (5.7e10, 1e-300, "inf"),
                                               (1e-300, 1e300, "0.0")])
    def test_kappa_outside_the_normal_doubles_rejected(self, omega, q, kappa):
        # 6e-315 came back as a subnormal rate, and inf reached Mode unnamed
        message = (f"kappa = omega / Q = {kappa} is not a normal double: "
                   f"omega = {omega!r}, Q = {q!r}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            q_to_kappa(omega, q)

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_lifetime_domain_errors(self, kappa):
        with pytest.raises(DomainError):
            kappa_to_lifetime(kappa)


class TestIntracavityPhotonNumber:
    def test_zero_power(self):
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 50e6, TWO_PI * 50e6)
        drive = DriveCondition(pump_power=0.0)
        assert intracavity_photon_number(mode_p, drive) == 0.0

    def test_critically_coupled_on_resonance(self):
        # independent route: kappa_ex = kappa/2, zero detuning collapses the
        # buildup to 2 P / (hbar omega kappa)
        omega = TWO_PI * 193.5e12
        kappa = TWO_PI * 100e6
        mode_p = Mode("p", omega, kappa / 2.0, kappa / 2.0)
        drive = DriveCondition(pump_power=1e-3)
        expected = 2.0 * 1e-3 / (HBAR * omega * kappa)
        got = intracavity_photon_number(mode_p, drive)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(2.48e7, rel=1e-2)

    def test_linearity_in_power(self):
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 10e6, TWO_PI * 35e6)
        for power in (1e-6, 3.3e-4, 2e-3):
            n1 = intracavity_photon_number(mode_p, DriveCondition(pump_power=power))
            n2 = intracavity_photon_number(mode_p, DriveCondition(pump_power=2.0 * power))
            assert n2 == pytest.approx(2.0 * n1, rel=1e-15)

    def test_detuning_reduces_buildup(self):
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 10e6, TWO_PI * 35e6)
        on = intracavity_photon_number(mode_p, DriveCondition(1e-3, 0.0))
        off = intracavity_photon_number(mode_p, DriveCondition(1e-3, TWO_PI * 100e6))
        assert off < on

    def test_buildup_underflow_is_a_domain_error(self):
        # (kappa_p/2)^2 underflows to 0, which would divide by zero
        mode_p = Mode("p", TWO_PI * 193.5e12, 1e-170, 1e-170)
        with pytest.raises(DomainError, match="positive and finite"):
            intracavity_photon_number(mode_p, DriveCondition(pump_power=1e-3))

    def test_subnormal_buildup_is_a_domain_error(self, device):
        # the buildup is 5.06e-318, below the normal doubles: n_p came out
        # off by 2.7e-7 relative
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 1e-150, TWO_PI * 1e-150)
        with pytest.raises(DomainError, match=r"= 5\.06\d*e-318 is not a normal double: it "
                                              r"must be positive and finite") as caught:
            intracavity_photon_number(mode_p, DriveCondition(pump_power=1e-160))
        # every path to n_p raises the buildup's own message, the sweep after
        # its first point's coordinates
        message = str(caught.value)
        cfg = TransducerConfig(device.mode_a, device.mode_b, mode_p, device.g_eo)
        spec = SweepSpec(cfg, PowerAxis(1e-7, 1e-3, points=4), (9e7, 9e6))
        for call, prefix in ((lambda: critical_pump_power(cfg), ""),
                             (lambda: maximize_efficiency(cfg, (0.0, 1.0)), ""),
                             (lambda: run_sweep(spec),
                              "sweep failed at Q_b = 9e+06, power = 1e-07 W: ")):
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == prefix + message

    @pytest.mark.parametrize("power", [1e-318, 1e-320])
    def test_subnormal_numerator_is_a_domain_error(self, power):
        # kappa_p_ex * P is subnormal: n_p came out off by 2.1e-7 (1e-318 W)
        # and 1.3e-5 (1e-320 W) relative
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 1e6, TWO_PI)
        with pytest.raises(DomainError, match=r"kappa_p_ex \* P = 6\.28\d*e-3(18|20), n_p = "):
            photon_number(mode_p, power)
        exact = (Fraction(mode_p.kappa_ex) * Fraction(1e-300) / Fraction(HBAR)
                 / Fraction(mode_p.omega) / (Fraction(mode_p.kappa) / 2) ** 2)
        assert photon_number(mode_p, 1e-300) == pytest.approx(float(exact), rel=1e-15)
        assert photon_number(mode_p, 0.0) == 0.0

    def test_underflowing_photon_number_is_a_domain_error(self):
        # kappa_p_ex * P = 1e-150 and the buildup, about 1e281, are normal
        # doubles, but n_p, about 1e-431, is not: it would read 0
        mode_p = Mode("p", 1e15, 1e150, 1e150)
        with pytest.raises(DomainError, match=r"kappa_p_ex \* P = 1e-150, n_p = 0\.0$"):
            photon_number(mode_p, 1e-300)

    def test_subnormal_square_behind_a_huge_omega_is_a_domain_error(self):
        # (kappa_p/2)^2 is the subnormal 9.87e-320, but omega_p = 2 pi 1e300
        # rad/s lifts the buildup into the normal doubles: n_p came out
        # 4.80e-111, off by 1.5e-5 relative
        mode_p = Mode("p", TWO_PI * 1e300, TWO_PI * 0.5e-160, TWO_PI * 0.5e-160)
        with pytest.raises(DomainError, match=r"^\(kappa_p/2\)\^2 \+ delta_p\^2 = 9\.869\d*e-320 "
                                              r"is not a normal double: it must be positive "
                                              r"and finite"):
            photon_number(mode_p, 1e-3)
        # a detuning whose square is a normal double carries the sum
        exact = (Fraction(mode_p.kappa_ex) * Fraction(1e-3) / Fraction(HBAR)
                 / Fraction(mode_p.omega)
                 / ((Fraction(mode_p.kappa) / 2) ** 2 + Fraction(1e-65) ** 2))
        assert photon_number(mode_p, 1e-3, 1e-65) == pytest.approx(float(exact), rel=1e-15)

    @pytest.mark.parametrize("detuning", [1e200, -1e160])
    def test_huge_detuning_is_a_domain_error(self, detuning):
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 10e6, TWO_PI * 35e6)
        with pytest.raises(DomainError, match="delta_p\\^2 overflows"):
            intracavity_photon_number(mode_p, DriveCondition(1e-3, detuning))

    @pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_named(self, device, detuning):
        for call in (lambda: critical_pump_power(device, detuning),
                     lambda: maximize_efficiency(device, (0.0, 1.0), detuning)):
            with pytest.raises(DomainError, match="pump_detuning must be finite"):
                call()

    @pytest.mark.parametrize("power, reason", [
        ("abc", "must be a number, got 'abc'"), (None, "must be a number, got None"),
        (-1.0, "must be non-negative, got -1.0"), (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf")])
    def test_bad_pump_power_named(self, device, power, reason):
        # these reached the arithmetic: a bare TypeError, or the n_p message
        with pytest.raises(DomainError, match=f"^pump_power {re.escape(reason)}$"):
            photon_number(device.mode_p, power)


class TestCooperativity:
    def test_zero_pump(self, device):
        assert cooperativity(device, 0.0) == 0.0

    def test_critical_point_is_unity(self, device):
        n_star = device.mode_a.kappa * device.mode_b.kappa / (4.0 * device.g_eo**2)
        assert cooperativity(device, n_star) == pytest.approx(1.0, rel=1e-14)

    def test_direct_arithmetic(self):
        cfg = SimpleNamespace(
            mode_a=SimpleNamespace(kappa=2e7),
            mode_b=SimpleNamespace(kappa=8e3),
            g_eo=100.0,
        )
        assert cooperativity(cfg, 1e6) == pytest.approx(0.25, rel=1e-15)

    def test_overflowing_numerator_is_a_domain_error(self):
        # the exact C is 4e109, but 4 n_p g_eo^2 = 4e309 is past the doubles,
        # where C read inf and (1+C)^2 was blamed
        cfg = TransducerConfig(Mode("a", 1e15, 0.0, 1e100), Mode("b", 1e10, 0.0, 1e100),
                               Mode("p", 1e15, 1e6, 1e6), 1e150)
        for call in (cooperativity, conversion_efficiency):
            with pytest.raises(DomainError, match="C's numerator 4 n_p g_eo\\^2 is not a normal"):
                call(cfg, 1e9)
        assert cooperativity(cfg, 1.0) == pytest.approx(4e100, rel=1e-15)

    def test_zero_kappa_product_rejected(self):
        cfg = SimpleNamespace(
            mode_a=SimpleNamespace(kappa=0.0),
            mode_b=SimpleNamespace(kappa=8e3),
            g_eo=100.0,
        )
        with pytest.raises(DomainError):
            cooperativity(cfg, 1.0)

    def test_linear_in_np_and_inverse_kappas(self, device):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_p = float(rng.uniform(1.0, 1e9))
            alpha = float(rng.uniform(0.01, 100.0))
            c1 = cooperativity(device, n_p)
            assert cooperativity(device, alpha * n_p) == pytest.approx(alpha * c1, rel=1e-13)
        halved_b = make_device(kappa_b_i=0.25, kappa_b_ex=TWO_PI * 500.0)
        assert cooperativity(halved_b, 1e6) == pytest.approx(2.0 * cooperativity(make_device(), 1e6), rel=1e-13)


class TestInternalEfficiency:
    def test_unity_at_critical(self):
        assert internal_efficiency(1.0) == 1.0

    def test_zero(self):
        assert internal_efficiency(0.0) == 0.0

    def test_direct(self):
        assert internal_efficiency(3.0) == pytest.approx(0.75, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            internal_efficiency(-0.1)

    def test_at_most_one_next_to_critical(self):
        # a rounded 1 + C puts 4C/(1+C)^2 an ULP above 1 for a quarter of these
        for k in range(-2000, 2001):
            assert internal_efficiency(1.0 + k * 2.0**-53) <= 1.0

    def test_overflowing_square_is_a_domain_error(self):
        # (1 + C)**2 overflows a double above C ~ 1.34e154
        assert internal_efficiency(1e154) == 4.0 * 1e154 / (1.0 + 1e154) ** 2
        for c in (1e155, 1e200, 1.7e308):
            with pytest.raises(DomainError, match="overflows"):
                internal_efficiency(c)

    def test_bounded_and_unimodal_on_grid(self):
        grid = np.linspace(0.0, 100.0, 20001)
        values = np.array([internal_efficiency(float(c)) for c in grid])
        assert np.all(values <= 1.0)
        assert np.all((values == 1.0) == (grid == 1.0))
        below = values[grid < 1.0]
        above = values[grid > 1.0]
        assert np.all(np.diff(below) > 0.0)
        assert np.all(np.diff(above) < 0.0)


class TestConversionEfficiency:
    def test_unitary_when_overcoupled_at_critical(self):
        cfg = make_device(kappa_a_i=0.0, kappa_b_i=0.0)
        n_star = critical_photon_number(cfg)
        breakdown = conversion_efficiency(cfg, n_star)
        assert breakdown.extraction_a == 1.0
        assert breakdown.extraction_b == 1.0
        assert breakdown.eta == pytest.approx(1.0, abs=1e-12)

    def test_balanced_coupling_quarter(self):
        cfg = make_device(
            kappa_a_i=TWO_PI * 10e6, kappa_a_ex=TWO_PI * 10e6,
            kappa_b_i=100.0, kappa_b_ex=100.0,
        )
        breakdown = conversion_efficiency(cfg, critical_photon_number(cfg))
        assert breakdown.eta == pytest.approx(0.25, rel=1e-12)

    def test_zero_pump(self, device):
        breakdown = conversion_efficiency(device, 0.0)
        assert breakdown.eta == 0.0
        assert breakdown.cooperativity == 0.0

    def test_eta_bounded_by_internal(self, device):
        rng = np.random.default_rng(11)
        for n_p in rng.uniform(0.0, 1e9, 200):
            breakdown = conversion_efficiency(device, float(n_p))
            assert 0.0 <= breakdown.extraction_a <= 1.0
            assert 0.0 <= breakdown.extraction_b <= 1.0
            assert breakdown.eta <= breakdown.eta_i


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda exponent: 10.0**exponent)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(omegas=st.tuples(*[_log_uniform(1e9, 1e16)] * 3),
       kappas=st.tuples(*[_log_uniform(1e-3, 1e9)] * 6), g_eo=_log_uniform(1e-3, 1e6),
       detuning=st.one_of(st.just(0.0), st.floats(-1e9, 1e9)), power=_log_uniform(1e-12, 1.0),
       offsets=st.tuples(*[st.floats(-10.0, 10.0)] * 2), j=st.integers(-100, 100))
# a design whose squares, taken with ** 2 (C pow), lost a bit at 4^2
@example(omegas=(1584430000000.0, 1028610000000000.0, 1108450000000000.0),
         kappas=(212.014, 59954.2, 0.00141942, 100.539, 405102000.0, 15329300.0), g_eo=7.53912,
         detuning=0.0, power=0.000261486, offsets=(0.5, -3.0), j=2)
def test_scaling_rates_and_power_by_four_to_the_j_keeps_every_bit(omegas, kappas, g_eo,
                                                                  detuning, power, offsets, j):
    # n_p and C are ratios of equal powers of the rates and the power, so a
    # power of two cancels exactly; 4^j keeps each square a power of two.
    # The oracle's conversion is such a ratio too, at probe offsets in units
    # of the system's own kappa_a + kappa_b, which already carry the scale.
    def chain(scale):
        modes = [Mode(label, omega, scale * kappa_i, scale * kappa_ex) for label, omega, kappa_i,
                 kappa_ex in zip("abp", omegas, kappas[::2], kappas[1::2])]
        cfg = TransducerConfig(*modes, scale * g_eo)
        n_p = intracavity_photon_number(cfg.mode_p, DriveCondition(scale * power,
                                                                   scale * detuning))
        breakdown = conversion_efficiency(cfg, n_p)
        system = build_linearized(cfg, n_p, Scheme.RED)
        probes = [0.0] + [offset * (system.kappa_a + system.kappa_b) for offset in offsets]
        # conversion only: the amplitudes' real parts are subnormal rounding
        # residue, whose bits do move
        spectrum = [point.conversion for point in conversion_spectrum(system, probes)]
        return [value.hex() for value in (n_p, breakdown.cooperativity, breakdown.eta, *spectrum)]

    base = chain(1.0)
    try:
        scaled = chain(4.0**j)
    except DomainError:
        return
    assert scaled == base


class TestCriticalPoints:
    def test_direct_arithmetic(self):
        cfg = SimpleNamespace(
            mode_a=SimpleNamespace(kappa=2e7),
            mode_b=SimpleNamespace(kappa=2e3),
            g_eo=100.0,
        )
        assert critical_photon_number(cfg) == pytest.approx(1e6, rel=1e-15)

    def test_round_trip_to_unit_cooperativity(self, device):
        assert cooperativity(device, critical_photon_number(device)) == pytest.approx(1.0, rel=1e-14)

    def test_linear_in_kappa_b(self):
        base = make_device()
        doubled = make_device(kappa_b_i=1.0, kappa_b_ex=TWO_PI * 2000.0)
        ratio = critical_photon_number(doubled) / critical_photon_number(base)
        assert ratio == pytest.approx(2.0, rel=1e-13)

    def test_no_critical_point_for_zero_coupling(self, device):
        uncoupled = TransducerConfig(device.mode_a, device.mode_b, device.mode_p, g_eo=0.0)
        with pytest.raises(NoCriticalPointError):
            critical_photon_number(uncoupled)

    def test_power_round_trip(self, device):
        p_star = critical_pump_power(device)
        n_back = intracavity_photon_number(device.mode_p, DriveCondition(pump_power=p_star))
        assert n_back == pytest.approx(critical_photon_number(device), rel=1e-12)

    def test_power_round_trip_detuned(self, device):
        delta = TWO_PI * 3e6
        p_star = critical_pump_power(device, pump_detuning=delta)
        n_back = intracavity_photon_number(
            device.mode_p, DriveCondition(pump_power=p_star, pump_detuning=delta)
        )
        assert n_back == pytest.approx(critical_photon_number(device), rel=1e-12)

    def test_power_scales_inverse_with_q(self, device):
        # n_p* ~ kappa_b ~ 1/Q_b, so the critical power does too
        tenth_kappa = make_device(kappa_b_i=0.05, kappa_b_ex=TWO_PI * 100.0)
        assert critical_pump_power(tenth_kappa) == pytest.approx(
            critical_pump_power(device) / 10.0, rel=1e-13
        )

    def test_frozen_spot_value(self, device):
        # direct arithmetic on the fixture device, checked against a dense
        # brute-force scan of eta(P) during development
        assert critical_pump_power(device) == pytest.approx(5.6647919647578456e-05, rel=1e-12)

    def test_critical_photon_number_beyond_the_doubles_is_a_domain_error(self):
        # the exact n_p* is 1e-600: n_p* and P* read 0.0, and the optimum's
        # search blamed the bracket
        cfg = TransducerConfig(Mode("a", 1e15, 0.0, 2e-150), Mode("b", 1e10, 0.0, 2e-150),
                               Mode("p", 1e15, 1e6, 1e6), 1e150)
        for call in (critical_photon_number, critical_pump_power,
                     lambda cfg: maximize_efficiency(cfg, (0.0, 1.0))):
            with pytest.raises(DomainError, match=r"^critical photon number n_p\* = kappa_a "
                                                  r"kappa_b / \(4 g_eo\^2\) = 0\.0 is not a"):
                call(cfg)

    @pytest.mark.parametrize("kappa, mode_p, g_eo, shown", [
        # n_p* = 2.5e299 times a buildup of about 1e281 overflows
        (1e10, Mode("p", 1e15, 1e150, 1e150), 1e-140, r"inf W and its numerator .* = inf "),
        # n_p* * buildup is the subnormal 6.59e-315, which put P* = 6.59e-295
        # W off by 1.6e-10 relative
        (1e-100, Mode("p", 1e15, 2e6, 1e-20), 2e53, r"6\.59\d*e-295 W and its numerator "
                                                    r".* = 6\.59\d*e-315 "),
    ])
    def test_critical_pump_power_beyond_the_doubles_is_a_domain_error(self, kappa, mode_p,
                                                                       g_eo, shown):
        cfg = TransducerConfig(Mode("a", 1e15, 0.0, kappa), Mode("b", 1e10, 0.0, kappa),
                               mode_p, g_eo)
        assert 0.0 < critical_photon_number(cfg) < math.inf
        with pytest.raises(DomainError, match=r"^critical pump power P\* = n_p\* \* buildup / "
                                              r"kappa_p_ex = " + shown):
            critical_pump_power(cfg)

    def test_undriveable_pump(self):
        cfg = make_device()
        undriveable = TransducerConfig(
            mode_a=cfg.mode_a,
            mode_b=cfg.mode_b,
            mode_p=Mode("p", cfg.mode_p.omega, cfg.mode_p.kappa_i, 0.0),
            g_eo=cfg.g_eo,
        )
        with pytest.raises(UndriveablePumpError):
            critical_pump_power(undriveable)


def test_drive_condition_validation():
    with pytest.raises(DomainError):
        DriveCondition(pump_power=-1.0)
    with pytest.raises(DomainError):
        DriveCondition(pump_power=1.0, pump_detuning=math.nan)


def test_float32_inputs_give_float64_results():
    # NumPy float32 fields are stored as floats, so the results are the
    # float64 ones of the widened inputs, not float32 (NEP 50)
    run = load_config(str(SHIPPED_FIXTURE))
    device, drive = run.transducer, run.drive
    herald_model = run.herald.model_at(device, drive)

    def results(cast):
        modes = [Mode(m.label, cast(m.omega), cast(m.kappa_i), cast(m.kappa_ex))
                 for m in (device.mode_a, device.mode_b, device.mode_p)]
        cfg = TransducerConfig(*modes, g_eo=cast(device.g_eo))
        at = DriveCondition(cast(drive.pump_power), cast(drive.pump_detuning), drive.scheme)
        n_p = intracavity_photon_number(cfg.mode_p, at)
        efficiency = conversion_efficiency(cfg, n_p)
        blue, red = (HeraldModel(cast(herald_model.r0), cast(herald_model.dt), scheme)
                     for scheme in (Scheme.BLUE, Scheme.RED))
        blue_bd, red_bd = blue_breakdown(blue), red_breakdown(red)
        return [
            n_p, photon_number(cfg.mode_p, cast(drive.pump_power), cast(drive.pump_detuning)),
            cooperativity(cfg, n_p), efficiency.extraction_a, efficiency.extraction_b,
            efficiency.cooperativity, efficiency.eta_i, efficiency.eta,
            critical_photon_number(cfg), critical_pump_power(cfg, at.pump_detuning),
            scattering_at(build_linearized(cfg, n_p, Scheme.RED), 0.0).conversion,
            parametric_threshold(build_linearized(cfg, n_p, Scheme.BLUE)),
            blue.mu, blue_bd.p0, blue_bd.p1, blue_bd.p11, blue_bd.pmn, blue_bd.infidelity,
            red.mu, red_bd.p0, red_bd.p11, red_bd.infidelity,
        ]

    narrow = results(np.float32)
    widened = results(lambda x: float(np.float32(x)))
    assert [type(value) for value in narrow] == [float] * len(narrow)
    assert narrow == widened
    assert list(map(repr, narrow)) == list(map(repr, widened))


def test_all_lists_exactly_the_public_names():
    # a name half removed (still bound, or still listed) shows up here
    bound = {name for name, value in vars(xduce).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(set(xduce.__all__)) == len(xduce.__all__)
    assert set(xduce.__all__) == bound


def _red_system(x):
    return LinearizedSystem(x(30000), x(20000), x(60000), x(1), x(6000), Scheme.RED)


# Each exported function with numeric arguments, called with those arguments
# cast; the values are integers so that every cast holds them exactly.
SCALAR_CALLS = {
    "q_to_kappa": lambda x: q_to_kappa(x(2 * 10**10), x(10**6)),
    "kappa_to_lifetime": lambda x: kappa_to_lifetime(x(3)),
    "cooperativity": lambda x: cooperativity(make_device(), x(1000)),
    "internal_efficiency": lambda x: internal_efficiency(x(3)),
    "conversion_efficiency": lambda x: conversion_efficiency(make_device(), x(1000)),
    "critical_pump_power": lambda x: critical_pump_power(make_device(), x(3 * 10**7)),
    "maximize_efficiency": lambda x: maximize_efficiency(make_device(), (x(0), x(1)),
                                                         x(3 * 10**7)),
    "retune_microwave_q": lambda x: retune_microwave_q(make_device(), x(9 * 10**6)),
    "build_linearized": lambda x: build_linearized(make_device(), x(1000), Scheme.BLUE),
    "scattering_at": lambda x: scattering_at(_red_system(x), x(10)),
    "conversion_spectrum": lambda x: conversion_spectrum(_red_system(x), [x(10), x(-20000)]),
    "parametric_threshold": lambda x: parametric_threshold(
        LinearizedSystem(x(3), x(2), x(6), x(1), x(5), Scheme.BLUE)),
    "storage_loss_infidelity": lambda x: storage_loss_infidelity(x(1), x(2)),
}


def _numeric_leaves(value):
    """The numbers in a result: itself, or its fields and items, recursively."""
    if isinstance(value, _Frozen):
        for field in vars(value).values():
            yield from _numeric_leaves(field)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numeric_leaves(item)
    elif not isinstance(value, (str, Enum)):
        yield value


@pytest.mark.parametrize("cast", [np.float32, np.float64, np.int64, int],
                         ids=lambda cast: cast.__name__)
@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
def test_numpy_scalar_arguments_give_python_floats(call, cast):
    leaves = list(_numeric_leaves(call(cast)))
    assert leaves
    assert all(type(leaf) in (float, complex) for leaf in leaves), leaves
    assert leaves == list(_numeric_leaves(call(lambda v: float(cast(v)))))


def test_float32_probe_grid_gives_the_float64_spectrum():
    sys_ = _red_system(float)
    grid = np.linspace(-5.0, 5.0, 33, dtype=np.float32) * np.float32(6e4)
    narrow = conversion_spectrum(sys_, grid)
    assert narrow == conversion_spectrum(sys_, grid.astype(np.float64))
    assert repr(narrow) == repr(conversion_spectrum(sys_, grid.tolist()))


# Each call with a scalar argument that widens through core's check, as a
# function of that argument, and the name its DomainError gives it.
ARGUMENT_CALLS = {
    "bracket low end": (lambda v: maximize_efficiency(make_device(), (v, 1.0)),
                        "power bracket low end"),
    "bracket high end": (lambda v: maximize_efficiency(make_device(), (1e-9, v)),
                         "power bracket high end"),
    "scattering_at": (lambda v: scattering_at(_red_system(float), v), "probe offset"),
    "conversion_spectrum": (lambda v: conversion_spectrum(_red_system(float), [0.0, v]),
                            "probe offset"),
}


@pytest.mark.parametrize("bad", ["abc", None, 1j, object(), 10**400, -10**5000],
                         ids=["str", "None", "complex", "object", "1e400", "-1e5000"])
@pytest.mark.parametrize("call, name", ARGUMENT_CALLS.values(), ids=ARGUMENT_CALLS.keys())
def test_hostile_scalar_argument_is_named(call, name, bad):
    # float() raises a bare TypeError, ValueError or OverflowError for these
    with pytest.raises(DomainError, match=rf"^{name} (must be a number|is beyond the double)"):
        call(bad)


# Each value type with numeric fields: its other fields with valid values,
# and per numeric field the check it must pass and a valid value.
_POSITIVE, _NON_NEGATIVE, _FINITE = "positive", "non-negative", "finite"
_DEVICE = make_device()
VALUE_TYPES = {
    Mode: (dict(label="a"), {"omega": (_POSITIVE, 1e15), "kappa_i": (_NON_NEGATIVE, 1e7),
                             "kappa_ex": (_NON_NEGATIVE, 2e7)}),
    TransducerConfig: (dict(mode_a=_DEVICE.mode_a, mode_b=_DEVICE.mode_b,
                            mode_p=_DEVICE.mode_p),
                       {"g_eo": (_NON_NEGATIVE, 250.0)}),
    DriveCondition: (dict(scheme=Scheme.RED), {"pump_power": (_NON_NEGATIVE, 1e-3),
                                               "pump_detuning": (_FINITE, 3e7)}),
    LinearizedSystem: (dict(scheme=Scheme.RED),
                       {"g_eff": (_NON_NEGATIVE, 1.0), "kappa_a_i": (_NON_NEGATIVE, 2.0),
                        "kappa_a_ex": (_NON_NEGATIVE, 3.0), "kappa_b_i": (_NON_NEGATIVE, 4.0),
                        "kappa_b_ex": (_NON_NEGATIVE, 5.0)}),
    HeraldModel: (dict(scheme=Scheme.BLUE), {"r0": (_NON_NEGATIVE, 100.0),
                                             "dt": (_NON_NEGATIVE, 1e-3)}),
    PowerAxis: (dict(points=4, spacing="log"), {"min_w": (_NON_NEGATIVE, 1e-7),
                                                "max_w": (_NON_NEGATIVE, 1e-3)}),
    HeraldOptions: (dict(r0_mapping="direct"), {"dt": (_NON_NEGATIVE, 1e-3),
                                                "r0_value": (_NON_NEGATIVE, 100.0)}),
    # q_axis holds a tuple of Q values: the drawn value is its one element
    SweepSpec: (dict(config=_DEVICE, power_axis=PowerAxis(1e-7, 1e-3, points=4),
                     outputs=("efficiency",), herald_options=HeraldOptions(1e-3, r0_value=100.0)),
                {"q_axis": (_POSITIVE, 9e6), "pump_detuning": (_FINITE, 3e7)}),
}


def _fields(value_type, field, value) -> dict:
    """The fields of a valid instance, with ``field`` set to ``value``."""
    kwargs, checks = VALUE_TYPES[value_type]
    values = kwargs | {name: valid for name, (_, valid) in checks.items()}
    if "q_axis" in values:
        values["q_axis"] = (values["q_axis"],)
    return values | {field: value}


def _build(value_type, field, value):
    return value_type(**_fields(value_type, field, (value,) if field == "q_axis" else value))


@st.composite
def _field_cases(draw):
    value_type = draw(st.sampled_from(sorted(VALUE_TYPES, key=lambda t: t.__name__)))
    field = draw(st.sampled_from(sorted(VALUE_TYPES[value_type][1])))
    check = VALUE_TYPES[value_type][1][field][0]
    bad = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if check != _FINITE:
        bad.append(st.floats(-1e30, -1e-30))
    if check == _POSITIVE:
        bad.append(st.sampled_from([0.0, -0.0]))
    return value_type, field, draw(st.one_of(bad))


def test_value_type_table_covers_every_checked_type():
    assert set(VALUE_TYPES) == checked_float_types()
    for value_type, (kwargs, checks) in VALUE_TYPES.items():
        assert {*kwargs, *checks} == set(value_type.__annotations__), value_type


# Hostile values for any field: not a number, nothing, complex, a float or
# str where a count goes, a list or str where a tuple goes, beyond the double
# range, too long for str(), nan, negative, and a str or int where a value
# type or enum goes.
HOSTILE = ("abc", None, 1j, 4.5, "4", [9e6], ["efficiency"], "efficiency", 10**400, 10**5000,
           -10**5000, math.nan, -1, "red", 7)
EVERY_FIELD = [(value_type, field) for value_type, (kwargs, checks) in VALUE_TYPES.items()
               for field in (*kwargs, *checks)]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(EVERY_FIELD),
       value=st.one_of(st.sampled_from(HOSTILE), st.integers(), st.floats(),
                       st.text(max_size=4), st.lists(st.floats(), max_size=2)))
def test_hostile_field_value_gives_an_instance_or_a_named_domain_error(case, value):
    value_type, field = case
    try:
        instance = value_type(**_fields(value_type, field, value))
    except DomainError as exc:  # any other error fails the test
        assert re.search(rf"\b{re.escape(field)}\b", str(exc)), (value, exc)
    else:
        hash(instance)


@pytest.mark.parametrize("case", EVERY_FIELD, ids=lambda case: f"{case[0].__name__}.{case[1]}")
def test_int_too_long_for_str_gives_an_instance_or_a_named_domain_error(case):
    # the hostile cases every field meets, where the property may draw only some
    value_type, field = case
    for value in (10**5000, -10**5000):
        try:
            value_type(**_fields(value_type, field, value))
        except DomainError as exc:  # any other error fails the test
            assert re.search(rf"\b{re.escape(field)}\b", str(exc)), exc


def test_unknown_field_kind_is_refused_at_class_definition():
    # a typo must not drop the check; the annotation is a string, as in the package
    with pytest.raises(TypeError, match=r"_Typo\.rate: annotation 'NonNegativ'"):
        class _Typo(_Frozen):
            rate: "NonNegativ"
    with pytest.raises(TypeError, match="names no field kind"):
        class _NotAValueType(_Frozen):
            path: "Path"


@pytest.mark.parametrize("build, field", [
    (lambda: PowerAxis(1e-7, 1e-3, 4.5, "linear"), "points"),
    (lambda: PowerAxis(1e-7, 1e-3, "4", "linear"), "points"),
    (lambda: TransducerConfig(1, 2, 3, 4), "mode_a"),
    (lambda: LinearizedSystem(10.0, 1.0, 9.0, 1.0, 9.0, "red"), "scheme"),
    (lambda: DriveCondition(1e-3, 0.0, "blue"), "scheme"),
])
def test_field_of_the_wrong_kind_is_named(build, field):
    with pytest.raises(DomainError, match=rf"\b{field}\b"):
        build()


def test_sweep_spec_stores_its_sequences_as_tuples():
    spec = SweepSpec(_DEVICE, PowerAxis(1e-7, 1e-3, points=4), [9e6], ["efficiency"])
    assert spec.q_axis == (9e6,) and spec.outputs == ("efficiency",)
    assert hash(spec) == hash(SweepSpec(_DEVICE, spec.power_axis, (9e6,), ("efficiency",)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_field_cases(), cast=st.sampled_from([float, np.float64, np.float32]),
       scale=st.floats(0.5, 1.0))
def test_every_numeric_field_is_checked_and_stored_as_a_float(case, cast, scale):
    value_type, field, bad = case
    # a DomainError naming the field; any other error type fails the test
    with pytest.raises(DomainError, match=rf"\b{re.escape(field)}\b"):
        _build(value_type, field, cast(bad))
    valid = cast(VALUE_TYPES[value_type][1][field][1] * scale)
    stored = getattr(_build(value_type, field, valid), field)
    stored = stored[0] if field == "q_axis" else stored
    assert type(stored) is float
    assert stored == float(valid)


@pytest.mark.parametrize(
    "value_type, field",
    [(value_type, field) for value_type, (_, checks) in VALUE_TYPES.items() for field in checks],
    ids=lambda case: getattr(case, "__name__", case))
def test_non_numeric_value_is_rejected_by_name(value_type, field):
    # float() raises a bare ValueError, TypeError or OverflowError for these;
    # the check names the field. repr(10**5000) itself raises ValueError.
    for bad in ("abc", None, 1j, object(), 10**400, -10**400, 10**5000, Fraction(10**400)):
        with pytest.raises(DomainError, match=rf"\b{re.escape(field)}\b"):
            _build(value_type, field, bad)
    valid = VALUE_TYPES[value_type][1][field][1]
    for spelled in (str(valid), Fraction(valid)):
        stored = getattr(_build(value_type, field, spelled), field)
        assert (stored[0] if field == "q_axis" else stored) == valid


def test_number_beyond_double_range_is_named():
    with pytest.raises(DomainError, match=r"^mode a: omega is beyond the double range$"):
        Mode("a", 10**400, 1.0, 1.0)
    # a Fraction below the double range reads as 0.0, as float() gives it
    stored = DriveCondition(Fraction(1, 10**400)).pump_power
    assert stored == 0.0 and type(stored) is float


# One instance of each value type: its fields, in order, with valid values.
_RUN = load_config(str(SHIPPED_FIXTURE))
VALUE_SAMPLES = {
    Mode: dict(label="a", omega=1e15, kappa_i=1e7, kappa_ex=2e7),
    TransducerConfig: dict(mode_a=_DEVICE.mode_a, mode_b=_DEVICE.mode_b,
                           mode_p=_DEVICE.mode_p, g_eo=250.0),
    DriveCondition: dict(pump_power=1e-3, pump_detuning=3e7, scheme=Scheme.BLUE),
    EfficiencyBreakdown: dict(extraction_a=0.5, extraction_b=0.9, cooperativity=1.0,
                              eta_i=1.0, eta=0.45),
    HeraldModel: dict(r0=100.0, dt=1e-3, scheme=Scheme.BLUE),
    HeraldBreakdown: dict(p0=0.9, p1=0.09, p11=0.0081, pmn=0.01, infidelity=0.0181,
                          scheme=Scheme.BLUE),
    McEstimate: dict(samples=1000, infidelity_mean=0.01, standard_error=0.003, seed=5),
    LinearizedSystem: dict(g_eff=1.0, kappa_a_i=2.0, kappa_a_ex=3.0, kappa_b_i=4.0,
                           kappa_b_ex=5.0, scheme=Scheme.RED),
    ScatteringPoint: dict(probe_offset=10.0, amplitude_ab=0.1 + 0.2j, amplitude_ba=0.2 - 0.1j,
                          conversion=0.05),
    PowerAxis: dict(min_w=1e-7, max_w=1e-3, points=4, spacing="linear"),
    HeraldOptions: dict(dt=1e-3, r0_mapping="direct", r0_value=100.0),
    SweepSpec: dict(config=_DEVICE, power_axis=PowerAxis(1e-7, 1e-3, 4), q_axis=(9e6, 9e7),
                    outputs=("efficiency", "infidelity"), herald_options=_RUN.herald,
                    pump_detuning=3e7),
    SweepTable: dict(pump_power_w=[1e-3], q_b=[9e6], n_p=[1.0], cooperativity=[[0.5]],
                     eta_i=[[0.9]], eta=[[0.4]], infidelity=[[0.01]]),
    RunConfig: dict(transducer=_RUN.transducer, drive=_RUN.drive, herald=_RUN.herald,
                    sweep=_RUN.sweep, out_format="jsonl", table_path="out.csv",
                    plot_path=None, seed=7),
}


def test_value_samples_cover_every_exported_value_type():
    exported = {getattr(xduce, name) for name in xduce.__all__}
    value_types = {value for value in exported
                   if isinstance(value, type) and value.__module__.startswith("xduce.")
                   and not issubclass(value, (Exception, Enum))}
    assert value_types | {RunConfig} == set(VALUE_SAMPLES)


@pytest.mark.parametrize("value_type", VALUE_SAMPLES, ids=lambda t: t.__name__)
def test_value_type_contract(value_type):
    fields = VALUE_SAMPLES[value_type]
    by_keyword = value_type(**fields)
    by_position = value_type(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    values = tuple(getattr(by_keyword, name) for name in fields)
    assert values == tuple(fields.values())
    try:
        expected_hash = hash(values)
    except TypeError:  # a list field: unhashable, like the tuple of the fields
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position) == expected_hash
    assert repr(by_keyword) == "{}({})".format(
        value_type.__name__, ", ".join(f"{name}={value!r}" for name, value in fields.items()))

    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, fields[next(iter(fields))])
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    assert tuple(getattr(by_keyword, name) for name in fields) == values

    with pytest.raises(TypeError):
        value_type(**fields, unknown=1.0)
    with pytest.raises(TypeError):
        value_type(*fields.values(), 1.0)
    with pytest.raises(TypeError):
        value_type(**dict(list(fields.items())[1:]))

    for other_type, other_fields in VALUE_SAMPLES.items():
        if other_type is not value_type:
            other = other_type(**other_fields)
            assert by_keyword != other and not by_keyword == other
    assert by_keyword != values and by_keyword != SimpleNamespace(**fields)
    assert by_keyword.__eq__(values) is NotImplemented
