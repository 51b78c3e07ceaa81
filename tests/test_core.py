import math
from types import SimpleNamespace

import numpy as np
import pytest

from xduce import (
    HBAR,
    DomainError,
    DriveCondition,
    Mode,
    NoCriticalPointError,
    TransducerConfig,
    UndriveablePumpError,
    conversion_efficiency,
    cooperativity,
    critical_photon_number,
    critical_pump_power,
    internal_efficiency,
    intracavity_photon_number,
    kappa_to_lifetime,
    q_to_kappa,
)
from conftest import TWO_PI, make_device


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

    @pytest.mark.parametrize("detuning", [1e200, -1e160])
    def test_huge_detuning_is_a_domain_error(self, detuning):
        mode_p = Mode("p", TWO_PI * 193.5e12, TWO_PI * 10e6, TWO_PI * 35e6)
        with pytest.raises(DomainError, match="delta_p\\^2 overflows"):
            intracavity_photon_number(mode_p, DriveCondition(1e-3, detuning))


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
        from dataclasses import replace

        with pytest.raises(NoCriticalPointError):
            critical_photon_number(replace(device, g_eo=0.0))

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
