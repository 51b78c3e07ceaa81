"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) so the run doubles as a checklist.
"""

import time

import numpy as np
import pytest

from xduce import (
    DriveCondition,
    HeraldModel,
    Mode,
    Scheme,
    TransducerConfig,
    blue_breakdown,
    conversion_efficiency,
    cooperativity,
    critical_photon_number,
    critical_pump_power,
    build_linearized,
    intracavity_photon_number,
    maximize_efficiency,
    mc_blue_infidelity,
    parametric_threshold,
    retune_microwave_q,
    scattering_at,
    storage_loss_infidelity,
)
from xduce.cli import run_cli
from xduce.herald import multi_photon_probability
from conftest import (GOLDEN_CSV, GOLDEN_TEMPLATE, SHIPPED_FIXTURE, TWO_PI, golden_section_max,
                      make_device, truncated_error_probability)


def random_device(rng):
    kappa_a = float(10.0 ** rng.uniform(2.0, 10.0))
    kappa_b = float(10.0 ** rng.uniform(2.0, 10.0))
    frac_a = float(rng.uniform(0.0, 1.0))
    frac_b = float(rng.uniform(0.0, 1.0))
    return TransducerConfig(
        mode_a=Mode("a", 1e15, kappa_a * (1.0 - frac_a), kappa_a * frac_a),
        mode_b=Mode("b", 1e10, kappa_b * (1.0 - frac_b), kappa_b * frac_b),
        mode_p=Mode("p", 1e15, 1e8, 1e8),
        g_eo=float(10.0 ** rng.uniform(0.0, 3.0)),
    )


def test_criterion_1_unitary_conversion():
    cfg = make_device(kappa_a_i=0.0, kappa_b_i=0.0)
    n_star = critical_photon_number(cfg)
    conversion_efficiency(cfg, n_star)  # warm-up
    start = time.perf_counter()
    eta = conversion_efficiency(cfg, n_star).eta
    elapsed = time.perf_counter() - start
    assert eta == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 1e-3
    print(f"PASS criterion 1: unitary conversion eta = {eta!r} in {elapsed * 1e6:.1f} us")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20240814)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        cfg = random_device(rng)
        c_target = float(10.0 ** rng.uniform(-3.0, 3.0))
        n_p = c_target * cfg.mode_a.kappa * cfg.mode_b.kappa / (4.0 * cfg.g_eo**2)
        eta = conversion_efficiency(cfg, n_p).eta
        conv = scattering_at(build_linearized(cfg, n_p), 0.0).conversion
        deviation = abs(conv - eta) / eta if eta > 0.0 else abs(conv - eta)
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"PASS criterion 2: worst oracle deviation {worst:.3e} over 1000 configs "
          f"in {elapsed:.3f} s")


def test_criterion_3_cooperativity_linearity():
    rng = np.random.default_rng(3)
    worst_power = 0.0
    worst_q = 0.0
    for _ in range(100):
        cfg = random_device(rng)
        power = float(10.0 ** rng.uniform(-7.0, -2.0))
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))

        def c_of(p, cfg=cfg):
            n_p = intracavity_photon_number(cfg.mode_p, DriveCondition(pump_power=p))
            return cooperativity(cfg, n_p)

        scaled = c_of(alpha * power)
        linear = alpha * c_of(power)
        worst_power = max(worst_power, abs(scaled - linear) / linear)

        q_b = cfg.mode_b.omega / cfg.mode_b.kappa
        c_base = cooperativity(retune_microwave_q(cfg, q_b), 1e6)
        c_tenfold = cooperativity(retune_microwave_q(cfg, 10.0 * q_b), 1e6)
        worst_q = max(worst_q, abs(c_tenfold - 10.0 * c_base) / (10.0 * c_base))
    assert worst_power <= 1e-12
    assert worst_q <= 1e-12
    print(f"PASS criterion 3: linearity deviations {worst_power:.3e} (power), "
          f"{worst_q:.3e} (Q)")


def test_criterion_4_peak_shift_with_q():
    base = make_device()
    q_b = base.mode_b.omega / base.mode_b.kappa
    ratios = []
    for factor in (1.0, 10.0):
        cfg = retune_microwave_q(base, factor * q_b)
        p_star = critical_pump_power(cfg)
        bracket = (p_star / 100.0, p_star * 100.0)
        p_opt, _ = maximize_efficiency(cfg, bracket)
        # an independent search over eta(P) must find the same optimum
        p_search, _, _ = golden_section_max(lambda power: conversion_efficiency(
            cfg, intracavity_photon_number(cfg.mode_p, DriveCondition(power))).eta, *bracket)
        assert p_opt == pytest.approx(p_search, rel=1e-6)
        ratios.append(p_opt)
    ratio = ratios[1] / ratios[0]
    assert ratio == pytest.approx(0.1, rel=1e-6)
    print(f"PASS criterion 4: P_opt(10Q)/P_opt(Q) = {ratio!r}")


def test_criterion_5_blue_herald_formulas():
    breakdown = blue_breakdown(HeraldModel(r0=100.0, dt=1e-3, scheme=Scheme.BLUE))
    references = dict(
        p1=0.0904837, p11=0.0081873, pmn=0.0093577, infidelity=0.0175450
    )
    for name, expected in references.items():
        assert getattr(breakdown, name) == pytest.approx(expected, abs=1e-6), name
    for mu in np.linspace(0.0, 5.0, 2001):
        bd = blue_breakdown(HeraldModel(r0=float(mu), dt=1.0, scheme=Scheme.BLUE))
        assert bd.p11 == bd.p1 * bd.p1
        assert bd.pmn == 2.0 * multi_photon_probability(mu)
        if mu >= 4e-3:
            # the subtraction, bit for bit, where it does not cancel
            assert bd.pmn == 2.0 * (1.0 - bd.p0 - bd.p1)
        else:
            # the series, where 1 - P0 - P1 cancels
            assert bd.pmn == pytest.approx(2.0 * (1.0 - bd.p0 - bd.p1), rel=1e-10)
    print("PASS criterion 5: blue breakdown matches references at mu = 0.1; "
          "identities exact on mu in [0, 5]")


def test_criterion_6_monte_carlo_vs_exact():
    start = time.perf_counter()
    gaps = []
    for mu in (0.001, 0.01, 0.1):
        model = HeraldModel(r0=mu, dt=1.0, scheme=Scheme.BLUE)
        estimate = mc_blue_infidelity(model, samples=10_000_000, seed=42)
        exact = truncated_error_probability(mu)
        gap_se = abs(estimate.infidelity_mean - exact) / estimate.standard_error
        assert gap_se <= 3.0, f"mu = {mu}: {gap_se:.2f} standard errors"
        gaps.append(gap_se)
    model = HeraldModel(r0=0.01, dt=1.0, scheme=Scheme.BLUE)
    first = mc_blue_infidelity(model, samples=10_000_000, seed=7)
    repeat = mc_blue_infidelity(model, samples=10_000_000, seed=7)
    assert first == repeat
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 6: MC gaps {['%.2f' % g for g in gaps]} standard errors, "
          f"bit-identical on repeat, {elapsed:.1f} s")


def test_criterion_7_storage_loss_decade_scaling():
    for kt in (1e-3, 1e-4, 1e-5):
        loss = storage_loss_infidelity(kt, 1.0)
        loss_tenth = storage_loss_infidelity(kt / 10.0, 1.0)
        assert loss / loss_tenth == pytest.approx(10.0, rel=1e-2)
    print("PASS criterion 7: tenfold Q_b reduces storage loss tenfold within 1%")


def test_criterion_8_blue_parametric_threshold():
    thresholds = []
    kappa_a, kappa_b = TWO_PI * 30e6, TWO_PI * 1000.0
    for frac_a, frac_b in ((0.05, 0.95), (0.5, 0.5), (0.9, 0.1)):
        cfg = TransducerConfig(
            mode_a=Mode("a", 1e15, kappa_a * (1 - frac_a), kappa_a * frac_a),
            mode_b=Mode("b", 1e10, kappa_b * (1 - frac_b), kappa_b * frac_b),
            mode_p=Mode("p", 1e15, 1e8, 1e8),
            g_eo=TWO_PI * 40.0,
        )
        sys_blue = build_linearized(cfg, 1e5, Scheme.BLUE)
        threshold = parametric_threshold(sys_blue)
        assert threshold == pytest.approx(1.0, abs=1e-9)
        thresholds.append(threshold)
    spread = max(thresholds) - min(thresholds)
    assert spread <= 1e-12
    print(f"PASS criterion 8: threshold C = 1 within 1e-9, split spread {spread:.2e}")


def test_criterion_9_cli_contract(tmp_path, capsys):
    tables = []
    for name in ("a.csv", "b.csv"):
        table = tmp_path / name
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(GOLDEN_TEMPLATE.format(table=table))
        assert run_cli(["sweep", "--config", str(cfg_path)]) == 0
        tables.append(table.read_bytes())
    assert tables[0] == tables[1]
    assert tables[0] == GOLDEN_CSV.read_bytes()

    bad = tmp_path / "bad.ini"
    bad.write_text("[device]\na_frequency_hz = nope\n")
    assert run_cli(["efficiency", "--config", str(bad)]) == 2
    assert run_cli(["herald", "--config", str(SHIPPED_FIXTURE), "--mc", "10"]) == 5
    assert run_cli(["efficiency", "--config", str(tmp_path / "missing.ini")]) == 4
    assert run_cli(["verify", "--config", str(SHIPPED_FIXTURE)]) == 0
    capsys.readouterr()
    print("PASS criterion 9: golden CSV byte-stable, exit codes honored, verify green")
