import cmath
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from xduce import (
    DomainError,
    DriveCondition,
    InstabilityError,
    LinearizedSystem,
    Mode,
    Scheme,
    TransducerConfig,
    UsageError,
    build_linearized,
    conversion_efficiency,
    conversion_spectrum,
    cooperativity,
    critical_photon_number,
    intracavity_photon_number,
    parametric_threshold,
    scattering_at,
)
from xduce import scattering
from xduce.config import load_config
from xduce.scattering import blue_unstable
from conftest import SHIPPED_FIXTURE, TWO_PI, log_uniform, make_device


def numpy_conversion(sys_, omega):
    """Independent route: general dense solve instead of the closed-form inverse."""
    sign = 1.0 if sys_.scheme is Scheme.RED else -1.0
    m = np.array(
        [
            [sys_.kappa_a / 2.0 - 1j * omega, 1j * sys_.g_eff],
            [sign * 1j * sys_.g_eff, sys_.kappa_b / 2.0 - 1j * omega],
        ]
    )
    x = np.linalg.solve(m, np.array([math.sqrt(sys_.kappa_a_ex), 0.0]))
    return float(abs(math.sqrt(sys_.kappa_b_ex) * x[1]) ** 2)


def random_red_case(rng):
    """Random kappas, extraction fractions and cooperativity per the oracle sweep."""
    kappa_a = float(10.0 ** rng.uniform(2.0, 10.0))
    kappa_b = float(10.0 ** rng.uniform(2.0, 10.0))
    frac_a = float(rng.uniform(0.0, 1.0))
    frac_b = float(rng.uniform(0.0, 1.0))
    c = float(10.0 ** rng.uniform(-3.0, 3.0))
    cfg = TransducerConfig(
        mode_a=Mode("a", 1e15, kappa_a * (1.0 - frac_a), kappa_a * frac_a),
        mode_b=Mode("b", 1e10, kappa_b * (1.0 - frac_b), kappa_b * frac_b),
        mode_p=Mode("p", 1e15, 1e8, 1e8),
        g_eo=1.0,
    )
    n_p = c * cfg.mode_a.kappa * cfg.mode_b.kappa / 4.0
    return cfg, n_p


class TestBuildLinearized:
    def test_zero_pump_decouples(self, device):
        sys_ = build_linearized(device, 0.0)
        assert sys_.g_eff == 0.0

    def test_sqrt_photon_number(self):
        cfg = make_device(g_eo=10.0)
        sys_ = build_linearized(cfg, 4.0)
        assert sys_.g_eff == 20.0

    def test_coupling_cooperativity_identity(self, device):
        rng = np.random.default_rng(3)
        for n_p in rng.uniform(0.0, 1e9, 50):
            sys_ = build_linearized(device, float(n_p))
            c = cooperativity(device, float(n_p))
            assert sys_.g_eff**2 == pytest.approx(
                c * device.mode_a.kappa * device.mode_b.kappa / 4.0, rel=1e-12
            )

    def test_zero_total_loss_rejected(self):
        with pytest.raises(DomainError, match="loss"):
            LinearizedSystem(1.0, 0.0, 0.0, 1.0, 1.0, Scheme.BLUE)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["kappa_a_i", "kappa_a_ex", "kappa_b_i", "kappa_b_ex"])
    def test_bad_split_rate_rejected_at_construction(self, field, value):
        # the other rate of the mode is 2, so the total stays positive at -1
        rates = dict(kappa_a_i=2.0, kappa_a_ex=2.0, kappa_b_i=2.0, kappa_b_ex=2.0)
        with pytest.raises(DomainError, match=field):
            LinearizedSystem(1.0, **{**rates, field: value}, scheme=Scheme.RED)

    @pytest.mark.parametrize("n_p", [-1.0, math.nan, math.inf])
    def test_bad_photon_number_named(self, device, n_p):
        with pytest.raises(DomainError, match="n_p"):
            build_linearized(device, n_p)


class TestRedScattering:
    def test_decoupled_gives_zero(self, device):
        sys_ = build_linearized(device, 0.0)
        for omega in (0.0, 1e3, -2e7):
            assert scattering_at(sys_, omega).conversion == 0.0

    def test_unitary_overcoupled_critical(self):
        cfg = make_device(kappa_a_i=0.0, kappa_b_i=0.0)
        n_star = cfg.mode_a.kappa * cfg.mode_b.kappa / (4.0 * cfg.g_eo**2)
        sys_ = build_linearized(cfg, n_star)
        assert scattering_at(sys_, 0.0).conversion == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_on_resonance(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            cfg, n_p = random_red_case(rng)
            eta = conversion_efficiency(cfg, n_p).eta
            conv = scattering_at(build_linearized(cfg, n_p), 0.0).conversion
            deviation = abs(conv - eta) / eta if eta > 0.0 else abs(conv - eta)
            worst = max(worst, deviation)
        assert worst <= 1e-9

    def test_matches_dense_solver_off_resonance(self, device):
        n_p = 0.3 * device.mode_a.kappa * device.mode_b.kappa / (4.0 * device.g_eo**2)
        sys_ = build_linearized(device, n_p)
        for omega in np.linspace(-3e4, 3e4, 11):
            point = scattering_at(sys_, float(omega))
            assert point.conversion == pytest.approx(numpy_conversion(sys_, float(omega)), rel=1e-12)

    def test_determinant_beyond_double_range_rejected(self):
        # kappa_a * kappa_b overflows, or underflows to 0 with no coupling
        huge = make_device(kappa_b_i=1e301)
        with pytest.raises(DomainError, match="determinant"):
            scattering_at(build_linearized(huge, 1.0), 0.0)
        tiny = make_device(kappa_a_i=1e-200, kappa_a_ex=1e-200, kappa_b_i=1e-200,
                           kappa_b_ex=1e-200)
        with pytest.raises(DomainError, match="determinant"):
            scattering_at(build_linearized(tiny, 0.0), 0.0)

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
    def test_non_finite_probe_offset_named(self, omega):
        sys_ = LinearizedSystem(1.0, 1.0, 1.0, 1.0, 1.0, Scheme.RED)
        with pytest.raises(DomainError, match="probe offset"):
            scattering_at(sys_, omega)
        with pytest.raises(DomainError, match="probe offset"):
            conversion_spectrum(sys_, [0.0, omega])

    def test_conversion_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cfg, n_p = random_red_case(rng)
            sys_ = build_linearized(cfg, n_p)
            omega = float(rng.uniform(-5.0, 5.0)) * max(sys_.kappa_a, sys_.kappa_b)
            assert scattering_at(sys_, omega).conversion <= 1.0

    def test_reciprocity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            cfg, n_p = random_red_case(rng)
            sys_ = build_linearized(cfg, n_p)
            omega = float(rng.uniform(-5.0, 5.0)) * max(sys_.kappa_a, sys_.kappa_b)
            point = scattering_at(sys_, omega)
            assert abs(point.amplitude_ab) == pytest.approx(abs(point.amplitude_ba), rel=1e-13)


class TestSpectrum:
    def test_single_point_reduces_to_scattering_at(self, device):
        sys_ = build_linearized(device, 1e6)
        spectrum = conversion_spectrum(sys_, [0.0])
        assert len(spectrum) == 1
        assert spectrum[0].conversion == scattering_at(sys_, 0.0).conversion

    def test_empty_rejected(self, device):
        with pytest.raises(UsageError):
            conversion_spectrum(build_linearized(device, 1e6), [])

    def test_symmetric_under_sign_flip(self, device):
        sys_ = build_linearized(device, 2e6)
        omegas = np.linspace(1.0, 5e4, 40)
        plus = [p.conversion for p in conversion_spectrum(sys_, omegas)]
        minus = [p.conversion for p in conversion_spectrum(sys_, -omegas)]
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_peak_on_resonance(self, device):
        sys_ = build_linearized(device, 1e6)
        omegas = np.linspace(-1e5, 1e5, 201)
        spectrum = conversion_spectrum(sys_, omegas)
        top = max(spectrum, key=lambda p: p.conversion)
        assert top.probe_offset == 0.0

    def test_half_width_of_symmetric_unit_conversion_peak(self):
        # symmetric fully overcoupled modes at critical coupling: the
        # conversion drops to 1/2 at probe offset kappa/sqrt(2) (root-found
        # on the dense-solver spectrum; matches the analytic reduction)
        kappa = TWO_PI * 2e6
        cfg = TransducerConfig(
            mode_a=Mode("a", 1e15, 0.0, kappa),
            mode_b=Mode("b", 1e10, 0.0, kappa),
            mode_p=Mode("p", 1e15, 1e8, 1e8),
            g_eo=1.0,
        )
        n_star = kappa * kappa / 4.0
        sys_ = build_linearized(cfg, n_star)
        omega_half = brentq(
            lambda w: numpy_conversion(sys_, w) - 0.5, 1e-3 * kappa, 2.0 * kappa
        )
        assert omega_half == pytest.approx(kappa / math.sqrt(2.0), rel=1e-9)
        assert scattering_at(sys_, omega_half).conversion == pytest.approx(0.5, abs=1e-9)

    def test_conversion_is_the_cross_gain_squared_by_a_product(self):
        # |S_ba|^2 rounded once, as x * x: C pow need not round correctly, and
        # pow(x, 2) != x * x for some of these 20,000 red probes on glibc 2.36
        rng = random.Random(32)
        for _ in range(2500):
            rates = [math.ldexp(0.5 + rng.random(), rng.randint(-60, 60)) for _ in range(5)]
            span = 5.0 * max(rates[1] + rates[2], rates[3] + rates[4])
            omegas = [0.0] + [span * rng.uniform(-1.0, 1.0) for _ in range(7)]
            for point in conversion_spectrum(LinearizedSystem(*rates, Scheme.RED), omegas):
                gain = abs(point.amplitude_ba)
                assert point.conversion == gain * gain, point


class TestBlueScheme:
    def _blue_at(self, device, c_target):
        n_p = c_target * device.mode_a.kappa * device.mode_b.kappa / (4.0 * device.g_eo**2)
        return build_linearized(device, n_p, Scheme.BLUE)

    def test_threshold_at_unit_cooperativity(self, device):
        sys_ = self._blue_at(device, 0.25)
        assert parametric_threshold(sys_) == pytest.approx(1.0, abs=1e-9)

    def test_threshold_independent_of_split(self):
        totals = dict(kappa_a=TWO_PI * 30e6, kappa_b=TWO_PI * 1000.0)
        thresholds = []
        for frac_a, frac_b in [(0.1, 0.9), (0.5, 0.5), (0.99, 0.2)]:
            cfg = TransducerConfig(
                mode_a=Mode("a", 1e15, totals["kappa_a"] * (1 - frac_a), totals["kappa_a"] * frac_a),
                mode_b=Mode("b", 1e10, totals["kappa_b"] * (1 - frac_b), totals["kappa_b"] * frac_b),
                mode_p=Mode("p", 1e15, 1e8, 1e8),
                g_eo=TWO_PI * 40.0,
            )
            thresholds.append(parametric_threshold(build_linearized(cfg, 1e5, Scheme.BLUE)))
        assert thresholds == pytest.approx([thresholds[0]] * 3, rel=1e-12)

    def test_decoupled_never_reaches_threshold(self, device):
        sys_ = build_linearized(device, 0.0, Scheme.BLUE)
        assert parametric_threshold(sys_) == math.inf

    def test_red_scheme_rejected(self, device):
        with pytest.raises(UsageError):
            parametric_threshold(build_linearized(device, 1e6, Scheme.RED))

    def test_decoupled_system_is_stable_where_the_loss_product_underflows(self):
        # G = 0: both modes decay, though (ka/2)(kb/2) underflows to 0 and so
        # equals G^2; the solve then meets its zero determinant
        sys_ = LinearizedSystem(0.0, 1e-170, 0.0, 1e-170, 0.0, Scheme.BLUE)
        assert not blue_unstable(sys_)
        with pytest.raises(DomainError, match=r"determinant is 0j: .* beyond double range"):
            scattering_at(sys_, 0.0)

    def test_stable_below_threshold(self, device):
        sys_ = self._blue_at(device, 0.5)
        point = scattering_at(sys_, 0.0)
        assert math.isfinite(point.conversion)

    def test_unstable_at_and_beyond_threshold(self, device):
        for c in (1.001, 2.0, 10.0):
            sys_ = self._blue_at(device, c)
            with pytest.raises(InstabilityError, match=r"parametric threshold C = 1$"):
                scattering_at(sys_, 0.0)

    def test_determinant_sign_change_at_threshold(self, device):
        # on-resonance determinant of the blue system, from the dense matrix:
        # positive below C = 1, negative above, straddling zero at the
        # threshold; the stability verdict follows its sign
        scale = device.mode_a.kappa * device.mode_b.kappa / 4.0

        def det_at(c):
            sys_ = self._blue_at(device, c)
            m = np.array([[sys_.kappa_a / 2.0, 1j * sys_.g_eff],
                          [-1j * sys_.g_eff, sys_.kappa_b / 2.0]])
            d = complex(np.linalg.det(m))
            assert abs(d.imag) <= 1e-12 * scale
            return d.real, blue_unstable(sys_)

        assert det_at(0.999) == (pytest.approx(1e-3 * scale, rel=1e-6), False)
        assert det_at(1.001) == (pytest.approx(-1e-3 * scale, rel=1e-6), True)
        assert abs(det_at(1.0)[0]) <= 1e-9 * scale

    def test_stability_resolved_next_to_threshold(self):
        # kappa_b / kappa_a = 1e-10 puts the decisive eigenvalue 1e-16 below
        # the other one at 1 - C = 1e-6, beyond what t/2 - sqrt(t^2/4 - det)
        # resolves in double precision
        ka, kb = 1e10, 1.0
        for c, unstable in ((1.0 - 1e-6, False), (1.0 - 1e-9, False), (1.0 + 1e-6, True)):
            g = math.sqrt(c * ka * kb / 4.0)
            sys_ = LinearizedSystem(g, ka / 2, ka / 2, kb / 2, kb / 2, Scheme.BLUE)
            if unstable:
                with pytest.raises(InstabilityError):
                    scattering_at(sys_, 0.0)
            else:
                assert math.isfinite(scattering_at(sys_, 0.0).conversion)

    def test_weak_coupling_still_has_unit_threshold(self, device):
        sys_ = build_linearized(device, 1e-30, Scheme.BLUE)
        assert cooperativity(device, 1e-30) < 1e-30
        assert parametric_threshold(sys_) == 1.0

    @pytest.mark.parametrize("design", ["shipped", "example"])
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_one_stability_verdict_at_unit_cooperativity(self, design, ulps):
        # within ULPs of C = 1 the verdict comes from the eigenvalues alone;
        # at the example's n_p* core's C is 1.0 but 4G^2/(kappa_a kappa_b)
        # rounds to 1 - 2^-52, so a verdict from a C comparison could differ
        if design == "shipped":
            cfg = load_config(str(SHIPPED_FIXTURE)).transducer
        else:
            cfg = TransducerConfig(
                mode_a=Mode("a", 1e15, 172785996.358896, 247322256.22389582),
                mode_b=Mode("b", 1e10, 0.45284696353498755, 1.1560499640492272),
                mode_p=Mode("p", 1e15, 1e8, 1e8),
                g_eo=579.6434744317194,
            )
        n_star = critical_photon_number(cfg)
        if design == "example":
            assert n_star == 502.9299996111061
            assert cooperativity(cfg, n_star) == 1.0
        sys_ = build_linearized(cfg, n_star * (1.0 + ulps * 2.0**-52), Scheme.BLUE)
        if blue_unstable(sys_):
            with pytest.raises(InstabilityError):
                scattering_at(sys_, 0.0)
        else:
            assert math.isfinite(scattering_at(sys_, 0.0).conversion)

    @pytest.mark.parametrize("kappa", [1e-200, 1e200])
    def test_threshold_with_kappa_product_out_of_range(self, kappa):
        # kappa_a * kappa_b underflows to 0 or overflows to inf; the
        # threshold is C = 1 whatever the loss rates
        sys_ = LinearizedSystem(1.0, 0.0, kappa, 0.0, kappa, Scheme.BLUE)
        assert parametric_threshold(sys_) == 1.0

    def test_weak_coupling_with_overflowing_trace_square(self):
        # C ~ 1e-315 is far below the threshold although the squared half
        # trace, ((kappa_a + kappa_b)/4)^2, overflows: the point solves, to
        # the blue gain 4C/(1-C)^2 of two fully overcoupled modes
        sys_ = LinearizedSystem(1.25e-17, 0.0, 4.38e38, 0.0, 1.66e243, Scheme.BLUE)
        c = 4 * Fraction(sys_.g_eff) ** 2 / (Fraction(sys_.kappa_a) * Fraction(sys_.kappa_b))
        assert not blue_unstable(sys_)
        point = conversion_spectrum(sys_, [0.0])[0]
        assert point.conversion == pytest.approx(float(4 * c / (1 - c) ** 2), rel=1e-6)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        log_ka=st.floats(0.0, 10.0),
        log_kb=st.floats(0.0, 10.0),
        log_c=st.floats(-3.0, 3.0),
        ulps=st.one_of(st.none(), st.integers(-4, 4)),
    )
    def test_stability_matches_dense_eigenvalues(self, log_ka, log_kb, log_c, ulps):
        # an ulps draw puts C within 4 ULPs of 1, where the dense eigenvalues
        # cannot resolve the sign of the decisive one; every draw is also
        # checked against that eigenvalue in cancellation-free form
        ka, kb = 10.0**log_ka, 10.0**log_kb
        c = 10.0**log_c
        if ulps is not None:
            c = 1.0
            for _ in range(abs(ulps)):
                c = math.nextafter(c, 2.0 if ulps > 0 else 0.0)
        g = math.sqrt(c * ka * kb / 4.0)
        sys_ = LinearizedSystem(g, ka / 2, ka / 2, kb / 2, kb / 2, Scheme.BLUE)
        unstable = blue_unstable(sys_)
        eigs = np.linalg.eigvals(np.array([[ka / 2, 1j * g], [-1j * g, kb / 2]]))
        # skip the dense check where the decisive eigenvalue sits within
        # rounding of the axis
        if abs(eigs.real.min()) > 1e-9 * np.abs(eigs).max():
            assert unstable == (eigs.real.min() <= 0.0)
        # eigenvalues half_trace +- root with Re(root) >= 0: half_trace + root
        # decays, and the other is det / (half_trace + root)
        m11, m12, m21, m22 = complex(ka / 2), 1j * g, -1j * g, complex(kb / 2)
        half_trace = (m11 + m22) / 2.0
        det = m11 * m22 - m12 * m21
        root = cmath.sqrt(half_trace * half_trace - det)
        assert unstable == ((det / (half_trace + root)).real <= 0.0)

    def test_blue_matches_dense_solver(self, device):
        sys_ = self._blue_at(device, 0.4)
        for omega in (0.0, 1e3, -4e4):
            point = scattering_at(sys_, omega)
            assert point.conversion == pytest.approx(numpy_conversion(sys_, omega), rel=1e-12)

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(rates=st.tuples(*[st.floats(-20.0, 20.0).map(lambda e: 10.0**e)] * 5),
           u=st.floats(0.0, 1.0))
    # 1 - C = 1.2e-6, just inside the cut: off by 3.9e-10
    @example(rates=(1e-20, 1e20, 3e7, 2e-3, 1e15), u=0.9999996)
    def test_blue_matches_closed_form_on_resonance(self, rates, u):
        # the blue twin of the red closed form: ex_a ex_b 4C / (1 - C)^2
        kappa_a_i, kappa_a_ex, kappa_b_i, kappa_b_ex, g_eo = rates
        device = make_device()
        cfg = TransducerConfig(Mode("a", device.mode_a.omega, kappa_a_i, kappa_a_ex),
                               Mode("b", device.mode_b.omega, kappa_b_i, kappa_b_ex),
                               device.mode_p, g_eo)
        n_p = critical_photon_number(cfg) * u**3
        try:
            breakdown = conversion_efficiency(cfg, n_p)
        except DomainError:  # a product the range rule rejects
            return
        c = breakdown.cooperativity
        if c >= 1.0 - 1e-6:
            return
        expected = breakdown.extraction_a * breakdown.extraction_b * 4.0 * c / (1.0 - c) ** 2
        conversion = scattering_at(build_linearized(cfg, n_p, Scheme.BLUE), 0.0).conversion
        # det M(0) = (ka/2)(kb/2) - G^2 cancels to 1 - C of its terms, so the
        # error grows as about one ulp over 1 - C: near 1e-10 at the cut
        assert abs(conversion - expected) <= 1e-9 * expected


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(rates=st.tuples(*[log_uniform(-20.0, 20.0)] * 4), u=st.floats(1e-4, 1.0),
       boost=st.sampled_from([1.0, 3.0]), offsets=st.lists(st.floats(-1.0, 1.0), max_size=8))
def test_spectrum_matches_closed_form_at_every_probe(rates, u, boost, offsets):
    # |S_ba(w)|^2 = ka_ex kb_ex G^2 / ((ka kb/4 - w^2 +- G^2)^2 + w^2 (ka + kb)^2/4),
    # + for red and - for blue, at verify's 32 probe offsets, on resonance and
    # at drawn offsets in +-5 max(ka, kb); blue only below its threshold
    kappa_a_i, kappa_a_ex, kappa_b_i, kappa_b_ex = rates
    ka, kb = kappa_a_i + kappa_a_ex, kappa_b_i + kappa_b_ex
    c = boost * u**3
    g = math.sqrt(c * ka * kb / 4.0)
    span = 5.0 * max(ka, kb)
    omegas = [span * ((2 * k + 1) / 32 - 1.0) for k in range(32)] + [0.0]
    omegas += [span * v for v in offsets]
    for scheme, sign in ((Scheme.RED, 1.0), (Scheme.BLUE, -1.0)):
        if scheme is Scheme.BLUE and c >= 1.0 - 1e-6:
            continue
        sys_ = LinearizedSystem(g, kappa_a_i, kappa_a_ex, kappa_b_i, kappa_b_ex, scheme)
        for point in conversion_spectrum(sys_, omegas):
            w = point.probe_offset
            expected = kappa_a_ex * kappa_b_ex * g**2 / (
                (ka * kb / 4.0 - w**2 + sign * g**2) ** 2 + w**2 * (ka + kb) ** 2 / 4.0)
            assert abs(point.conversion - expected) <= 1e-9 * expected, (scheme, w)


def test_verify_pipeline_from_drive(device):
    # the full path a verify run takes: power -> n_p -> linearization -> oracle
    drive = DriveCondition(pump_power=2e-5)
    n_p = intracavity_photon_number(device.mode_p, drive)
    eta = conversion_efficiency(device, n_p).eta
    conv = scattering_at(build_linearized(device, n_p), 0.0).conversion
    assert conv == pytest.approx(eta, rel=1e-9)


def drawn_spectra(seed, count):
    """``repr`` of each drawn system's 8-probe spectrum, or ``Class: message``
    of what it raises. Half the red and blue systems draw each rate and probe
    offset from 2^-498..2^499 (about 1e-150..1e150) on its own, half within
    2^+-30 of a common scale from 2^-620 (about 1e-187) to 2^499; one rate in
    20 is 0, and one system in 50 has an infinite, nan or non-numeric offset.
    Rates are exact binary draws, so the inputs depend on no libm function."""
    rng = random.Random(seed)

    def rate(exponent):
        return 0.0 if rng.random() < 0.05 else math.ldexp(0.5 + rng.random(), exponent)

    for _ in range(count):
        wide = rng.random() < 0.5
        base = rng.randint(-620, 498)

        def exponent():
            return rng.randint(-498, 498) if wide else base + rng.randint(-30, 30)

        rates = [rate(exponent()) for _ in range(5)]
        rates[2] = rates[2] or math.ldexp(1.0, base)  # kappa_a > 0
        rates[4] = rates[4] or math.ldexp(1.0, base)  # kappa_b > 0
        scheme = Scheme.RED if rng.random() < 0.5 else Scheme.BLUE
        omegas = [0.0] + [rng.choice((-1.0, 1.0)) * rate(exponent()) for _ in range(7)]
        if rng.random() < 0.02:
            omegas[rng.randrange(8)] = rng.choice((math.inf, -math.inf, math.nan, "x"))
        try:
            yield repr(conversion_spectrum(LinearizedSystem(*rates, scheme), omegas))
        except (ArithmeticError, DomainError, InstabilityError) as exc:
            yield f"{type(exc).__name__}: {exc}"


def test_spectrum_bits_are_pinned():
    # 3000 systems: 2335 solve, 533 are unstable blue systems, 110 have a bad
    # offset or a determinant beyond double range, and 22 fail the residual
    # check (rates near 1e-170 make the determinant subnormal). The digest was
    # taken with CPython 3.11 on x86-64 Linux; any change to a bit, class or
    # message shows.
    lines = list(drawn_spectra(18, 3000))
    assert sum(line.startswith("ArithmeticError: 2x2 residual") for line in lines) == 22
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c183c3d5ebb508fec5068a2aa471a5cb23b80f95bf06837bdac8151bf1574fa1"


@pytest.mark.parametrize("scheme", [Scheme.RED, Scheme.BLUE])
def test_residual_check_still_runs(device, monkeypatch, scheme):
    sys_ = build_linearized(device, 1e2, scheme)
    conversion_spectrum(sys_, [0.0, 1e3])
    monkeypatch.setattr(scattering, "_RESIDUAL_RTOL", -1.0)
    with pytest.raises(ArithmeticError, match="2x2 residual .* exceeds -1.0e\\+00 \\* "):
        conversion_spectrum(sys_, [0.0, 1e3])
