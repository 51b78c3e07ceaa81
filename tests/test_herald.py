import math
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xduce import (
    DomainError,
    HeraldModel,
    McEstimate,
    ModelRegimeError,
    Scheme,
    UsageError,
    blue_breakdown,
    mc_blue_infidelity,
    red_breakdown,
    storage_loss_infidelity,
)
from xduce import herald
from xduce.herald import blue_probabilities
from conftest import reference_block_error_count, truncated_error_probability

# High-precision references for mu = 0.1, evaluated with 50-digit decimal
# arithmetic during development and frozen here.
BLUE_MU01 = dict(
    p0=0.9048374180359596,
    p1=0.09048374180359596,
    p11=0.008187307530779819,
    pmn=0.009357680320888939,
    infidelity=0.017544987851668758,
)
RED_MU01 = dict(p0=0.09516258196404043, p11=0.8187307530779818)

# Exact probability that a trial is classified as an error event, from the
# same 50-digit evaluation (truncated double-Poisson sum, counts <= 20).
EXACT_ERROR_PROB = {
    0.001: 1.9973353322671108e-06,
    0.01: 0.00019735322710959173,
    0.1: 0.01752309630642177,
}


# McEstimate (infidelity_mean, standard_error) per (mu, seed, samples), frozen
# from an earlier version of the sampler: a given seed must keep giving the
# same bits across versions. 2_500_000 samples end in a partial third block.
FROZEN_MC = {
    (0.0, 0, 100_000): (0.0, 0.0),
    (0.0, 7, 100_000): (0.0, 0.0),
    (0.0, 2147483647, 100_000): (0.0, 0.0),
    (1e-12, 0, 100_000): (0.0, 0.0),
    (1e-12, 7, 100_000): (0.0, 0.0),
    (1e-12, 2147483647, 100_000): (0.0, 0.0),
    (0.001, 3, 2_000_000): (1.5e-06, 8.660249707714121e-07),
    (0.01, 0, 100_000): (0.00023, 4.795303947551135e-05),
    (0.01, 7, 100_000): (0.00015, 3.8727122251724034e-05),
    (0.01, 2147483647, 100_000): (0.00012, 3.4639110824038e-05),
    (0.01, 5, 1): (0.0, 0.0),
    (0.3, 0, 100_000): (0.12188, 0.0010345353346471963),
    (0.3, 7, 100_000): (0.12132, 0.0010324849811267777),
    (0.3, 2147483647, 100_000): (0.12144, 0.0010329249408061235),
    (0.3, 42, 2_500_000): (0.121828, 0.00020686805573639686),
    (2.0, 0, 100_000): (0.90702, 0.0009183439603744858),
    (2.0, 7, 100_000): (0.90755, 0.0009159903740671373),
    (2.0, 2147483647, 100_000): (0.90823, 0.0009129572859176158),
    (5.0, 11, 100_000): (0.99942, 7.613602279433775e-05),
    (9.99, 0, 100_000): (1.0, 0.0),
    (9.99, 7, 100_000): (1.0, 0.0),
    (9.99, 2147483647, 100_000): (1.0, 0.0),
    # P0 + P1 rounds to 1 while P0 does not
    (1e-09, 0, 100_000): (0.0, 0.0),
    (1e-09, 7, 100_000): (0.0, 0.0),
    # the last block's 2n words are not a whole number of Philox counter steps
    (0.3, 1, 1_000_003): (0.12147163558509325, 0.0003266742473799362),
    (2.0, 9, 1_000_003): (0.9086052741841775, 0.0002881693318619202),
    (0.3, 2, 2_000_001): (0.12192293903853048, 0.0002313630653050928),
    # blocks that are not a multiple of any power-of-two chunk size
    (0.01, 3, 65_537): (0.00018310267482490807, 5.2852753161734234e-05),
    (0.3, 4, 65_537): (0.12298396325739659, 0.0012828859365809414),
    (2.0, 5, 131_071): (0.9079659116051606, 0.0007984679337239532),
    (0.3, 6, 131_071): (0.12230012741186075, 0.0009049713340693008),
}


def blue_model(mu):
    return HeraldModel(r0=mu, dt=1.0, scheme=Scheme.BLUE)


class TestBlueBreakdown:
    def test_zero_rate_limit(self):
        bd = blue_breakdown(blue_model(0.0))
        assert bd.p0 == 1.0
        assert bd.p1 == 0.0
        assert bd.p11 == 0.0
        assert bd.pmn == 0.0
        assert bd.infidelity == 0.0

    def test_mu_tenth_reference_values(self):
        bd = blue_breakdown(HeraldModel(r0=100.0, dt=1e-3, scheme=Scheme.BLUE))
        for name, expected in BLUE_MU01.items():
            assert getattr(bd, name) == pytest.approx(expected, rel=1e-12), name

    def test_small_mu_leading_order(self):
        # Pmn + P11 = 2 mu^2 + O(mu^3); at mu = 1e-4 the ratio to 2 mu^2
        # is within 0.02 percent
        mu = 1e-4
        bd = blue_breakdown(blue_model(mu))
        assert bd.infidelity == pytest.approx(2.0 * mu * mu, rel=1e-2)

    def test_identities_exact_on_grid(self):
        for mu in np.linspace(0.0, 5.0, 501):
            bd = blue_breakdown(blue_model(float(mu)))
            assert bd.p11 == bd.p1 * bd.p1
            assert bd.pmn == 2.0 * (1.0 - bd.p0 - bd.p1)
            assert 0.0 <= bd.p0 <= 1.0
            assert 0.0 <= bd.p1 <= 1.0
            assert 0.0 <= bd.p11 <= 1.0

    def test_union_bound_term_is_not_clamped(self):
        # the multi-photon term is a 2x union bound and legitimately exceeds
        # 1 at large mu; it is reported as computed
        bd = blue_breakdown(blue_model(5.0))
        assert bd.pmn > 1.0

    def test_infidelity_increasing_at_low_mu(self):
        grid = np.linspace(0.0, 0.2, 201)
        values = [blue_breakdown(blue_model(float(mu))).infidelity for mu in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_wrong_scheme_rejected(self):
        with pytest.raises(UsageError):
            blue_breakdown(HeraldModel(r0=1.0, dt=1.0, scheme=Scheme.RED))

    def test_mean_just_inside_regime_accepted(self):
        bd = blue_breakdown(blue_model(9.99))
        assert bd.infidelity == pytest.approx(2.0 * (1.0 - 10.99 * math.exp(-9.99))
                                              + (9.99 * math.exp(-9.99)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("mu", [10.0, 100.0])
    def test_mean_outside_regime_rejected(self, mu):
        # the same regime the sampler and the sweeps enforce
        with pytest.raises(ModelRegimeError, match="outside the herald model regime"):
            blue_breakdown(blue_model(mu))
        with pytest.raises(ModelRegimeError, match="outside the herald model regime"):
            mc_blue_infidelity(blue_model(mu), samples=10, seed=0)


def test_nan_mean_outside_regime():
    # only a sweep column can hold one: r0 = C kappa_b overflowing, times dt = 0
    with pytest.raises(ModelRegimeError, match="mu = nan is outside the herald model regime"):
        blue_probabilities(math.nan)


def decimal_multi_photon(m: float) -> Decimal:
    """P(Poisson(m) >= 2) = 1 - e^-m (1 + m) at 60 digits, from the double m."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(m)
        return 1 - (-m).exp() * (1 + m)


class TestMultiPhoton:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=st.floats(-12.0, math.log10(20.0)).map(lambda exponent: 10.0 ** exponent))
    @example(m=1e-12)
    @example(m=1e-9)
    # both sides of the switch from the series to the subtraction
    @example(m=math.nextafter(4e-3, 0.0))
    @example(m=4e-3)
    @example(m=4.4e-3)
    def test_against_decimal_reference(self, m):
        expected = decimal_multi_photon(m)
        got = herald.multi_photon_probability(m)
        assert abs(Decimal(got) - expected) <= Decimal("1e-10") * expected

    def test_zero_mean(self):
        assert herald.multi_photon_probability(0.0) == 0.0

    @pytest.mark.parametrize("mu", sorted(EXACT_ERROR_PROB))
    def test_exact_error_probability(self, mu):
        # the sampler's error event is a Poisson(2 mu) count of at least 2
        assert herald.multi_photon_probability(2.0 * mu) == pytest.approx(
            EXACT_ERROR_PROB[mu], rel=1e-11)

    @pytest.mark.parametrize("mu", [0.05, 0.1, 0.3, 1.0, 3.0, 9.99])
    def test_union_bound_exceeds_exact_by_tail_squared(self, mu):
        tail = herald.multi_photon_probability(mu)
        gap = blue_breakdown(blue_model(mu)).infidelity - herald.multi_photon_probability(2 * mu)
        assert gap == pytest.approx(tail * tail, rel=1e-9)

    def test_union_bound_passes_one_where_exact_does_not(self):
        assert blue_breakdown(blue_model(3.0)).infidelity == pytest.approx(1.62401, abs=1e-5)
        assert herald.multi_photon_probability(6.0) == pytest.approx(0.98265, abs=1e-5)

    @pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-7, 1e-4])
    def test_small_mu_breakdown_against_decimal_reference(self, mu):
        # 1 - P0 - P1 cancels to pmn = -5.46e-17 at mu = 1e-9, where it is 1.0e-18
        bd = blue_breakdown(blue_model(mu))
        pmn = 2 * decimal_multi_photon(mu)
        with localcontext() as ctx:
            ctx.prec = 60
            p1 = Decimal(mu) * (-Decimal(mu)).exp()
            infidelity = pmn + p1 * p1
        assert abs(Decimal(bd.pmn) - pmn) <= Decimal("1e-12") * pmn
        assert abs(Decimal(bd.infidelity) - infidelity) <= Decimal("1e-12") * infidelity


class TestRedBreakdown:
    def test_mu_tenth_literal_values(self):
        bd = red_breakdown(HeraldModel(r0=100.0, dt=1e-3, scheme=Scheme.RED))
        assert bd.p0 == pytest.approx(RED_MU01["p0"], rel=1e-12)
        assert bd.p11 == pytest.approx(RED_MU01["p11"], rel=1e-12)
        assert bd.infidelity == bd.p11
        assert bd.p1 is None
        assert bd.pmn is None

    def test_limits(self):
        # the stated expressions give infidelity 1 at zero rate and 0 at
        # infinite rate, the opposite trend of the blue scheme; implemented
        # as written
        assert red_breakdown(HeraldModel(r0=0.0, dt=1.0, scheme=Scheme.RED)).p11 == 1.0
        huge = red_breakdown(HeraldModel(r0=1e6, dt=1.0, scheme=Scheme.RED))
        assert huge.p11 == pytest.approx(0.0, abs=1e-300)

    def test_wrong_scheme_rejected(self):
        with pytest.raises(UsageError):
            red_breakdown(HeraldModel(r0=1.0, dt=1.0, scheme=Scheme.BLUE))

    def test_p11_is_the_square_rounded_once(self):
        # a product, not ** 2: C pow need not round correctly, and at the
        # shipped window with r0 = 6.19691480648997 /s it read one ulp high
        windows = [(6.19691480648997, 1e-3)] + [(mu, 1.0) for mu in np.logspace(-6.0, 1.0, 2001)]
        for r0, dt in windows:
            bd = red_breakdown(HeraldModel(r0=float(r0), dt=dt, scheme=Scheme.RED))
            assert bd.p11 == float(Fraction(1.0 - bd.p0) ** 2), r0
            assert bd.infidelity == bd.p11


class TestModelValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            HeraldModel(r0=-1.0, dt=1.0, scheme=Scheme.BLUE)

    def test_negative_window_rejected(self):
        with pytest.raises(DomainError):
            HeraldModel(r0=1.0, dt=-1.0, scheme=Scheme.BLUE)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_overflowing_mean_rejected(self, scheme):
        # r0 and dt are finite, but their product is not
        with pytest.raises(DomainError, match="overflows"):
            HeraldModel(r0=100.0, dt=1e308, scheme=scheme)

    def test_mu_product(self):
        assert HeraldModel(r0=250.0, dt=4e-4, scheme=Scheme.BLUE).mu == pytest.approx(0.1)


class TestMonteCarlo:
    def test_zero_mu_is_exactly_zero(self):
        for seed in (0, 1, 987654321):
            est = mc_blue_infidelity(blue_model(0.0), samples=10_000, seed=seed)
            assert est.infidelity_mean == 0.0
            assert est.standard_error == 0.0

    def test_seed_reproducibility(self):
        est1 = mc_blue_infidelity(blue_model(0.05), samples=200_000, seed=31)
        est2 = mc_blue_infidelity(blue_model(0.05), samples=200_000, seed=31)
        assert est1 == est2

    @pytest.mark.parametrize("mu, seed, samples", sorted(FROZEN_MC))
    def test_frozen_estimates(self, mu, seed, samples):
        mean, stderr = FROZEN_MC[mu, seed, samples]
        est = mc_blue_infidelity(blue_model(mu), samples=samples, seed=seed)
        assert est == McEstimate(samples=samples, infidelity_mean=mean,
                                 standard_error=stderr, seed=seed)

    @pytest.mark.parametrize("chunk", [herald._CHUNK_WORDS, 7])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64), block_size=st.integers(1, 30_000),
           blocks=st.integers(1, 4), last=st.floats(0.0, 1.0),
           mu=st.floats(0.0, 10.0, exclude_max=True) | st.floats(1e-12, 1e-6))
    @example(seed=0, block_size=1, blocks=1, last=1.0, mu=0.0)
    @example(seed=7, block_size=65_537, blocks=1, last=1.0, mu=1e-9)
    # blocks of one chunk, cursors that start off the 4-word counter step,
    # and partial last blocks shorter than a chunk
    @example(seed=1, block_size=1, blocks=3, last=1.0, mu=2.0)
    @example(seed=2, block_size=2, blocks=2, last=0.0, mu=2.0)
    @example(seed=3, block_size=3, blocks=4, last=0.5, mu=0.3)
    @example(seed=4, block_size=5, blocks=3, last=0.0, mu=0.3)
    @example(seed=5, block_size=2**14 + 3, blocks=2, last=0.0, mu=0.3)
    def test_block_counts_match_whole_array_draws(self, chunk, seed, block_size, blocks,
                                                   last, mu):
        # the raw words, compared as integers chunk by chunk and block after
        # block, count the same errors as two whole arrays of Generator.random
        # doubles per block
        samples = (blocks - 1) * block_size + max(1, round(last * block_size))
        p0, p1 = blue_probabilities(mu)[:2]
        expected = sum(
            reference_block_error_count(seed, b, min(block_size, samples - b * block_size),
                                        p0, p0 + p1)
            for b in range(blocks))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(herald, "_BLOCK_SIZE", block_size)
            patch.setattr(herald, "_CHUNK_WORDS", chunk)
            est = mc_blue_infidelity(blue_model(mu), samples=samples, seed=seed)
        assert est.infidelity_mean == expected / samples

    def test_block_keying_far_from_block_zero(self):
        # block b draws from the (seed, b) stream over all 10,000 blocks of a
        # call, and the partial 10,000th counts what the reference draws for
        # block 9999
        p0, p1 = blue_probabilities(0.3)[:2]
        t0, t1 = herald._word_thresholds(p0, p0 + p1)
        samples = 10_000 * 13 - 6
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(herald, "_BLOCK_SIZE", 13)
            patch.setattr(herald, "_CHUNK_WORDS", 5)
            count = herald._count_errors(11, samples, t0, t1)
            first_9999 = herald._count_errors(11, 9999 * 13, t0, t1)
        assert count == sum(
            reference_block_error_count(11, b, min(13, samples - b * 13), p0, p0 + p1)
            for b in range(10_000))
        assert count - first_9999 == reference_block_error_count(11, 9999, 7, p0, p0 + p1)

    def test_many_blocks_start_no_thread(self):
        # the call is counted on the caller's thread alone
        start = threading.Thread.start
        started = []

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(herald, "_BLOCK_SIZE", 1000)
            patch.setattr(threading.Thread, "start", counted_start)
            mc_blue_infidelity(blue_model(0.3), samples=20_500, seed=1)
        assert started == []
        assert threading.active_count() == threads

    def test_block_working_memory_is_bounded(self):
        # numpy reports its buffers to tracemalloc, so the peak is
        # deterministic; a block's two whole arrays of doubles alone are 16 MB
        model = blue_model(0.3)
        mc_blue_infidelity(model, samples=1_000_000, seed=1)  # imports and caches
        tracemalloc.start()
        try:
            mc_blue_infidelity(model, samples=1_000_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_against_truncated_sum(self):
        mu = 0.01
        est = mc_blue_infidelity(blue_model(mu), samples=1_000_000, seed=1234)
        exact = truncated_error_probability(mu)
        assert abs(est.infidelity_mean - exact) <= 3.0 * est.standard_error

    def test_standard_error_definition(self):
        est = mc_blue_infidelity(blue_model(0.1), samples=100_000, seed=2)
        p = est.infidelity_mean
        assert est.standard_error == pytest.approx(
            math.sqrt(p * (1.0 - p) / (est.samples - 1)), rel=1e-12
        )

    def test_zero_samples_rejected(self):
        with pytest.raises(UsageError):
            mc_blue_infidelity(blue_model(0.1), samples=0, seed=0)
        # str() of an int beyond 4300 digits raises, so the message gives its size
        with pytest.raises(UsageError, match="^samples must be at least 1, got a negative "
                                             "integer of 16610 bits$"):
            mc_blue_infidelity(blue_model(0.1), samples=-10**5000, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError):
            mc_blue_infidelity(blue_model(0.1), samples=10, seed=-1)
        with pytest.raises(UsageError, match="^seed must be a non-negative integer, got a "
                                             "negative integer of 16610 bits$"):
            mc_blue_infidelity(blue_model(0.1), samples=10, seed=-10**5000)

    def test_estimate_with_a_huge_seed_has_a_repr(self):
        # str() of an int beyond 4300 digits raises, so repr gives its size
        est = mc_blue_infidelity(blue_model(0.1), samples=10, seed=10**5000)
        assert est.seed == 10**5000
        assert repr(est).endswith(", seed=an integer of 16610 bits)")
        assert repr(est).startswith(f"McEstimate(samples=10, infidelity_mean={est.infidelity_mean!r}")

    @pytest.mark.parametrize("argument", ["samples", "seed"])
    @pytest.mark.parametrize("bad", [10.0, "4", True, None, np.float64(3.0), np.True_])
    def test_non_integer_count_is_named(self, argument, bad):
        counts = dict(samples=10, seed=1) | {argument: bad}
        with pytest.raises(DomainError, match=rf"^{argument} must be an integer"):
            mc_blue_infidelity(blue_model(0.1), **counts)

    def test_numpy_integer_counts_are_stored_as_int(self):
        est = mc_blue_infidelity(blue_model(0.1), samples=np.int64(1000), seed=np.uint8(3))
        assert est == mc_blue_infidelity(blue_model(0.1), samples=1000, seed=3)
        assert type(est.samples) is int and type(est.seed) is int

    def test_red_scheme_rejected(self):
        with pytest.raises(UsageError):
            mc_blue_infidelity(HeraldModel(r0=1.0, dt=0.1, scheme=Scheme.RED), 10, 0)

    def test_large_mean_rejected(self):
        with pytest.raises(ModelRegimeError):
            mc_blue_infidelity(blue_model(10.0), samples=10, seed=0)

    def test_truncated_oracle_matches_frozen_values(self):
        for mu, expected in EXACT_ERROR_PROB.items():
            assert truncated_error_probability(mu) == pytest.approx(expected, rel=1e-12)


class TestStorageLoss:
    def test_zero_hold(self):
        assert storage_loss_infidelity(1e3, 0.0) == 0.0
        assert storage_loss_infidelity(0.0, 1e3) == 0.0

    def test_half_life(self):
        assert storage_loss_infidelity(math.log(2.0), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_decade_scaling_in_linear_regime(self):
        # 10x better intrinsic Q means 10x lower loss while kappa*t <= 1e-3
        for kt in (1e-3, 1e-4, 1e-6):
            full = storage_loss_infidelity(kt, 1.0)
            tenth = storage_loss_infidelity(kt / 10.0, 1.0)
            assert full / tenth == pytest.approx(10.0, rel=1e-2)

    def test_monotone_and_bounded(self):
        # above kappa*t ~ 37 the value saturates to 1.0 in double precision,
        # so probe strict monotonicity where it is representable
        rates = np.logspace(-6, 1.4, 30)
        values = [storage_loss_infidelity(float(r), 1.0) for r in rates]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        times = np.logspace(-6, 1.4, 30)
        values_t = [storage_loss_infidelity(1.0, float(t)) for t in times]
        assert all(b > a for a, b in zip(values_t, values_t[1:]))

    def test_float32_inputs_multiply_in_float64(self):
        rate, hold = np.float32(0.1), np.float32(3.3)
        widened = storage_loss_infidelity(float(rate), float(hold))
        assert repr(storage_loss_infidelity(rate, hold)) == repr(widened)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            storage_loss_infidelity(-1.0, 1.0)
        with pytest.raises(DomainError):
            storage_loss_infidelity(1.0, -1.0)
