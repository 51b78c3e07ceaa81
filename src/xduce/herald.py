"""Photon statistics for heralded entanglement between two remote nodes.

Each node generates microwave photons as a Poisson process with rate
``r0`` inside a heralding window ``dt``, so the per-node count is
Poisson with mean ``mu = r0 * dt``. The closed forms below are taken
as given, including their approximations: the multi-photon term of the
blue scheme uses a factor-2 union bound, Pmn = 2 P(n >= 2), and the Monte
Carlo sampler in this module exists to quantify that gap, not to correct
it. A trial is an error when both cavities hold one photon or either holds
two or more, that is when their summed count, a Poisson(2 mu) count, is at
least 2. So the sampler estimates the exact error probability

    1 - P0^2 (1 + 2 mu) = P(Poisson(2 mu) >= 2) = multi_photon_probability(2 mu),

and the union bound Pmn + P11 exceeds it by exactly P(n >= 2)^2.

.. warning::
   The red-detuned branch defines ``P0 = 1 - exp(-r0 dt)`` as the
   "no photon generated" probability, which is the opposite of the
   Poisson convention the blue branch uses. As a consequence the red
   infidelity ``exp(-2 mu)`` *decreases* with rate while the blue one
   increases. Both are implemented exactly as defined; do not "fix" one
   to match the other.
"""

from __future__ import annotations

import math

from .core import (NonNegative, Scheme, _Frozen, _require_count, _require_non_negative,
                   _shown)
from .errors import DomainError, ModelRegimeError, UsageError

__all__ = ["HeraldModel", "HeraldBreakdown", "McEstimate", "blue_breakdown", "red_breakdown",
           "mc_blue_infidelity", "storage_loss_infidelity"]

# Upper end of the blue herald model's regime in mu; the breakdown, the
# sampler and the sweeps reject larger means.
MAX_POISSON_MEAN = 10.0

# Below this Poisson mean, multi_photon_probability sums a series, because
# 1 - P0 - P1 loses about 2e-16 / m^2 of P(n >= 2) to cancellation (1e-11
# relative here, 55-fold at m = 1e-9). At and above it the subtraction stays,
# so the sweep's golden files keep their bits.
_SERIES_BELOW = 4e-3

# Trials per RNG block, each block drawn from its own (seed, block) Philox
# stream. Fixed, because the block layout decides which uniforms each trial
# sees: changing it would change every estimate for a given seed.
_BLOCK_SIZE = 1_000_000

# Trials per chunk, the unit a block is drawn and compared in: 128 KB of
# uint64 words per cavity, so the working set stays in cache and a block's
# memory is bounded (32k-trial chunks had glibc return and fault back
# thousands of pages per block). Any size gives the same counts.
_CHUNK_WORDS = 2**14


class HeraldModel(_Frozen):
    """Photon generation rate r0 (1/s), window dt (s), and scheme."""

    r0: NonNegative
    dt: NonNegative
    scheme: Scheme

    def _check(self) -> None:
        if not math.isfinite(self.r0 * self.dt):
            raise DomainError(f"mu = r0 * dt overflows for r0 = {self.r0!r}, dt = {self.dt!r}")

    @property
    def mu(self) -> float:
        """Single-cavity Poisson mean r0 * dt."""
        return self.r0 * self.dt


class HeraldBreakdown(_Frozen):
    """Probability breakdown of one heralding window.

    ``p1`` and ``pmn`` are only defined for the blue scheme and are None
    for red. ``pmn`` is reported exactly as computed; its union bound can
    exceed what an exact treatment gives (see module docstring).
    """

    p0: float
    p1: float | None
    p11: float
    pmn: float | None
    infidelity: float
    scheme: Scheme


class McEstimate(_Frozen):
    """Monte Carlo infidelity estimate, bit-reproducible from the seed."""

    samples: int
    infidelity_mean: float
    standard_error: float
    seed: int


def blue_breakdown(model: HeraldModel) -> HeraldBreakdown:
    """Blue-detuned (pair creation) heralding probabilities.

    With mu = r0 * dt:

        P0  = exp(-mu)          no photon in one cavity
        P1  = mu * exp(-mu)     exactly one photon in one cavity
        P11 = P1^2              one photon in each cavity
        Pmn = 2 (1 - P0 - P1)   multi-photon events, union bound, summed
                                without cancellation for small mu

    and the heralded-state infidelity is Pmn + P11. mu >= 10 is outside the
    model's regime and raises :class:`ModelRegimeError`, as in the sampler
    and the sweeps.
    """
    if model.scheme is not Scheme.BLUE:
        raise UsageError("blue_breakdown requires a blue-scheme model")
    return HeraldBreakdown(*blue_probabilities(model.mu), scheme=Scheme.BLUE)


def blue_probabilities(mu: float) -> tuple[float, float, float, float, float]:
    """P0, P1, P11, Pmn and the infidelity Pmn + P11 of :func:`blue_breakdown`.

    This is the one regime check of the blue scheme, shared by the breakdown
    and the sampler: a mu that is not below 10, nan included, raises
    :class:`ModelRegimeError`.
    """
    if not mu < MAX_POISSON_MEAN:
        raise ModelRegimeError(
            f"mu = {mu:.6g} is outside the herald model regime (mu < {MAX_POISSON_MEAN:g})"
        )
    p0 = math.exp(-mu)
    p1 = mu * p0
    p11 = p1 * p1
    pmn = 2.0 * multi_photon_probability(mu)
    return p0, p1, p11, pmn, pmn + p11


def multi_photon_probability(m: float) -> float:
    """P(n >= 2) for a Poisson(m) count n, without cancellation.

    Below m = 4e-3 it is the series e^-m (m^2/2!)(1 + m/3 (1 + m/4 (... m/7))),
    whose first omitted term is under 1e-18 of the sum; from there up it is
    1 - P0 - P1 with P0 = e^-m and P1 = m P0. ``multi_photon_probability(2 *
    mu)`` is the exact probability of the sampler's error event (module
    docstring).
    """
    p0 = math.exp(-m)
    if m >= _SERIES_BELOW:
        return 1.0 - p0 - m * p0
    series = 1.0
    for k in (7, 6, 5, 4, 3):
        series = 1.0 + m / k * series
    return p0 * (m * m / 2.0) * series


def red_breakdown(model: HeraldModel) -> HeraldBreakdown:
    """Red-detuned heralding probabilities, exactly as the model defines them.

    P0 = 1 - exp(-r0 dt) is labelled the no-photon probability here, the
    opposite of the blue branch's Poisson convention (module docstring).
    At most one photon per cavity is assumed, so the infidelity is the
    |11> population P11 = (1 - P0)^2 = exp(-2 mu), which *decreases* as
    the rate grows.
    """
    if model.scheme is not Scheme.RED:
        raise UsageError("red_breakdown requires a red-scheme model")
    mu = model.mu
    p0 = 1.0 - math.exp(-mu)
    # a product, not ** 2: C pow need not round correctly
    p11 = (1.0 - p0) * (1.0 - p0)
    return HeraldBreakdown(
        p0=p0, p1=None, p11=p11, pmn=None, infidelity=p11, scheme=Scheme.RED
    )


def storage_loss_infidelity(kappa_b_i: float, hold_time: float) -> float:
    """Probability that a stored microwave photon decays during a hold.

    1 - exp(-kappa_b_i * hold_time). This is a model extension for memory
    decay while waiting on the herald; it is kept separate from the window
    probabilities above and is never mixed into them. For small arguments
    it is linear, so a tenfold better intrinsic Q lowers it tenfold.
    """
    kappa_b_i = _require_non_negative(kappa_b_i, "kappa_b_i")
    hold_time = _require_non_negative(hold_time, "hold_time")
    return -math.expm1(-kappa_b_i * hold_time)


def _word_thresholds(f0: float, f1: float):
    """The uint64 words T0, T1 with r > T exactly when u >= f."""
    import numpy as np

    # r >= k << 11 as r > (k << 11) - 1, which fits uint64 also for
    # k = 2**53, the f that rounds to 1 and so is never reached
    return tuple(np.uint64((min(math.ceil(f * 2.0**53), 2**53) << 11) - 1) for f in (f0, f1))


def _count_errors(seed: int, samples: int, t0, t1) -> int:
    """Errors among the ``samples`` trials of a call, counted block by block.

    Trial i of an n-trial block reads cavity a's uniform from word i and
    cavity b's from word n + i of the block's raw Philox stream: ``u_a`` is
    words [0, n) and ``u_b`` words [n, 2n), the values
    ``Generator.random(n)`` twice would give. NumPy keeps a bit generator's
    raw words stable across versions, not its ``Generator`` methods.
    ``random()`` turns a word r into ``(r >> 11) * 2**-53``, so ``u >= f``
    holds exactly when ``r >= ceil(f * 2**53) << 11``; t0 and t1 are those
    bounds for P0 and P0 + P1, less one (:func:`_word_thresholds`).

    Each block builds two cursors on its (seed, block) stream and moves
    cavity b's to word n once: ``advance`` takes whole 4-word counter steps
    and ``random_raw`` the rest. Both then read forward a chunk at a time.
    """
    import numpy as np

    errors = 0
    for block in range(-(-samples // _BLOCK_SIZE)):
        n = min(_BLOCK_SIZE, samples - block * _BLOCK_SIZE)
        stream = np.random.SeedSequence((seed, block))
        words_a = np.random.Philox(stream)
        words_b = np.random.Philox(stream)
        words_b.advance(n // 4)
        words_b.random_raw(n % 4)
        for start in range(0, n, _CHUNK_WORDS):
            m = min(_CHUNK_WORDS, n - start)
            r_a = words_a.random_raw(m)
            r_b = words_b.random_raw(m)
            # both cavities hold a photon, or either holds two
            hit = np.minimum(r_a, r_b) > t0
            hit |= np.maximum(r_a, r_b, out=r_a) > t1
            errors += int(np.count_nonzero(hit))
    return errors


def mc_blue_infidelity(model: HeraldModel, samples: int, seed: int) -> McEstimate:
    """Monte Carlo oracle for the blue-scheme infidelity.

    Each trial draws one uniform per cavity, read as an independent
    Poisson(mu) count by comparing it with P0 and P0 + P1 of
    :func:`blue_probabilities`, and flags an error when both cavities show
    exactly one photon or either shows two or more; the estimate is the
    error fraction. Trials are generated in fixed-size blocks, each from
    its own Philox counter-based stream keyed by (seed, block index), and
    the integer error counts are summed, so the result is bit-identical
    for a given seed.
    """
    if model.scheme is not Scheme.BLUE:
        raise UsageError("mc_blue_infidelity requires a blue-scheme model")
    samples = _require_count(samples, "samples")
    seed = _require_count(seed, "seed")
    if samples < 1:
        raise UsageError(f"samples must be at least 1, got {_shown(samples)}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {_shown(seed)}")
    p0, p1 = blue_probabilities(model.mu)[:2]
    total = _count_errors(seed, samples, *_word_thresholds(p0, p0 + p1))
    mean = total / samples
    if samples > 1:
        stderr = math.sqrt(mean * (1.0 - mean) / (samples - 1))
    else:
        stderr = 0.0
    return McEstimate(samples=samples, infidelity_mean=mean, standard_error=stderr, seed=seed)
