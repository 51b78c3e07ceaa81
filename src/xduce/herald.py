"""Photon statistics for heralded entanglement between two remote nodes.

Each node generates microwave photons as a Poisson process with rate
``r0`` inside a heralding window ``dt``, so the per-node count is
Poisson with mean ``mu = r0 * dt``. The closed forms below are taken
as given, including their approximations: the multi-photon term of the
blue scheme uses a factor-2 union bound, and the Monte Carlo sampler in
this module exists to quantify that gap, not to correct it.

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
from dataclasses import dataclass

import numpy as np

from .core import Scheme
from .errors import DomainError, ModelRegimeError, UsageError

# The sequential-search inversion sampler is exact and reproducible but only
# sensible for small means; larger means are outside the model regime anyway.
MAX_POISSON_MEAN = 10.0

# Trials per RNG block, each block drawn from its own (seed, block) Philox
# stream. Fixed, because the block layout decides which uniforms each trial
# sees: changing it would change every estimate for a given seed.
_BLOCK_SIZE = 1_000_000


@dataclass(frozen=True)
class HeraldModel:
    """Photon generation rate r0 (1/s), window dt (s), and scheme."""

    r0: float
    dt: float
    scheme: Scheme

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r0) and self.r0 >= 0.0):
            raise DomainError(f"r0 must be finite and non-negative, got {self.r0!r}")
        if not (math.isfinite(self.dt) and self.dt >= 0.0):
            raise DomainError(f"dt must be finite and non-negative, got {self.dt!r}")

    @property
    def mu(self) -> float:
        """Single-cavity Poisson mean r0 * dt."""
        return self.r0 * self.dt


@dataclass(frozen=True)
class HeraldBreakdown:
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


@dataclass(frozen=True)
class McEstimate:
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
        Pmn = 2 (1 - P0 - P1)   multi-photon events, union bound

    and the heralded-state infidelity is Pmn + P11.
    """
    if model.scheme is not Scheme.BLUE:
        raise UsageError("blue_breakdown requires a blue-scheme model")
    return HeraldBreakdown(*blue_probabilities(model.mu), scheme=Scheme.BLUE)


def blue_probabilities(mu: float) -> tuple[float, float, float, float, float]:
    """P0, P1, P11, Pmn and the infidelity Pmn + P11 of :func:`blue_breakdown`."""
    p0 = math.exp(-mu)
    p1 = mu * p0
    p11 = p1 * p1
    pmn = 2.0 * (1.0 - p0 - p1)
    return p0, p1, p11, pmn, pmn + p11


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
    p11 = (1.0 - p0) ** 2
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
    if not (math.isfinite(kappa_b_i) and kappa_b_i >= 0.0):
        raise DomainError(f"kappa_b_i must be finite and non-negative, got {kappa_b_i!r}")
    if not (math.isfinite(hold_time) and hold_time >= 0.0):
        raise DomainError(f"hold_time must be finite and non-negative, got {hold_time!r}")
    return -math.expm1(-kappa_b_i * hold_time)


def _poisson_cdf_table(mu: float) -> np.ndarray:
    """Cumulative Poisson probabilities F_k for k = 0, 1, ... until saturation."""
    table = []
    pmf = math.exp(-mu)
    cdf = pmf
    k = 0
    table.append(cdf)
    while cdf < 1.0 and k < 200:
        k += 1
        pmf *= mu / k
        new = cdf + pmf
        if new == cdf:
            break
        cdf = new
        table.append(cdf)
    return np.asarray(table)


def _sample_poisson(rng: np.random.Generator, n: int, cdf: np.ndarray) -> np.ndarray:
    """Exact inversion: smallest k with u < F_k, vectorized over n uniforms."""
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right")


def _block_error_count(seed: int, block: int, n: int, cdf: np.ndarray) -> int:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    n_a = _sample_poisson(rng, n, cdf)
    n_b = _sample_poisson(rng, n, cdf)
    errors = ((n_a == 1) & (n_b == 1)) | (n_a >= 2) | (n_b >= 2)
    return int(np.count_nonzero(errors))


def mc_blue_infidelity(model: HeraldModel, samples: int, seed: int) -> McEstimate:
    """Monte Carlo oracle for the blue-scheme infidelity.

    Each trial draws independent Poisson(mu) counts for the two cavities
    and flags an error when both show exactly one photon or either shows
    two or more; the estimate is the error fraction. Trials are generated
    in fixed-size blocks, each from its own Philox counter-based stream
    keyed by (seed, block index), and the integer error counts are summed,
    so the result is bit-identical for a given seed.
    """
    if model.scheme is not Scheme.BLUE:
        raise UsageError("mc_blue_infidelity requires a blue-scheme model")
    if samples < 1:
        raise UsageError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    mu = model.mu
    if mu >= MAX_POISSON_MEAN:
        raise ModelRegimeError(
            f"mu = {mu:.6g} is outside the sampler's regime (mu < {MAX_POISSON_MEAN:g})"
        )
    cdf = _poisson_cdf_table(mu)
    total = sum(
        _block_error_count(seed, i, min(_BLOCK_SIZE, samples - i * _BLOCK_SIZE), cdf)
        for i in range((samples + _BLOCK_SIZE - 1) // _BLOCK_SIZE)
    )
    mean = total / samples
    if samples > 1:
        stderr = math.sqrt(mean * (1.0 - mean) / (samples - 1))
    else:
        stderr = 0.0
    return McEstimate(samples=samples, infidelity_mean=mean, standard_error=stderr, seed=seed)
