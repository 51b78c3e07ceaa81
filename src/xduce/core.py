"""Closed-form physics of a cavity electro-optic transducer.

Three resonant modes take part: an optical signal mode ``a``, a microwave
mode ``b``, and an optical pump mode ``p`` that is driven classically to
bridge the microwave-optical energy gap. Everything here reduces to ratio
algebra on loss rates plus the pump photon number, so each operation is a
pure function.

Unit convention: every frequency and rate inside this package is angular
(rad/s). Quality factors are dimensionless and relate to rates through
``kappa = omega / Q``. Converting from laboratory Hz happens once, at
config ingestion (:mod:`xduce.config`), never here.

Loss rates are stored split into intrinsic and external parts because the
extraction ratios ``kappa_ex / kappa`` enter the conversion efficiency on
the same footing as the internal efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NoCriticalPointError, UndriveablePumpError

# Reduced Planck constant, CODATA 2018, J*s. Pinned as a literal so that
# photon-number values are reproducible bit for bit.
HBAR = 1.054571817e-34

TWO_PI = 2.0 * math.pi


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_positive(value: float, name: str) -> None:
    _require_finite(value, name)
    if value <= 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")


def _require_non_negative(value: float, name: str) -> None:
    _require_finite(value, name)
    if value < 0.0:
        raise DomainError(f"{name} must be non-negative, got {value!r}")


class Scheme(Enum):
    """Pump detuning scheme.

    RED: pump below the optical resonance; beam-splitter (swap) interaction
    used for conversion. BLUE: pump above resonance; two-mode-squeezing
    interaction creating correlated photon pairs, used for heralding.
    """

    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Mode:
    """One resonant mode with its loss budget.

    Parameters
    ----------
    label : str
        One of ``a`` (optical signal), ``b`` (microwave), ``p`` (pump).
    omega : float
        Resonance angular frequency, rad/s.
    kappa_i : float
        Intrinsic (parasitic) energy decay rate, rad/s.
    kappa_ex : float
        External coupling rate into the useful port, rad/s.

    ``kappa_i`` and ``kappa_ex`` are full-width energy decay rates; the
    total linewidth is their sum.
    """

    label: str
    omega: float
    kappa_i: float
    kappa_ex: float

    def __post_init__(self) -> None:
        if self.label not in ("a", "b", "p"):
            raise DomainError(f"mode label must be 'a', 'b' or 'p', got {self.label!r}")
        _require_positive(self.omega, f"mode {self.label}: omega")
        _require_non_negative(self.kappa_i, f"mode {self.label}: kappa_i")
        _require_non_negative(self.kappa_ex, f"mode {self.label}: kappa_ex")
        if self.kappa_i + self.kappa_ex <= 0.0:
            raise DomainError(f"mode {self.label}: total loss rate must be positive")

    @property
    def kappa(self) -> float:
        """Total energy decay rate kappa_i + kappa_ex, rad/s."""
        return self.kappa_i + self.kappa_ex

    @property
    def extraction(self) -> float:
        """Fraction of decay routed into the external port, in [0, 1]."""
        return self.kappa_ex / self.kappa


@dataclass(frozen=True)
class TransducerConfig:
    """A transducer: three modes plus the vacuum electro-optic coupling.

    ``g_eo`` (rad/s) is the vacuum coupling rate between the signal and
    microwave modes mediated by the pump. It is a direct input here; its
    derivation from crystal properties is out of scope.
    """

    mode_a: Mode
    mode_b: Mode
    mode_p: Mode
    g_eo: float

    def __post_init__(self) -> None:
        _require_non_negative(self.g_eo, "g_eo")
        labels = (self.mode_a.label, self.mode_b.label, self.mode_p.label)
        if labels != ("a", "b", "p"):
            raise DomainError(f"modes must carry labels ('a', 'b', 'p'), got {labels!r}")


@dataclass(frozen=True)
class DriveCondition:
    """Laser pump drive: power, detuning from the pump resonance, scheme.

    ``pump_detuning`` is the pump laser frequency minus the pump-mode
    resonance, rad/s. The scheme tag selects the interaction picture (RED:
    beam splitter, BLUE: two-mode squeezing); it carries no numeric
    constraint of its own.
    """

    pump_power: float
    pump_detuning: float = 0.0
    scheme: Scheme = Scheme.RED

    def __post_init__(self) -> None:
        _require_non_negative(self.pump_power, "pump_power")
        _require_finite(self.pump_detuning, "pump_detuning")


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Conversion efficiency with its three factors spelled out.

    ``eta = extraction_a * extraction_b * eta_i`` where ``eta_i`` is the
    internal efficiency ``4C/(1+C)^2``.
    """

    extraction_a: float
    extraction_b: float
    cooperativity: float
    eta_i: float
    eta: float


def q_to_kappa(omega: float, q: float) -> float:
    """Convert a quality factor to an energy decay rate, kappa = omega / Q.

    Both arguments must be positive; ``omega`` is angular (rad/s) and the
    result is too.
    """
    _require_positive(omega, "omega")
    _require_positive(q, "Q")
    return omega / q


def kappa_to_lifetime(kappa: float) -> float:
    """Photon lifetime 1/kappa in seconds for a decay rate in rad/s."""
    _require_positive(kappa, "kappa")
    return 1.0 / kappa


def overflow_error(c: float) -> DomainError:
    """The error for a cooperativity whose (1+C)^2 is not a finite double."""
    return DomainError(f"C = {c!r} is too large: (1+C)^2 overflows")


def _pump_buildup(mode_p: Mode, pump_detuning: float) -> float:
    kp = mode_p.kappa
    try:
        buildup = HBAR * mode_p.omega * ((kp / 2.0) ** 2 + pump_detuning**2)
    except OverflowError:
        raise DomainError(
            f"(kappa_p/2)^2 + delta_p^2 overflows: kappa_p = {kp!r}, delta_p = {pump_detuning!r}"
        ) from None
    if not 0.0 < buildup < math.inf:
        raise DomainError(f"pump buildup hbar * omega_p * ((kappa_p/2)^2 + delta_p^2) must be "
                          f"positive and finite, got {buildup!r}")
    return buildup


def photon_number(mode_p: Mode, pump_power, pump_detuning: float = 0.0):
    """Steady-state pump photon number from the drive power.

    Single-mode input-output buildup:

        n_p = kappa_p_ex * P / (hbar * omega_p * ((kappa_p/2)^2 + delta_p^2))

    Linear in the power, zero gives exactly zero; a float or a NumPy array
    of powers gives the same bits.
    """
    return mode_p.kappa_ex * pump_power / _pump_buildup(mode_p, pump_detuning)


def intracavity_photon_number(mode_p: Mode, drive: DriveCondition) -> float:
    """:func:`photon_number` at a drive condition."""
    return photon_number(mode_p, drive.pump_power, drive.pump_detuning)


def _coupling(cfg: TransducerConfig) -> tuple[float, float]:
    kappa_ab = cfg.mode_a.kappa * cfg.mode_b.kappa
    if kappa_ab == 0.0:
        raise DomainError("cooperativity undefined: kappa_a * kappa_b is zero")
    try:
        return cfg.g_eo**2, kappa_ab
    except OverflowError:
        raise DomainError(f"g_eo = {cfg.g_eo!r} is too large: g_eo^2 overflows") from None


def chain_scalars(cfg: TransducerConfig) -> tuple[float, float, float, float]:
    """The device's arguments to :func:`efficiency_chain`."""
    return (*_coupling(cfg), cfg.mode_a.extraction, cfg.mode_b.extraction)


def efficiency_chain(n_p, g_eo_sq: float, kappa_ab: float, extraction_a: float,
                     extraction_b: float):
    """C, (1+C)^2, eta_i and eta from the pump photon number, in plain
    arithmetic: ``n_p`` may be a float or a NumPy array, with the same bits.
    A non-finite (1+C)^2 means the chain overflowed; callers reject it."""
    c = 4.0 * n_p * g_eo_sq / kappa_ab
    square = (1.0 + c) * (1.0 + c)
    eta_i = 4.0 * c / square
    return c, square, eta_i, extraction_a * extraction_b * eta_i


def cooperativity(cfg: TransducerConfig, n_p: float) -> float:
    """Cooperativity C = 4 n_p g_eo^2 / (kappa_a kappa_b).

    C compares the pump-enhanced coherent coupling to the dissipation of
    the two converted modes; C = 1 is the critical-coupling point.
    """
    _require_non_negative(n_p, "n_p")
    return efficiency_chain(n_p, *_coupling(cfg), 1.0, 1.0)[0]


def internal_efficiency(c: float) -> float:
    """Internal conversion efficiency eta_i = 4C / (1+C)^2.

    Bounded by 1, with equality exactly at C = 1; increasing below the
    critical point and decreasing above it.
    """
    _require_non_negative(c, "C")
    square = (1.0 + c) * (1.0 + c)
    if not math.isfinite(square):
        raise overflow_error(c)
    return 4.0 * c / square


def conversion_efficiency(cfg: TransducerConfig, n_p: float) -> EfficiencyBreakdown:
    """Bidirectional conversion efficiency and its factors.

    eta = (kappa_a_ex/kappa_a) * (kappa_b_ex/kappa_b) * 4C/(1+C)^2. The
    extraction ratios account for coupling losses; eta_i for conversion
    losses. eta is the success probability of the transduction process and
    lies in [0, 1].
    """
    _require_non_negative(n_p, "n_p")
    g_eo_sq, kappa_ab, ex_a, ex_b = chain_scalars(cfg)
    c, square, eta_i, eta = efficiency_chain(n_p, g_eo_sq, kappa_ab, ex_a, ex_b)
    if not math.isfinite(square):
        raise overflow_error(c)
    return EfficiencyBreakdown(ex_a, ex_b, c, eta_i, eta)


def critical_photon_number(cfg: TransducerConfig) -> float:
    """Pump photon number n_p* = kappa_a kappa_b / (4 g_eo^2) giving C = 1."""
    if cfg.g_eo == 0.0:
        raise NoCriticalPointError("g_eo = 0: no pump level reaches critical coupling")
    g_eo_sq, kappa_ab = _coupling(cfg)
    return kappa_ab / (4.0 * g_eo_sq)


def critical_pump_power(cfg: TransducerConfig, pump_detuning: float = 0.0) -> float:
    """Pump power P* at which the buildup reaches the critical photon number.

    Inverts :func:`intracavity_photon_number` at n_p*; the round trip
    through the forward formula is consistent to better than 1e-12
    relative.
    """
    if cfg.mode_p.kappa_ex == 0.0:
        raise UndriveablePumpError("pump mode has kappa_ex = 0 and cannot be driven")
    n_star = critical_photon_number(cfg)
    return n_star * _pump_buildup(cfg.mode_p, pump_detuning) / cfg.mode_p.kappa_ex
