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


def intracavity_photon_number(mode_p: Mode, drive: DriveCondition) -> float:
    """Steady-state pump photon number from the drive power.

    Single-mode input-output buildup:

        n_p = kappa_p_ex * P / (hbar * omega_p * ((kappa_p/2)^2 + delta_p^2))

    Strictly linear in the power, so zero power gives exactly zero.
    """
    kp = mode_p.kappa
    denominator = HBAR * mode_p.omega * ((kp / 2.0) ** 2 + drive.pump_detuning**2)
    return mode_p.kappa_ex * drive.pump_power / denominator


def cooperativity(cfg: TransducerConfig, n_p: float) -> float:
    """Cooperativity C = 4 n_p g_eo^2 / (kappa_a kappa_b).

    C compares the pump-enhanced coherent coupling to the dissipation of
    the two converted modes; C = 1 is the critical-coupling point.
    """
    _require_non_negative(n_p, "n_p")
    denominator = cfg.mode_a.kappa * cfg.mode_b.kappa
    if denominator == 0.0:
        raise DomainError("cooperativity undefined: kappa_a * kappa_b is zero")
    return 4.0 * n_p * cfg.g_eo**2 / denominator


def internal_efficiency(c: float) -> float:
    """Internal conversion efficiency eta_i = 4C / (1+C)^2.

    Bounded by 1, with equality exactly at C = 1; increasing below the
    critical point and decreasing above it.
    """
    _require_non_negative(c, "C")
    try:
        return 4.0 * c / (1.0 + c) ** 2
    except OverflowError:
        raise DomainError(f"C = {c!r} is too large: (1+C)^2 overflows") from None


def conversion_efficiency(cfg: TransducerConfig, n_p: float) -> EfficiencyBreakdown:
    """Bidirectional conversion efficiency and its factors.

    eta = (kappa_a_ex/kappa_a) * (kappa_b_ex/kappa_b) * 4C/(1+C)^2. The
    extraction ratios account for coupling losses; eta_i for conversion
    losses. eta is the success probability of the transduction process and
    lies in [0, 1].
    """
    c = cooperativity(cfg, n_p)
    eta_i = internal_efficiency(c)
    ex_a = cfg.mode_a.extraction
    ex_b = cfg.mode_b.extraction
    return EfficiencyBreakdown(
        extraction_a=ex_a,
        extraction_b=ex_b,
        cooperativity=c,
        eta_i=eta_i,
        eta=ex_a * ex_b * eta_i,
    )


def critical_photon_number(cfg: TransducerConfig) -> float:
    """Pump photon number n_p* = kappa_a kappa_b / (4 g_eo^2) giving C = 1."""
    if cfg.g_eo == 0.0:
        raise NoCriticalPointError("g_eo = 0: no pump level reaches critical coupling")
    return cfg.mode_a.kappa * cfg.mode_b.kappa / (4.0 * cfg.g_eo**2)


def critical_pump_power(cfg: TransducerConfig, pump_detuning: float = 0.0) -> float:
    """Pump power P* at which the buildup reaches the critical photon number.

    Inverts :func:`intracavity_photon_number` at n_p*; the round trip
    through the forward formula is consistent to better than 1e-12
    relative.
    """
    _require_finite(pump_detuning, "pump_detuning")
    if cfg.mode_p.kappa_ex == 0.0:
        raise UndriveablePumpError("pump mode has kappa_ex = 0 and cannot be driven")
    n_star = critical_photon_number(cfg)
    kp = cfg.mode_p.kappa
    numerator = HBAR * cfg.mode_p.omega * ((kp / 2.0) ** 2 + pump_detuning**2)
    return n_star * numerator / cfg.mode_p.kappa_ex
