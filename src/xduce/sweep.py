"""Parameter sweeps over pump power and microwave quality factor.

Produces the tables behind efficiency / cooperativity / infidelity
versus power curves (one curve per Q) and the optimal operating power,
which is the critical pump power in closed form. Tables are computed by
column, one NumPy pass of the closed-form chain per Q, and hold the bits
the scalar API gives at each point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import core, herald
from .core import (Count, DriveCondition, Finite, Mode, NonNegative, Positive, Scheme,
                   TransducerConfig, _Frozen)
from .errors import BracketingError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PowerAxis", "HeraldOptions", "SweepSpec", "SweepTable", "run_sweep",
           "maximize_efficiency", "retune_microwave_q"]

# Log-spaced grids default to this density when no point count is given,
# up to the cap, which also bounds an explicit count on either spacing.
LOG_POINTS_PER_DECADE = 200
LOG_POINTS_CAP = 2000


class PowerAxis(_Frozen):
    """Pump power grid: [min_w, max_w] with `points` samples, linear or log."""

    min_w: NonNegative
    max_w: NonNegative
    points: Count | None = None
    spacing: str = "log"
    _prefix = "power axis "

    def _check(self) -> None:
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got "
                              f"{core._shown(self.spacing)}")
        if not (self.min_w < self.max_w):
            raise DomainError(f"power axis needs min_w < max_w, got {self.min_w!r} and "
                              f"{self.max_w!r}")
        if self.spacing == "log" and self.min_w == 0.0:
            raise DomainError(f"log power axis min_w must be positive, got {self.min_w!r}")
        if self.points is not None and not 2 <= self.points <= LOG_POINTS_CAP:
            raise DomainError(f"power axis needs 2 to {LOG_POINTS_CAP} points, got "
                              f"{core._shown(self.points)}")
        if self.points is None and self.spacing == "linear":
            raise DomainError("linear power axis needs an explicit point count")

    def grid(self) -> np.ndarray:
        import numpy as np

        if self.spacing == "linear":
            return np.linspace(self.min_w, self.max_w, self.points)
        points = self.points
        if points is None:
            # capped first, so a ratio that overflows to inf still takes the cap
            decades = min(math.log10(self.max_w / self.min_w),
                          LOG_POINTS_CAP / LOG_POINTS_PER_DECADE)
            points = min(LOG_POINTS_CAP, max(2, round(LOG_POINTS_PER_DECADE * decades)))
        return np.geomspace(self.min_w, self.max_w, points)


class HeraldOptions(_Frozen):
    """Herald settings for the infidelity columns, which use the blue scheme.

    ``r0_mapping`` selects how the generation rate follows the operating
    point: ``direct`` uses the fixed ``r0_value`` (1/s) regardless of
    power, while ``c_kappa_b`` sets r0 = C * kappa_b (kappa_b angular).
    The latter is an explicitly labelled modeling choice, not an equation
    from the underlying physics model, and is echoed into output metadata
    by the CLI.
    """

    dt: NonNegative
    r0_mapping: str = "direct"
    r0_value: NonNegative | None = None

    def _check(self) -> None:
        if self.r0_mapping not in ("direct", "c_kappa_b"):
            raise DomainError(f"r0_mapping must be 'direct' or 'c_kappa_b', got "
                              f"{core._shown(self.r0_mapping)}")
        if self.r0_mapping == "direct" and self.r0_value is None:
            raise DomainError("direct r0 mapping needs r0_value")

    def rate_for(self, cooperativity, kappa_b: float):
        """r0 (1/s) at a cooperativity: a float, or an array of them."""
        if self.r0_mapping == "direct":
            return self.r0_value
        return cooperativity * kappa_b

    def model_at(self, cfg: TransducerConfig, drive: DriveCondition) -> herald.HeraldModel:
        """The herald model at one operating point, in the drive's scheme."""
        c = 0.0 if self.r0_mapping == "direct" else core.cooperativity(
            cfg, core.intracavity_photon_number(cfg.mode_p, drive))
        return herald.HeraldModel(self.rate_for(c, cfg.mode_b.kappa), self.dt, drive.scheme)


class SweepSpec(_Frozen):
    """Cross product of a power axis and a list of microwave Q values."""

    config: TransducerConfig
    power_axis: PowerAxis
    # plain floats, so table cells print as 9000000.0, not np.float64(...)
    q_axis: tuple[Positive, ...]
    outputs: tuple[str, ...] = ("efficiency", "cooperativity")
    herald_options: HeraldOptions | None = None
    pump_detuning: Finite = 0.0

    def _check(self) -> None:
        if not self.q_axis:
            raise DomainError("q_axis must not be empty")
        if len(set(self.q_axis)) < len(self.q_axis):
            raise DomainError(f"q_axis values must be distinct, got {self.q_axis}")
        allowed = {"efficiency", "cooperativity", "infidelity"}
        unknown = set(self.outputs) - allowed
        if unknown:
            raise DomainError(f"unknown outputs requested: {sorted(unknown)}")
        if len(set(self.outputs)) < len(self.outputs):
            raise DomainError(f"outputs must be distinct, got {self.outputs}")
        if "infidelity" in self.outputs and self.herald_options is None:
            raise DomainError("infidelity output requires herald options")


class SweepTable(_Frozen):
    """A sweep's results: the power grid and its n_p once, the ascending
    Q_b values, and one list per Q_b of each result, so ``eta[k][i]`` is at
    ``q_b[k]`` and ``pump_power_w[i]``; ``infidelity`` is None unless
    requested. ``len`` counts the rows, one per (Q_b, power) pair."""

    pump_power_w: list[float]
    q_b: list[float]
    n_p: list[float]
    cooperativity: list[list[float]]
    eta_i: list[list[float]]
    eta: list[list[float]]
    infidelity: list[list[float]] | None = None

    def __len__(self) -> int:
        return len(self.pump_power_w) * len(self.q_b)


def retune_microwave_q(cfg: TransducerConfig, q_b: float) -> TransducerConfig:
    """Rescale the microwave losses so the total Q becomes ``q_b``.

    The split between intrinsic and external loss is preserved, i.e. the
    extraction ratio stays what the base configuration had.
    """
    b = cfg.mode_b
    total = core.q_to_kappa(b.omega, q_b)
    ratio = b.extraction
    new_b = Mode(label="b", omega=b.omega, kappa_i=total * (1.0 - ratio), kappa_ex=total * ratio)
    return TransducerConfig(cfg.mode_a, new_b, cfg.mode_p, cfg.g_eo)


def _raise_at(spec: SweepSpec, options: HeraldOptions | None, q_b: float,
              powers: list[float]) -> None:
    """Run ``powers`` at ``q_b`` through the scalar API, in order, and raise the
    first error with its point's coordinates (a failing retune's at powers[0])."""
    power = powers[0]
    try:
        cfg = retune_microwave_q(spec.config, q_b)
        for power in powers:
            point = core.conversion_efficiency(
                cfg, core.photon_number(cfg.mode_p, power, spec.pump_detuning))
            if options is not None:
                r0 = options.rate_for(point.cooperativity, cfg.mode_b.kappa)
                herald.blue_probabilities(herald.HeraldModel(r0, options.dt, Scheme.BLUE).mu)
    except DomainError as exc:
        raise type(exc)(f"sweep failed at Q_b = {q_b:g}, power = {power:g} W: {exc}") from None


def _columns(spec: SweepSpec, options: HeraldOptions | None, q_b: float, n_p: np.ndarray,
             carried: np.ndarray) -> tuple:
    """C, eta_i, eta and infidelity (None unless requested) lists at one Q,
    from the photon numbers ``n_p``, ``carried`` where n_p is carried by a
    double. Raises :class:`DomainError` if the chain fails at any power,
    without naming it. Infidelity goes through ``math.exp`` like the scalar
    breakdown, once if r0 is fixed."""
    cfg = retune_microwave_q(spec.config, q_b)
    g_eo_sq, kappa_ab = core._coupling(cfg)
    c, eta_i, eta, numerator_carried, finite = core.efficiency_chain(
        n_p, g_eo_sq, kappa_ab, cfg.mode_a.extraction, cfg.mode_b.extraction)
    if not (carried & numerator_carried & finite).all():
        raise DomainError(f"the closed-form chain fails at Q_b = {q_b:g}")
    infidelity = None
    if options is not None:
        mu = options.rate_for(c, cfg.mode_b.kappa) * options.dt
        if options.r0_mapping == "direct":
            infidelity = [herald.blue_probabilities(mu)[4]] * len(n_p)
        else:
            infidelity = [herald.blue_probabilities(m)[4] for m in mu.tolist()]
    return c.tolist(), eta_i.tolist(), eta.tolist(), infidelity


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every (Q_b, power) pair of the spec, in that sort order.
    The first failing point aborts the sweep, with its coordinates: the
    column pass only detects a failure, and the points from the failing Q
    on are replayed through the scalar API until one raises."""
    import numpy as np

    powers = spec.power_axis.grid()
    q_axis = sorted(spec.q_axis)
    options = spec.herald_options if "infidelity" in spec.outputs else None
    per_q = []
    try:
        with np.errstate(all="ignore"):
            # retuning Q changes only mode b, so n_p is one column for every Q
            n_p, carried = core._pump_photons(spec.config.mode_p, powers, core._pump_buildup(
                spec.config.mode_p, spec.pump_detuning))
            for q_b in q_axis:
                per_q.append(_columns(spec, options, q_b, n_p, carried))
    except DomainError:
        for q_b in q_axis[len(per_q):]:  # every earlier Q passed
            _raise_at(spec, options, q_b, powers.tolist())
        raise
    c, eta_i, eta, infidelity = (None if parts[0] is None else list(parts)
                                 for parts in zip(*per_q))
    return SweepTable(powers.tolist(), q_axis, n_p.tolist(), c, eta_i, eta, infidelity)


def maximize_efficiency(
    cfg: TransducerConfig,
    power_bracket: tuple[float, float],
    pump_detuning: float = 0.0,
) -> tuple[float, float]:
    """The power maximizing the conversion efficiency, and eta there.

    C is linear in the power, so eta(P) peaks exactly at critical coupling,
    C = 1: the optimum is :func:`core.critical_pump_power`. Raises
    :class:`BracketingError` for an invalid bracket or one whose open
    interval does not hold that power, and :class:`DomainError` for an end
    that is not a number. A device with no optimum raises the critical
    power's own error: :class:`NoCriticalPointError` for g_eo = 0,
    :class:`UndriveablePumpError` for a pump with kappa_ex = 0.
    """
    try:
        lo, hi = power_bracket
    except (TypeError, ValueError):  # not iterable, or not two items
        raise BracketingError("invalid bracket: not a (low, high) pair") from None
    lo = core._as_float(lo, "power bracket low end")
    hi = core._as_float(hi, "power bracket high end")
    if not (0.0 <= lo < hi):
        raise BracketingError(f"invalid bracket {core._shown(power_bracket)}")
    p_opt, buildup, g_eo_sq, kappa_ab = core._critical_point(cfg, pump_detuning)
    if not lo < p_opt < hi:
        raise BracketingError(f"the optimum P* = {p_opt!r} W is outside the bracket "
                              f"{core._shown(power_bracket)}")
    n_p, carried = core._pump_photons(cfg.mode_p, p_opt, buildup)
    _, _, eta, numerator_carried, finite = core.efficiency_chain(
        n_p, g_eo_sq, kappa_ab, cfg.mode_a.extraction, cfg.mode_b.extraction)
    if not (carried and numerator_carried and finite):  # the scalar API names it
        core.conversion_efficiency(cfg, core.photon_number(cfg.mode_p, p_opt, pump_detuning))
    return p_opt, eta
