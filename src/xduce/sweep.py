"""Parameter sweeps over pump power and microwave quality factor.

Produces the tables behind efficiency / cooperativity / infidelity
versus power curves (one curve per Q) and locates the optimal operating
power, both by scanning and by golden-section search against the closed
form. Tables are computed by column, one NumPy pass of the closed-form
chain per Q, and hold the bits the scalar API gives at each point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import core, herald
from .core import DriveCondition, Mode, Scheme, TransducerConfig
from .errors import BracketingError, DomainError, ModelRegimeError, UsageError

# Golden-section interval shrink factor per iteration.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 80
_GOLDEN_RTOL = 1e-9

# Log-spaced grids default to this density when no point count is given.
LOG_POINTS_PER_DECADE = 200
LOG_POINTS_CAP = 2000


@dataclass(frozen=True)
class PowerAxis:
    """Pump power grid: [min_w, max_w] with `points` samples, linear or log."""

    min_w: float
    max_w: float
    points: int | None = None
    spacing: str = "log"

    def __post_init__(self) -> None:
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.min_w) and math.isfinite(self.max_w)):
            raise DomainError("power axis bounds must be finite")
        if not (self.min_w < self.max_w):
            raise DomainError("power axis needs min < max")
        if self.min_w < 0.0 or (self.spacing == "log" and self.min_w <= 0.0):
            raise DomainError("power axis bounds must be positive (log) or non-negative")
        if self.points is not None and self.points < 2:
            raise DomainError("power axis needs at least 2 points")
        if self.points is None and self.spacing == "linear":
            raise DomainError("linear power axis needs an explicit point count")

    def grid(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.min_w, self.max_w, self.points)
        points = self.points
        if points is None:
            decades = math.log10(self.max_w / self.min_w)
            points = min(LOG_POINTS_CAP, max(2, round(LOG_POINTS_PER_DECADE * decades)))
        return np.geomspace(self.min_w, self.max_w, points)


@dataclass(frozen=True)
class HeraldOptions:
    """Herald settings for infidelity columns.

    ``r0_mapping`` selects how the generation rate follows the operating
    point: ``direct`` uses the fixed ``r0_value`` (1/s) regardless of
    power, while ``c_kappa_b`` sets r0 = C * kappa_b (kappa_b angular).
    The latter is an explicitly labelled modeling choice, not an equation
    from the underlying physics model, and is echoed into output metadata
    by the CLI.
    """

    dt: float
    r0_mapping: str = "direct"
    r0_value: float | None = None
    scheme: Scheme = Scheme.BLUE

    def __post_init__(self) -> None:
        if self.r0_mapping not in ("direct", "c_kappa_b"):
            raise DomainError(
                f"r0_mapping must be 'direct' or 'c_kappa_b', got {self.r0_mapping!r}"
            )
        if self.r0_mapping == "direct" and self.r0_value is None:
            raise DomainError("direct r0 mapping needs r0_value")
        if not (math.isfinite(self.dt) and self.dt >= 0.0):
            raise DomainError(f"dt must be finite and non-negative, got {self.dt!r}")

    def rate_for(self, cooperativity, kappa_b: float):
        """r0 (1/s) at a cooperativity: a float, or an array of them."""
        if self.r0_mapping == "direct":
            return float(self.r0_value)
        return cooperativity * kappa_b

    def model_at(self, cfg: TransducerConfig, drive: DriveCondition) -> herald.HeraldModel:
        """The herald model at one operating point, in the drive's scheme."""
        c = 0.0 if self.r0_mapping == "direct" else core.cooperativity(
            cfg, core.intracavity_photon_number(cfg.mode_p, drive))
        return herald.HeraldModel(self.rate_for(c, cfg.mode_b.kappa), self.dt, drive.scheme)


@dataclass(frozen=True)
class SweepSpec:
    """Cross product of a power axis and a list of microwave Q values."""

    config: TransducerConfig
    power_axis: PowerAxis
    q_axis: tuple[float, ...]
    outputs: tuple[str, ...] = ("efficiency", "cooperativity")
    herald_options: HeraldOptions | None = None
    pump_detuning: float = 0.0

    def __post_init__(self) -> None:
        # plain floats, so table cells print as 9000000.0, not np.float64(...)
        q_axis = tuple(float(q) for q in self.q_axis)
        if not q_axis:
            raise DomainError("q_axis must not be empty")
        if not all(math.isfinite(q) and q > 0.0 for q in q_axis):
            raise DomainError("q_axis values must be finite and positive")
        object.__setattr__(self, "q_axis", q_axis)
        allowed = {"efficiency", "cooperativity", "infidelity"}
        unknown = set(self.outputs) - allowed
        if unknown:
            raise DomainError(f"unknown outputs requested: {sorted(unknown)}")
        if "infidelity" in self.outputs and self.herald_options is None:
            raise DomainError("infidelity output requires herald options")


@dataclass(frozen=True)
class SweepRow:
    """One operating point: (power, Q_b) and everything computed there."""

    pump_power_w: float
    q_b: float
    n_p: float
    cooperativity: float
    eta_i: float
    eta: float
    infidelity: float | None = None


@dataclass(frozen=True)
class SweepTable:
    """A sweep's results, one list of floats per :class:`SweepRow` field,
    sorted by Q_b, then power; ``infidelity`` is None unless requested.
    ``len``, indexing and iteration treat it as a sequence of rows."""

    pump_power_w: list[float]
    q_b: list[float]
    n_p: list[float]
    cooperativity: list[float]
    eta_i: list[float]
    eta: list[float]
    infidelity: list[float] | None = None

    def columns(self) -> tuple:
        return tuple(getattr(self, field.name) for field in fields(self))

    def __len__(self) -> int:
        return len(self.pump_power_w)

    def __getitem__(self, index: int) -> SweepRow:
        return SweepRow(*(col[index] for col in self.columns() if col is not None))

    def __iter__(self):
        return map(SweepRow, *(col for col in self.columns() if col is not None))


def retune_microwave_q(cfg: TransducerConfig, q_b: float) -> TransducerConfig:
    """Rescale the microwave losses so the total Q becomes ``q_b``.

    The split between intrinsic and external loss is preserved, i.e. the
    extraction ratio stays what the base configuration had.
    """
    if q_b <= 0.0:
        raise DomainError(f"Q must be positive, got {q_b!r}")
    b = cfg.mode_b
    total = core.q_to_kappa(b.omega, q_b)
    ratio = b.extraction
    new_b = Mode(label="b", omega=b.omega, kappa_i=total * (1.0 - ratio), kappa_ex=total * ratio)
    return replace(cfg, mode_b=new_b)


def _columns(cfg: TransducerConfig, powers: np.ndarray, pump_detuning: float, q_b: float,
             options: HeraldOptions | None) -> tuple:
    """n_p, C, eta_i, eta and infidelity (None without ``options``) lists at
    one Q. The first power where the chain fails (a non-finite (1+C)^2 or
    r0, or mu >= 10) raises, with its coordinates. Infidelity goes through
    ``math.exp`` like the scalar breakdown, once if r0 is fixed."""
    with np.errstate(all="ignore"):
        n_p = core.photon_number(cfg.mode_p, powers, pump_detuning)
        c, square, eta_i, eta = core.efficiency_chain(n_p, *core.chain_scalars(cfg))
        overflow = ~np.isfinite(square)
        failed = overflow
        if options is not None:
            r0 = np.broadcast_to(options.rate_for(c, cfg.mode_b.kappa), powers.shape)
            mu = r0 * options.dt
            bad_rate = ~(np.isfinite(r0) & (r0 >= 0.0))
            failed = overflow | bad_rate | (mu >= herald.MAX_POISSON_MEAN)
    if failed.any():
        i = int(failed.argmax())
        where = f"sweep failed at Q_b = {q_b:g}, power = {powers[i]:g} W"
        if overflow[i]:
            raise DomainError(f"{where}: {core.overflow_error(float(c[i]))}")
        if bad_rate[i]:
            r0_i = float(r0[i])
            raise DomainError(f"{where}: r0 must be finite and non-negative, got {r0_i!r}")
        raise ModelRegimeError(f"{where}: mu = {mu[i]:.6g} is outside the herald model "
                               f"regime (mu < {herald.MAX_POISSON_MEAN:g})")
    infidelity = None
    if options is not None and options.r0_mapping == "direct":
        infidelity = [herald.blue_probabilities(float(mu[0]))[4]] * len(powers)
    elif options is not None:
        infidelity = [herald.blue_probabilities(m)[4] for m in mu.tolist()]
    return n_p.tolist(), c.tolist(), eta_i.tolist(), eta.tolist(), infidelity


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every (Q_b, power) pair of the spec, in that sort order.
    The first failing point aborts the sweep, with its coordinates."""
    powers = spec.power_axis.grid()
    options = spec.herald_options if "infidelity" in spec.outputs else None
    if options is not None and options.scheme is not Scheme.BLUE:
        raise UsageError("infidelity columns are defined for the blue scheme")
    q_axis = sorted(spec.q_axis)
    per_q = [_columns(retune_microwave_q(spec.config, q_b), powers, spec.pump_detuning, q_b,
                      options) for q_b in q_axis]
    n_p, c, eta_i, eta, infidelity = (
        None if parts[0] is None else list(itertools.chain.from_iterable(parts))
        for parts in zip(*per_q)
    )
    q_b = [q for q in q_axis for _ in range(len(powers))]
    return SweepTable(powers.tolist() * len(q_axis), q_b, n_p, c, eta_i, eta, infidelity)


def infidelity_curve(
    cfg: TransducerConfig,
    power_axis: PowerAxis,
    options: HeraldOptions,
    pump_detuning: float = 0.0,
) -> list[tuple[float, float]]:
    """Heralded-entanglement infidelity along a power axis (blue scheme).

    Each power maps through n_p -> C -> r0 (per the chosen mapping) to mu
    and the analytic blue breakdown. Points with mu >= 10 are rejected as
    outside the model regime.
    """
    if options.scheme is not Scheme.BLUE:
        raise UsageError("infidelity_curve is defined for the blue scheme")
    powers = power_axis.grid()
    q_b = cfg.mode_b.omega / cfg.mode_b.kappa
    return list(zip(powers.tolist(), _columns(cfg, powers, pump_detuning, q_b, options)[4]))


def _golden_section_max(f, lo: float, hi: float, rtol: float = _GOLDEN_RTOL):
    """Golden-section maximum of a unimodal f on [lo, hi].

    Returns (x, f(x), iterations). The interval shrinks by the inverse
    golden ratio each iteration, so 80 iterations cover bracket ratios
    far beyond 1e6 at 1e-9 relative tolerance.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while (b - a) > rtol * (abs(a) + abs(b)) / 2.0 and iterations < _GOLDEN_MAX_ITER:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        iterations += 1
    x = (a + b) / 2.0
    return x, f(x), iterations


def maximize_efficiency(
    cfg: TransducerConfig,
    power_bracket: tuple[float, float],
    pump_detuning: float = 0.0,
) -> tuple[float, float]:
    """Locate the power maximizing the conversion efficiency.

    eta(P) is unimodal with its peak at the critical power, so a
    golden-section search converges unconditionally once the bracket
    contains the peak. The bracket is validated by the sign of the
    finite-difference slope at each endpoint.
    """
    lo, hi = power_bracket
    if not (0.0 <= lo < hi):
        raise BracketingError(f"invalid bracket {power_bracket!r}")

    def eta_at(power: float) -> float:
        n_p = core.photon_number(cfg.mode_p, power, pump_detuning)
        return core.conversion_efficiency(cfg, n_p).eta

    h = (hi - lo) * 1e-7
    if eta_at(lo + h) - eta_at(lo) <= 0.0:
        raise BracketingError("eta is not increasing at the lower bracket endpoint")
    if eta_at(hi) - eta_at(hi - h) >= 0.0:
        raise BracketingError("eta is not decreasing at the upper bracket endpoint")
    p_opt, eta_opt, _ = _golden_section_max(eta_at, lo, hi)
    return p_opt, eta_opt
