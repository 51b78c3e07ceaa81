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
import sys
from enum import Enum

from .errors import DomainError, NoCriticalPointError, UndriveablePumpError

__all__ = ["HBAR", "TWO_PI", "Mode", "TransducerConfig", "DriveCondition", "Scheme",
           "EfficiencyBreakdown", "q_to_kappa", "kappa_to_lifetime", "intracavity_photon_number",
           "cooperativity", "internal_efficiency", "conversion_efficiency",
           "critical_photon_number", "critical_pump_power"]

# Reduced Planck constant, CODATA 2018, J*s. Pinned as a literal so that
# photon-number values are reproducible bit for bit.
HBAR = 1.054571817e-34

TWO_PI = 2.0 * math.pi

# The least positive normal double: below it a double keeps fewer than 53
# significant bits, so a product that lands there has lost its precision.
NORMAL_MIN = sys.float_info.min


def _carried(product, a=1.0, b=1.0):
    """Whether ``product``, of non-negative factors among them ``a`` and ``b``, is
    normal, or 0 as ``a`` or ``b`` is 0: a float gives a bool, an array a mask."""
    if product.__class__ is float and NORMAL_MIN <= product < math.inf:
        return True  # a normal float, the common case, at the cost of one comparison
    return ((NORMAL_MIN <= product) | (a == 0.0) | (b == 0.0)) & (product < math.inf)


# The one scalar check, in three strengths. Each widens the value with
# float(), through _as_float, so NumPy scalars (float32 included) give float64
# results, rejects it (or a value float() cannot read) with a DomainError
# naming the quantity, and returns the float for the caller to rebind.
def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):  # such as 'abc', None or 1j
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an int or Fraction beyond double range, too long to repr
        raise DomainError(f"{name} is beyond the double range") from None


def _require_finite(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


# The signed checks make one comparison on the way through; a value that
# fails it is then checked finite, so nan and inf read as not finite.
def _require_positive(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not 0.0 < value < math.inf:
        _require_finite(value, name)
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def _require_non_negative(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not 0.0 <= value < math.inf:
        _require_finite(value, name)
        raise DomainError(f"{name} must be non-negative, got {value!r}")
    return value


# The rejections below name the type of a bad value rather than repr it: the
# repr of an int beyond 4300 digits raises.
def _require_count(value, name: str) -> int:
    """``value`` as an ``int``: a Python or NumPy integer, not a bool."""
    if value.__class__ is bool or not hasattr(value, "__index__"):
        raise DomainError(f"{name} must be an integer, not {type(value).__name__}")
    return int(value)


def _shown(value) -> str:
    """``repr(value)`` for a message; for a value whose repr raises, such as
    an int too long to convert, its sign and size, or else its type."""
    try:
        return repr(value)
    except ValueError:  # beyond the int-to-str digit limit
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too large to show"


def _as_tuple(value, name: str) -> tuple:
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be a sequence, not {type(value).__name__}")


def _require_positives(value, name: str) -> tuple[float, ...]:
    return tuple(_require_positive(item, f"{name} value") for item in _as_tuple(value, name))


def _require_words(value, name: str) -> tuple[str, ...]:
    words = _as_tuple(value, name)
    for word in words:
        if not isinstance(word, str):
            raise DomainError(f"{name} must hold words, not {type(word).__name__}")
    return words


def _require_instance(cls: type):
    """The check of a field annotated with the value type or enum ``cls``."""
    def check(value, name: str):
        if isinstance(value, cls):
            return value
        raise DomainError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")
    return check


# The kinds a value type's field can declare in its annotation. The first
# four read as the types they store; a field's check returns what is stored.
Finite = float
Positive = float
NonNegative = float
Count = int
_KINDS = {"Finite": _require_finite, "Positive": _require_positive,
          "NonNegative": _require_non_negative, "Count": _require_count,
          "tuple[Positive, ...]": _require_positives, "tuple[str, ...]": _require_words}
# Annotations of fields stored as given, as the result types need.
_STORED = ("float", "int", "str", "complex")


class _Frozen:
    """Base of the value types: an immutable record of the fields annotated
    in the subclass body, in order, with their class-level values as
    defaults.

    Each annotation is a string (the package uses postponed annotations), read
    by name. A field annotated with a kind of :data:`_KINDS`, or with a value
    type or enum of the defining module, optionally ``| None``, is passed
    through its check and stored as the check returns it; a rejection raises
    :class:`DomainError` naming the field, after the class's ``_prefix`` (a
    format string over the fields), if it has one. A field annotated with one
    of :data:`_STORED` or ``list[...]`` is stored as given. Any other
    annotation raises ``TypeError`` when the class is defined.

    Each subclass gets an ``__init__``, generated once, that takes the fields
    by position or keyword, checks and stores them, and then calls the
    class's ``_check``, if it has one, for the rules across fields. ``==``,
    ``hash`` and ``repr`` read the fields in order, as those of a frozen
    dataclass do (``repr`` shows an int too long for ``str()`` by its size),
    and setting or deleting an attribute raises ``AttributeError``.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        annotations = vars(cls).get("__annotations__", {})
        scope = vars(sys.modules[cls.__module__])
        namespace = {"_set": object.__setattr__, "_cls": cls, "_DomainError": DomainError}
        checks = []
        for name, annotation in annotations.items():
            kind = annotation.removesuffix(" | None")
            named = scope.get(kind)
            if kind in _KINDS:
                namespace[f"_check_{name}"] = _KINDS[kind]
            elif isinstance(named, type) and issubclass(named, (_Frozen, Enum)):
                namespace[f"_check_{name}"] = _require_instance(named)
            elif kind in _STORED or kind.startswith("list["):
                continue
            else:
                raise TypeError(f"{cls.__qualname__}.{name}: annotation {annotation!r} "
                                f"names no field kind")
            line = f"{name} = _check_{name}({name}, {name!r})"
            checks.append(line if kind == annotation else f"if {name} is not None: {line}")
        if checks and hasattr(cls, "_prefix"):
            checks = ["try:", *(f"    {line}" for line in checks),
                      "except _DomainError as exc:",
                      f"    raise _DomainError(f{cls._prefix + '{exc}'!r}) from None"]
        params = ", ".join(f"{name}=_cls.{name}" if name in vars(cls) else name
                           for name in annotations)
        fields = ", ".join(f"{name!r}: {name}" for name in annotations)
        body = [*checks, f"_set(self, '__dict__', {{{fields}}})"]
        if hasattr(cls, "_check"):
            body.append("self._check()")
        source = f"def __init__(self, {params}):\n" + "".join(f"    {line}\n" for line in body)
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_shown(value)}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Scheme(Enum):
    """Pump detuning scheme.

    RED: pump below the optical resonance; beam-splitter (swap) interaction
    used for conversion. BLUE: pump above resonance; two-mode-squeezing
    interaction creating correlated photon pairs, used for heralding.
    """

    RED = "red"
    BLUE = "blue"


class Mode(_Frozen):
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
    omega: Positive
    kappa_i: NonNegative
    kappa_ex: NonNegative
    _prefix = "mode {label}: "

    def _check(self) -> None:
        if self.label not in ("a", "b", "p"):
            raise DomainError(f"mode label must be 'a', 'b' or 'p', got {_shown(self.label)}")
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


class TransducerConfig(_Frozen):
    """A transducer: three modes plus the vacuum electro-optic coupling.

    ``g_eo`` (rad/s) is the vacuum coupling rate between the signal and
    microwave modes mediated by the pump. It is a direct input here; its
    derivation from crystal properties is out of scope.
    """

    mode_a: Mode
    mode_b: Mode
    mode_p: Mode
    g_eo: NonNegative

    def _check(self) -> None:
        labels = (self.mode_a.label, self.mode_b.label, self.mode_p.label)
        if labels != ("a", "b", "p"):
            raise DomainError(f"modes must carry labels ('a', 'b', 'p'), got {labels!r}")


class DriveCondition(_Frozen):
    """Laser pump drive: power, detuning from the pump resonance, scheme.

    ``pump_detuning`` is the pump laser frequency minus the pump-mode
    resonance, rad/s. The scheme tag selects the interaction picture (RED:
    beam splitter, BLUE: two-mode squeezing); it carries no numeric
    constraint of its own.
    """

    pump_power: NonNegative
    pump_detuning: Finite = 0.0
    scheme: Scheme = Scheme.RED


class EfficiencyBreakdown(_Frozen):
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
    result is too, a normal double by the range rule of :func:`_carried`.
    """
    omega = _require_positive(omega, "omega")
    q = _require_positive(q, "Q")
    kappa = omega / q
    if not _carried(kappa):  # omega > 0, so 0 here has underflowed
        raise DomainError(f"kappa = omega / Q = {kappa!r} is not a normal double: "
                          f"omega = {omega!r}, Q = {q!r}")
    return kappa


def kappa_to_lifetime(kappa: float) -> float:
    """Photon lifetime 1/kappa in seconds for a decay rate in rad/s."""
    kappa = _require_positive(kappa, "kappa")
    return 1.0 / kappa


def _pump_buildup(mode_p: Mode, pump_detuning: float) -> float:
    kp = mode_p.kappa
    pump_detuning = _require_finite(pump_detuning, "pump_detuning")
    # products, not ** 2: C pow need not round correctly, and scaling every
    # rate and the power by 4^j must leave n_p the same bits
    squares = (kp / 2.0) * (kp / 2.0) + pump_detuning * pump_detuning
    if not _carried(squares):  # kappa_p > 0, so 0 here has underflowed
        if squares == math.inf:
            raise DomainError(f"(kappa_p/2)^2 + delta_p^2 overflows: kappa_p = {kp!r}, "
                              f"delta_p = {pump_detuning!r}")
        raise DomainError(f"(kappa_p/2)^2 + delta_p^2 = {squares!r} is not a normal double: "
                          f"it must be positive and finite (kappa_p = {kp!r}, "
                          f"delta_p = {pump_detuning!r})")
    buildup = HBAR * mode_p.omega * squares
    if not _carried(buildup):
        raise DomainError(f"pump buildup hbar * omega_p * ((kappa_p/2)^2 + delta_p^2) = "
                          f"{buildup!r} is not a normal double: it must be positive and finite")
    return buildup


def _pump_photons(mode_p: Mode, pump_power, buildup: float):
    """n_p over a :func:`_pump_buildup` at a float or a NumPy array of powers, with
    the same bits, and whether n_p and its numerator kappa_p_ex P are carried."""
    drive = mode_p.kappa_ex * pump_power
    n_p = drive / buildup
    return n_p, _carried(drive, mode_p.kappa_ex, pump_power) & _carried(n_p, drive)


def photon_number(mode_p: Mode, pump_power: float, pump_detuning: float = 0.0) -> float:
    """Steady-state pump photon number from the drive power.

    Single-mode input-output buildup:

        n_p = kappa_p_ex * P / (hbar * omega_p * ((kappa_p/2)^2 + delta_p^2))

    Linear in the power, zero gives exactly zero. Where n_p or kappa_p_ex P
    is not carried by a double it raises :class:`DomainError`: with
    kappa_p_ex = 2 pi rad/s, P = 1e-318 W put n_p off by 2e-7.
    """
    pump_power = _require_non_negative(pump_power, "pump_power")
    n_p, carried = _pump_photons(mode_p, pump_power, _pump_buildup(mode_p, pump_detuning))
    if not carried:
        raise DomainError(f"n_p = kappa_p_ex * P / buildup and its numerator must be normal "
                          f"doubles (or 0, for P = 0 or kappa_p_ex = 0): kappa_p_ex * P = "
                          f"{mode_p.kappa_ex * pump_power!r}, n_p = {n_p!r}")
    return n_p


def intracavity_photon_number(mode_p: Mode, drive: DriveCondition) -> float:
    """:func:`photon_number` at a drive condition."""
    return photon_number(mode_p, drive.pump_power, drive.pump_detuning)


def _coupling(cfg: TransducerConfig) -> tuple[float, float]:
    """g_eo^2 and kappa_a kappa_b, each carried by a double: a g_eo^2 that
    underflows to 0 would give C = 0 where C is about 382."""
    kappa_ab = cfg.mode_a.kappa * cfg.mode_b.kappa
    if not _carried(kappa_ab):
        raise DomainError(f"cooperativity undefined: kappa_a * kappa_b = {kappa_ab!r} is not "
                          f"a normal double (kappa_a = {cfg.mode_a.kappa!r}, "
                          f"kappa_b = {cfg.mode_b.kappa!r})")
    g_eo = cfg.g_eo
    g_eo_sq = g_eo * g_eo
    if not _carried(g_eo_sq, g_eo):
        if g_eo_sq == math.inf:
            raise DomainError(f"g_eo = {g_eo!r} is too large: g_eo^2 overflows")
        raise DomainError(f"g_eo = {g_eo!r} is too small: g_eo^2 is not a normal double")
    return g_eo_sq, kappa_ab


def efficiency_chain(n_p, g_eo_sq: float, kappa_ab: float, extraction_a: float,
                     extraction_b: float):
    """C, eta_i and eta from the pump photon number, in plain arithmetic, and
    the chain's two verdicts: whether C's numerator 4 n_p g_eo^2 is carried
    by a double, and whether (1+C)^2 is finite. ``n_p`` may be a float or a
    NumPy array, with the same bits; a float gives bools, an array masks."""
    numerator = 4.0 * n_p * g_eo_sq
    c = numerator / kappa_ab
    square = (1.0 + c) * (1.0 + c)
    eta_i = 4.0 * c / square
    # (1+C)^2 >= 4C, but within about 1e-12 of C = 1 a rounded 1+C can put
    # 4C/(1+C)^2 an ULP above 1; taking off the excess gives exactly 1 there
    # and leaves every eta_i <= 1 bit for bit
    eta_i = eta_i - (eta_i > 1.0) * (eta_i - 1.0)
    return (c, eta_i, extraction_a * extraction_b * eta_i,
            _carried(numerator, n_p, g_eo_sq), square < math.inf)


def _chain_error(n_p: float, g_eo_sq: float, c: float, carried: bool) -> DomainError:
    """The error for a chain whose verdicts fail: C's numerator, if it is
    not carried, else (1+C)^2."""
    if not carried:
        return DomainError(f"C's numerator 4 n_p g_eo^2 is not a normal double: "
                           f"n_p = {n_p!r}, g_eo^2 = {g_eo_sq!r}")
    return DomainError(f"C = {c!r} is too large: (1+C)^2 overflows")


def cooperativity(cfg: TransducerConfig, n_p: float) -> float:
    """Cooperativity C = 4 n_p g_eo^2 / (kappa_a kappa_b).

    C compares the pump-enhanced coherent coupling to the dissipation of
    the two converted modes; C = 1 is the critical-coupling point.
    """
    n_p = _require_non_negative(n_p, "n_p")
    g_eo_sq, kappa_ab = _coupling(cfg)
    c, _, _, carried, _ = efficiency_chain(n_p, g_eo_sq, kappa_ab, 1.0, 1.0)
    if not carried:
        raise _chain_error(n_p, g_eo_sq, c, carried)
    return c


def internal_efficiency(c: float) -> float:
    """Internal conversion efficiency eta_i = 4C / (1+C)^2.

    Bounded by 1, with equality exactly at C = 1; increasing below the
    critical point and decreasing above it.
    """
    c = _require_non_negative(c, "C")
    # the chain at n_p = C with 4 g_eo^2 = kappa_a kappa_b has this C
    _, eta_i, _, _, finite = efficiency_chain(c, 1.0, 4.0, 1.0, 1.0)
    if not finite:
        raise _chain_error(c, 1.0, c, carried=True)
    return eta_i


def conversion_efficiency(cfg: TransducerConfig, n_p: float) -> EfficiencyBreakdown:
    """Bidirectional conversion efficiency and its factors.

    eta = (kappa_a_ex/kappa_a) * (kappa_b_ex/kappa_b) * 4C/(1+C)^2. The
    extraction ratios account for coupling losses; eta_i for conversion
    losses. eta is the success probability of the transduction process and
    lies in [0, 1].
    """
    n_p = _require_non_negative(n_p, "n_p")
    g_eo_sq, kappa_ab = _coupling(cfg)
    ex_a, ex_b = cfg.mode_a.extraction, cfg.mode_b.extraction
    c, eta_i, eta, carried, finite = efficiency_chain(n_p, g_eo_sq, kappa_ab, ex_a, ex_b)
    if not (carried and finite):
        raise _chain_error(n_p, g_eo_sq, c, carried)
    return EfficiencyBreakdown(ex_a, ex_b, c, eta_i, eta)


def _critical_photons(cfg: TransducerConfig) -> tuple[float, float, float]:
    """n_p* with the g_eo^2 and kappa_a kappa_b it was computed from."""
    if cfg.g_eo == 0.0:
        raise NoCriticalPointError("g_eo = 0: no pump level reaches critical coupling")
    g_eo_sq, kappa_ab = _coupling(cfg)
    n_star = kappa_ab / (4.0 * g_eo_sq)
    if not _carried(n_star):
        raise DomainError(f"critical photon number n_p* = kappa_a kappa_b / (4 g_eo^2) = "
                          f"{n_star!r} is not a normal double: kappa_a kappa_b = "
                          f"{kappa_ab!r}, g_eo^2 = {g_eo_sq!r}")
    return n_star, g_eo_sq, kappa_ab


def critical_photon_number(cfg: TransducerConfig) -> float:
    """Pump photon number n_p* = kappa_a kappa_b / (4 g_eo^2) giving C = 1."""
    return _critical_photons(cfg)[0]


def _critical_point(cfg: TransducerConfig, pump_detuning: float) -> tuple:
    """P* with the pump buildup, g_eo^2 and kappa_a kappa_b it was computed from."""
    if cfg.mode_p.kappa_ex == 0.0:
        raise UndriveablePumpError("pump mode has kappa_ex = 0 and cannot be driven")
    n_star, g_eo_sq, kappa_ab = _critical_photons(cfg)
    buildup = _pump_buildup(cfg.mode_p, pump_detuning)
    drive = n_star * buildup
    p_star = drive / cfg.mode_p.kappa_ex
    if not (_carried(drive) and _carried(p_star)):
        raise DomainError(f"critical pump power P* = n_p* * buildup / kappa_p_ex = {p_star!r} W "
                          f"and its numerator kappa_p_ex P* = n_p* * buildup = {drive!r} must be "
                          f"normal doubles (kappa_p_ex = {cfg.mode_p.kappa_ex!r})")
    return p_star, buildup, g_eo_sq, kappa_ab


def critical_pump_power(cfg: TransducerConfig, pump_detuning: float = 0.0) -> float:
    """Pump power P* at which the buildup reaches the critical photon number.

    Inverts :func:`intracavity_photon_number` at n_p*; the round trip
    through the forward formula is consistent to better than 1e-12
    relative.
    """
    return _critical_point(cfg, pump_detuning)[0]
