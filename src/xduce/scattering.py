"""Steady-state input-output solver used as an independent numerical oracle.

The driven pump is absorbed into an effective coupling G = g_eo * sqrt(n_p)
between the signal mode ``a`` and the microwave mode ``b``. In the rotating
frame of the carriers the linear steady state at probe offset ``omega`` is
a 2x2 complex system M x = s_in with

    red (beam splitter):      M = [[i(da - w) + ka/2,  iG],
                                   [iG,  i(db - w) + kb/2]]

    blue (two-mode squeezing): same diagonal, off-diagonal [iG, -iG]
    because the microwave row is written for the conjugate mode.

Inputs are flux normalized, so with the input-output relation
``out = sqrt(kappa_ex) * x - in`` the squared cross amplitude is a photon
conversion probability. On resonance the red-scheme conversion reproduces
the closed-form efficiency of :mod:`xduce.core`; that equivalence is the
point of this module and is enforced by the test suite to 1e-9 relative.

The 2x2 solve uses the explicit inverse with a residual check: at this
size conditioning is trivial and the residual guards sign conventions.
Stability and the blue threshold follow from the trace and determinant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import Scheme, TransducerConfig
from .errors import DomainError, InstabilityError, UsageError

# Residual tolerance of the closed-form 2x2 solve, relative to the data.
_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class LinearizedSystem:
    """Pump-linearized two-mode system.

    ``g_eff`` is the effective coupling G = g_eo * sqrt(n_p), rad/s.
    Detunings are measured from the respective carriers and default to the
    triple-resonance condition (both zero). Loss rates are carried split so
    the input-output ports are well defined.
    """

    g_eff: float
    kappa_a_i: float
    kappa_a_ex: float
    kappa_b_i: float
    kappa_b_ex: float
    scheme: Scheme
    detuning_a: float = 0.0
    detuning_b: float = 0.0

    def __post_init__(self) -> None:
        if self.g_eff < 0.0 or not math.isfinite(self.g_eff):
            raise DomainError(f"g_eff must be finite and non-negative, got {self.g_eff!r}")
        if self.kappa_a <= 0.0 or self.kappa_b <= 0.0:
            raise DomainError("both modes need positive total loss rates")

    @property
    def kappa_a(self) -> float:
        return self.kappa_a_i + self.kappa_a_ex

    @property
    def kappa_b(self) -> float:
        return self.kappa_b_i + self.kappa_b_ex


@dataclass(frozen=True)
class ScatteringPoint:
    """Scattering response at one probe offset.

    ``amplitude_ab`` is the output at port a for unit input at port b;
    ``amplitude_ba`` the reverse. ``conversion`` is |amplitude_ba|^2, the
    photon conversion probability at this offset.
    """

    probe_offset: float
    amplitude_ab: complex
    amplitude_ba: complex
    conversion: float


def build_linearized(
    cfg: TransducerConfig, n_p: float, scheme: Scheme = Scheme.RED
) -> LinearizedSystem:
    """Linearize a transducer at a given pump photon number.

    G = g_eo * sqrt(n_p); detunings default to zero (triple resonance).
    """
    if n_p < 0.0:
        raise DomainError(f"n_p must be non-negative, got {n_p!r}")
    return LinearizedSystem(
        g_eff=cfg.g_eo * math.sqrt(n_p),
        kappa_a_i=cfg.mode_a.kappa_i,
        kappa_a_ex=cfg.mode_a.kappa_ex,
        kappa_b_i=cfg.mode_b.kappa_i,
        kappa_b_ex=cfg.mode_b.kappa_ex,
        scheme=scheme,
    )


def _system_matrix(sys: LinearizedSystem, omega: float):
    """Entries m11, m12, m21, m22 of M at probe offset omega."""
    m11 = 1j * (sys.detuning_a - omega) + sys.kappa_a / 2.0
    m22 = 1j * (sys.detuning_b - omega) + sys.kappa_b / 2.0
    if sys.scheme is Scheme.RED:
        return m11, 1j * sys.g_eff, 1j * sys.g_eff, m22
    return m11, 1j * sys.g_eff, -1j * sys.g_eff, m22


def _check_residual(m11, m12, m21, m22, x1, x2, r1, r2) -> None:
    """Raise if (x1, x2) does not solve M x = (r1, r2) to _RESIDUAL_RTOL."""
    scale = max(abs(r1), abs(r2)) + (abs(m11) + abs(m12) + abs(m21) + abs(m22)) * (
        abs(x1) + abs(x2)
    )
    res = max(abs(m11 * x1 + m12 * x2 - r1), abs(m21 * x1 + m22 * x2 - r2))
    if res > _RESIDUAL_RTOL * scale:
        raise ArithmeticError(
            f"2x2 residual {res:.3e} exceeds {_RESIDUAL_RTOL:.1e} * {scale:.3e}"
        )


def blue_unstable(sys: LinearizedSystem) -> bool:
    """True when the blue-scheme drift matrix has a non-decaying eigenvalue:
    the one stability verdict, which :func:`scattering_at` acts on."""
    m11, m12, m21, m22 = _system_matrix(sys, 0.0)
    # dx/dt = -K x with M(omega) = K - i*omega*I; stability needs Re eig(K) > 0.
    # Eigenvalues are half_trace +- root with Re(root) >= 0, so half_trace + root
    # decays; the other is det / (half_trace + root), free of cancellation.
    half_trace = (m11 + m22) / 2.0
    det = m11 * m22 - m12 * m21
    root = cmath.sqrt(half_trace * half_trace - det)
    return (det / (half_trace + root)).real <= 0.0


def scattering_at(sys: LinearizedSystem, omega: float) -> ScatteringPoint:
    """Solve the steady state at one probe offset and return cross amplitudes.

    Raises :class:`InstabilityError` for a blue-scheme system at or beyond
    the parametric threshold, where no steady state exists.
    """
    if sys.scheme is Scheme.BLUE and blue_unstable(sys):
        threshold = parametric_threshold(sys)
        raise InstabilityError(
            f"blue-detuned steady state is unstable: g_eff = {sys.g_eff:.6g} rad/s "
            f"is at or beyond the parametric threshold C = {threshold:.6g}",
            threshold=threshold,
        )
    m11, m12, m21, m22 = _system_matrix(sys, omega)
    det = m11 * m22 - m12 * m21
    if det == 0 or not cmath.isfinite(det):
        raise DomainError(f"2x2 steady-state determinant is {det!r}: the loss rates and "
                          f"coupling are beyond double range")
    sqrt_ka = math.sqrt(sys.kappa_a_ex)
    sqrt_kb = math.sqrt(sys.kappa_b_ex)
    # drive port a with input sqrt(ka_ex): out_b = sqrt(kb_ex) * x_b
    xa, xb = m22 * sqrt_ka / det, -m21 * sqrt_ka / det
    _check_residual(m11, m12, m21, m22, xa, xb, sqrt_ka, 0.0)
    amplitude_ba = sqrt_kb * xb
    # drive port b with input sqrt(kb_ex): out_a = sqrt(ka_ex) * x_a
    xa, xb = -m12 * sqrt_kb / det, m11 * sqrt_kb / det
    _check_residual(m11, m12, m21, m22, xa, xb, 0.0, sqrt_kb)
    amplitude_ab = sqrt_ka * xa
    return ScatteringPoint(
        probe_offset=omega,
        amplitude_ab=amplitude_ab,
        amplitude_ba=amplitude_ba,
        conversion=abs(amplitude_ba) ** 2,
    )


def conversion_spectrum(sys: LinearizedSystem, omegas) -> list[ScatteringPoint]:
    """Pointwise scattering over a list of probe offsets."""
    omegas = list(omegas)
    if not omegas:
        raise UsageError("conversion_spectrum needs at least one probe offset")
    return [scattering_at(sys, w) for w in omegas]


def parametric_threshold(sys: LinearizedSystem) -> float:
    """Cooperativity at which the blue steady state turns singular.

    On resonance the determinant with G rescaled by s is m11*m22 - s^2 G^2,
    so the threshold is C* = 4 m11 m22 / (kappa_a kappa_b) in closed form:
    exactly 1 at triple resonance, whatever the intrinsic/external splits.
    Detunings that make m11*m22 complex leave no real root (DomainError).
    A decoupled system (G = 0) never reaches the threshold: infinity.
    """
    if sys.scheme is not Scheme.BLUE:
        raise UsageError("parametric threshold is defined for the blue scheme only")
    if sys.g_eff == 0.0:
        return math.inf
    m11, _, _, m22 = _system_matrix(sys, 0.0)
    product = m11 * m22
    if abs(product.imag) > 1e-9 * abs(product):
        raise DomainError(
            "determinant is complex away from triple resonance; "
            "threshold undefined for detuned systems"
        )
    return 4.0 * product.real / (sys.kappa_a * sys.kappa_b)
