"""Steady-state input-output solver used as an independent numerical oracle.

The driven pump is absorbed into an effective coupling G = g_eo * sqrt(n_p)
between the signal mode ``a`` and the microwave mode ``b``. The oracle
works at triple resonance only: the pump sits on its resonance and both
carriers on theirs, so there are no carrier detunings. In the rotating
frame of the carriers the linear steady state at probe offset ``omega`` is
a 2x2 complex system M x = s_in with

    red (beam splitter):      M = [[ka/2 - iw,  iG],
                                   [iG,  kb/2 - iw]]

    blue (two-mode squeezing): same diagonal, off-diagonal [iG, -iG]
    because the microwave row is written for the conjugate mode.

Inputs are flux normalized, so with the input-output relation
``out = sqrt(kappa_ex) * x - in`` the squared cross amplitude is a photon
conversion probability. On resonance the red-scheme conversion reproduces
the closed-form efficiency of :mod:`xduce.core`; that equivalence is the
point of this module and is enforced by the test suite to 1e-9 relative.

The 2x2 solve uses the explicit inverse with a residual check: at this
size conditioning is trivial and the residual guards sign conventions.
Blue stability and the threshold follow from the sign of det M(0) =
(ka/2)(kb/2) - G^2.
"""

from __future__ import annotations

import cmath
import math

from .core import (NonNegative, Scheme, TransducerConfig, _Frozen, _as_float, _require_finite,
                   _require_non_negative)
from .errors import DomainError, InstabilityError, UsageError

__all__ = ["LinearizedSystem", "ScatteringPoint", "build_linearized", "scattering_at",
           "conversion_spectrum", "parametric_threshold"]

# Residual tolerance of the closed-form 2x2 solve, relative to the data.
_RESIDUAL_RTOL = 1e-10


class LinearizedSystem(_Frozen):
    """Pump-linearized two-mode system.

    ``g_eff`` is the effective coupling G = g_eo * sqrt(n_p), rad/s, at
    triple resonance. Loss rates are carried split so the input-output
    ports are well defined.
    """

    g_eff: NonNegative
    kappa_a_i: NonNegative
    kappa_a_ex: NonNegative
    kappa_b_i: NonNegative
    kappa_b_ex: NonNegative
    scheme: Scheme

    def _check(self) -> None:
        if self.kappa_a <= 0.0 or self.kappa_b <= 0.0:
            raise DomainError("both modes need positive total loss rates")

    @property
    def kappa_a(self) -> float:
        return self.kappa_a_i + self.kappa_a_ex

    @property
    def kappa_b(self) -> float:
        return self.kappa_b_i + self.kappa_b_ex


class ScatteringPoint(_Frozen):
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

    G = g_eo * sqrt(n_p), at triple resonance.
    """
    n_p = _require_non_negative(n_p, "n_p")
    return LinearizedSystem(
        g_eff=cfg.g_eo * math.sqrt(n_p),
        kappa_a_i=cfg.mode_a.kappa_i,
        kappa_a_ex=cfg.mode_a.kappa_ex,
        kappa_b_i=cfg.mode_b.kappa_i,
        kappa_b_ex=cfg.mode_b.kappa_ex,
        scheme=scheme,
    )


def _residual_error(res: float, scale: float) -> ArithmeticError:
    return ArithmeticError(f"2x2 residual {res:.3e} exceeds {_RESIDUAL_RTOL:.1e} * {scale:.3e}")


def blue_unstable(sys: LinearizedSystem) -> bool:
    """True when the blue-scheme drift matrix has a non-decaying eigenvalue:
    the one stability verdict, which :func:`conversion_spectrum` acts on."""
    # dx/dt = -K x with K = M(0) = [[ka/2, iG], [-iG, kb/2]], whose eigenvalues
    # are real with a positive sum; the smaller one has the sign of
    # det K = (ka/2)(kb/2) - G^2. Rounding is monotone, so the comparison can
    # only err where both sides round equal, and there the solve's det is 0.
    return sys.g_eff * sys.g_eff >= (sys.kappa_a / 2.0) * (sys.kappa_b / 2.0)


def scattering_at(sys: LinearizedSystem, omega: float) -> ScatteringPoint:
    """:func:`conversion_spectrum` at one probe offset."""
    return conversion_spectrum(sys, (omega,))[0]


def conversion_spectrum(sys: LinearizedSystem, omegas) -> list[ScatteringPoint]:
    """Solve the steady state at each probe offset and return cross amplitudes.

    Raises :class:`InstabilityError` for a blue-scheme system at or beyond
    the parametric threshold, where no steady state exists.
    """
    omegas = list(omegas)
    if not omegas:
        raise UsageError("conversion_spectrum needs at least one probe offset")
    if sys.scheme is Scheme.BLUE and blue_unstable(sys):
        threshold = parametric_threshold(sys)
        raise InstabilityError(
            f"blue-detuned steady state is unstable: g_eff = {sys.g_eff:.6g} rad/s "
            f"is at or beyond the parametric threshold C = {threshold:.6g}",
            threshold=threshold,
        )
    half_a = sys.kappa_a / 2.0
    half_b = sys.kappa_b / 2.0
    m12 = 1j * sys.g_eff
    m21 = m12 if sys.scheme is Scheme.RED else -1j * sys.g_eff
    abs_m12, abs_m21 = abs(m12), abs(m21)
    sqrt_ka = math.sqrt(sys.kappa_a_ex)
    sqrt_kb = math.sqrt(sys.kappa_b_ex)
    points = []
    for omega in omegas:
        omega = _as_float(omega, "probe offset")
        # 0.0 - omega, not -omega: a zero offset keeps a +0.0 imaginary part
        m11 = complex(half_a, 0.0 - omega)
        m22 = complex(half_b, 0.0 - omega)
        det = m11 * m22 - m12 * m21
        if det == 0 or not cmath.isfinite(det):
            _require_finite(omega, "probe offset")
            raise DomainError(f"2x2 steady-state determinant is {det!r}: the loss rates and "
                              f"coupling are beyond double range")
        # |M| of both residual checks; max|r| is each drive's one nonzero input
        norm = abs(m11) + abs_m12 + abs_m21 + abs(m22)
        # drive port a with input sqrt(ka_ex): out_b = sqrt(kb_ex) * x_b
        xa, xb = m22 * sqrt_ka / det, -m21 * sqrt_ka / det
        res = max(abs(m11 * xa + m12 * xb - sqrt_ka), abs(m21 * xa + m22 * xb - 0.0))
        scale = sqrt_ka + norm * (abs(xa) + abs(xb))
        if res > _RESIDUAL_RTOL * scale:
            raise _residual_error(res, scale)
        amplitude_ba = sqrt_kb * xb
        # drive port b with input sqrt(kb_ex): out_a = sqrt(ka_ex) * x_a
        xa, xb = -m12 * sqrt_kb / det, m11 * sqrt_kb / det
        res = max(abs(m11 * xa + m12 * xb - 0.0), abs(m21 * xa + m22 * xb - sqrt_kb))
        scale = sqrt_kb + norm * (abs(xa) + abs(xb))
        if res > _RESIDUAL_RTOL * scale:
            raise _residual_error(res, scale)
        amplitude_ab = sqrt_ka * xa
        points.append(ScatteringPoint(omega, amplitude_ab, amplitude_ba, abs(amplitude_ba) ** 2))
    return points


def parametric_threshold(sys: LinearizedSystem) -> float:
    """Cooperativity at which the blue steady state turns singular.

    With G rescaled by s the on-resonance determinant is
    (kappa_a/2)(kappa_b/2) - s^2 G^2, which vanishes at
    C = 4 s^2 G^2 / (kappa_a kappa_b) = 1, whatever the loss rates and
    their intrinsic/external splits. A decoupled system (G = 0) never
    reaches the threshold: infinity.
    """
    if sys.scheme is not Scheme.BLUE:
        raise UsageError("parametric threshold is defined for the blue scheme only")
    return math.inf if sys.g_eff == 0.0 else 1.0
