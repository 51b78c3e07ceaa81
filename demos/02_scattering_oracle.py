#!/usr/bin/env python3
"""Steady-state scattering as an independent check on the closed forms.

The linearized two-mode system, at triple resonance, is solved probe
offset by probe offset. On resonance the red-detuned conversion must
reproduce the closed-form efficiency; off resonance it traces the
conversion bandwidth. The blue-detuned system instead has a parametric
instability at C = 1, where the on-resonance determinant
(kappa_a/2)(kappa_b/2) - G^2 changes sign.
"""

import math

import numpy as np

from xduce import (
    InstabilityError,
    Mode,
    Scheme,
    TransducerConfig,
    build_linearized,
    conversion_efficiency,
    conversion_spectrum,
    cooperativity,
    parametric_threshold,
    scattering_at,
)

TWO_PI = 2 * math.pi

device = TransducerConfig(
    mode_a=Mode("a", TWO_PI * 193.5e12, TWO_PI * 10e6, TWO_PI * 20e6),
    mode_b=Mode("b", TWO_PI * 9e9, 0.5, TWO_PI * 1000.0),
    mode_p=Mode("p", TWO_PI * 193.5e12, TWO_PI * 15e6, TWO_PI * 15e6),
    g_eo=TWO_PI * 40.0,
)

# pick the pump photon number giving C = 0.7
n_p = 0.7 * device.mode_a.kappa * device.mode_b.kappa / (4 * device.g_eo**2)

eta = conversion_efficiency(device, n_p).eta
red = build_linearized(device, n_p, Scheme.RED)
numeric = scattering_at(red, 0.0).conversion
print("closed-form eta          :", eta)
print("scattering conversion(0) :", numeric)
print("relative deviation       :", abs(numeric - eta) / eta)
print()

print("conversion bandwidth (probe offset in units of kappa_b):")
offsets = np.linspace(-3.0, 3.0, 13) * device.mode_b.kappa
for point in conversion_spectrum(red, offsets):
    bars = "#" * int(round(40 * point.conversion / numeric))
    print(f"  {point.probe_offset / device.mode_b.kappa:+5.1f}  "
          f"{point.conversion:.5f}  {bars}")
print()

blue = build_linearized(device, n_p, Scheme.BLUE)
print("blue scheme at the same pump level:")
print("  cooperativity        :", cooperativity(device, n_p))
print("  parametric threshold :", parametric_threshold(blue))
print("  cross gain |S_ba|^2  :", scattering_at(blue, 0.0).conversion,
      " (pair production amplifies, so this exceeds 1)")

# past the threshold there is no steady state at all
strong = build_linearized(device, 2.0 * n_p, Scheme.BLUE)
try:
    scattering_at(strong, 0.0)
except InstabilityError as exc:
    print("at C =", cooperativity(device, 2.0 * n_p), "->", exc)
