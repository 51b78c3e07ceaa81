"""Seeded benchmark inputs: perturbations of the shipped ``configs/device.ini``.

Standard library only, so making inputs imports nothing from xduce and the
cold CLI workload's parent process stays free of the package. Every draw
comes from one ``random.Random(seed)``, so a seed fixes every input.

Loss rates and ``g_eo`` vary log-uniformly within a factor ``SPREAD`` of
the shipped values; pump power is drawn relative to the critical power
P_c (where C = 1), which keeps blue points below the parametric threshold;
the herald mean ``mu = r0 * dt`` stays in [0.01, 3], inside the model's
``mu < 10`` regime.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path

HBAR = 1.054571817e-34
TWO_PI = 2.0 * math.pi

SPREAD = 3.0
VARIED = (
    "a_kappa_i_hz", "a_kappa_ex_hz",
    "b_kappa_i_hz", "b_kappa_ex_hz",
    "p_kappa_i_hz", "p_kappa_ex_hz",
    "g_eo_hz",
)
MU_RANGE = (0.01, 3.0)
DT_RANGE = (1e-4, 1e-2)
Q_RANGE = (3e6, 3e8)
# Blue points sit at P / P_c = C below this, red points anywhere in RED_FRAC.
BLUE_FRAC = (0.01, 0.9)
RED_FRAC = (0.01, 100.0)

SWEEP_HEADER = "pump_power_w,q_b,n_p,cooperativity,eta_internal,eta,infidelity"


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def shipped_device(root: Path) -> dict[str, float]:
    """The ``[device]`` section of the shipped config, as Hz floats."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(root / "configs" / "device.ini", encoding="utf-8")
    return {key: float(value) for key, value in parser["device"].items()}


def critical_power_w(device: dict[str, float]) -> float:
    """Pump power where C = 1 at zero detuning, from the Hz device values.

    C = 4 g^2 n_p / (ka kb) and n_p = kp_ex P / (hbar wp (kp/2)^2), all
    angular. Used only to place generated points; the benchmark checks the
    program's own numbers, never these.
    """
    ka = TWO_PI * (device["a_kappa_i_hz"] + device["a_kappa_ex_hz"])
    kb = TWO_PI * (device["b_kappa_i_hz"] + device["b_kappa_ex_hz"])
    kp = TWO_PI * (device["p_kappa_i_hz"] + device["p_kappa_ex_hz"])
    g = TWO_PI * device["g_eo_hz"]
    wp = TWO_PI * device["p_frequency_hz"]
    n_star = ka * kb / (4.0 * g * g)
    return n_star * HBAR * wp * (kp / 2.0) ** 2 / (TWO_PI * device["p_kappa_ex_hz"])


@dataclass(frozen=True)
class Design:
    """One generated design point, device values in Hz."""

    device: dict[str, float]
    scheme: str
    power_frac: float  # P / P_c, which equals C at zero detuning
    r0_per_s: float
    dt_s: float
    probe_offsets: tuple[float, ...]  # rad/s, the first is 0 (on resonance)

    @property
    def power_w(self) -> float:
        return self.power_frac * critical_power_w(self.device)


def draw_design(rng: random.Random, base: dict[str, float], scheme: str) -> Design:
    device = dict(base)
    for key in VARIED:
        device[key] = base[key] * log_uniform(rng, 1.0 / SPREAD, SPREAD)
    frac = log_uniform(rng, *(BLUE_FRAC if scheme == "blue" else RED_FRAC))
    mu = log_uniform(rng, *MU_RANGE)
    dt = log_uniform(rng, *DT_RANGE)
    ka = TWO_PI * (device["a_kappa_i_hz"] + device["a_kappa_ex_hz"])
    offsets = (0.0,) + tuple(rng.uniform(-5.0 * ka, 5.0 * ka) for _ in range(7))
    return Design(device, scheme, frac, mu / dt, dt, offsets)


@dataclass(frozen=True)
class SweepGrid:
    power_min_w: float
    power_max_w: float
    points: int
    q_values: tuple[float, ...]

    @property
    def rows(self) -> int:
        return self.points * len(self.q_values)


def draw_grid(rng: random.Random, design: Design, points: int, n_q: int) -> SweepGrid:
    """A log power grid around P_c and ``n_q`` distinct microwave Q values."""
    pc = critical_power_w(design.device)
    qs: set[float] = set()
    while len(qs) < n_q:
        qs.add(round(log_uniform(rng, *Q_RANGE), -3))
    return SweepGrid(
        power_min_w=pc * log_uniform(rng, 1e-3, 1e-2),
        power_max_w=pc * log_uniform(rng, 1e1, 1e2),
        points=points,
        q_values=tuple(sorted(qs)),
    )


def ini_text(design: Design, grid: SweepGrid | None = None, fmt: str = "csv",
             seed: int = 0, table: Path | None = None) -> str:
    """A run configuration in the shipped file's layout and units."""
    lines = ["[device]"]
    lines += [f"{key} = {value!r}" for key, value in design.device.items()]
    lines += [
        "", "[drive]", f"power_w = {design.power_w!r}", "detuning_hz = 0",
        f"scheme = {design.scheme}",
        "", "[herald]", f"dt_s = {design.dt_s!r}", "r0_mapping = direct",
        f"r0_per_s = {design.r0_per_s!r}",
    ]
    if grid is not None:
        lines += [
            "", "[sweep]", f"power_min_w = {grid.power_min_w!r}",
            f"power_max_w = {grid.power_max_w!r}", f"power_points = {grid.points}",
            "power_spacing = log",
            "q_values = " + ", ".join(repr(q) for q in grid.q_values),
            "outputs = efficiency, cooperativity, infidelity",
        ]
    lines += ["", "[output]", f"format = {fmt}", f"seed = {seed}"]
    if table is not None:
        lines.append(f"table = {table}")
    return "\n".join(lines) + "\n"


def golden_ini_text(root: Path, table: Path) -> str:
    """The shipped config at 6 power points: the config behind the golden CSV."""
    text = (root / "configs" / "device.ini").read_text(encoding="utf-8")
    if "power_points = 16" not in text:
        raise ValueError("configs/device.ini no longer has 'power_points = 16'")
    text = text.replace("power_points = 16", "power_points = 6")
    return text.rstrip("\n") + f"\ntable = {table}\n"
