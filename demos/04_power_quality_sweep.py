#!/usr/bin/env python3
"""Full design-space sweep: efficiency, cooperativity and infidelity
against pump power for two microwave quality factors.

Reproduces the qualitative design rules: cooperativity is linear in both
power and Q; a 10x higher Q reaches its efficiency peak at 10x lower
power; and (with the rate mapping r0 = C * kappa_b) a larger pump power
raises the heralding infidelity while a higher Q lowers it.

Writes sweep_demo.csv and sweep_demo.svg next to this script.
"""

import math
from pathlib import Path

from xduce import (
    HeraldOptions,
    Mode,
    PowerAxis,
    SweepSpec,
    TransducerConfig,
    critical_pump_power,
    maximize_efficiency,
    retune_microwave_q,
    run_sweep,
)
from xduce.svgplot import render_sweep_svg

TWO_PI = 2 * math.pi
OUT = Path(__file__).resolve().parent

device = TransducerConfig(
    mode_a=Mode("a", TWO_PI * 193.5e12, TWO_PI * 10e6, TWO_PI * 20e6),
    mode_b=Mode("b", TWO_PI * 9e9, 0.5, TWO_PI * 1000.0),
    mode_p=Mode("p", TWO_PI * 193.5e12, TWO_PI * 15e6, TWO_PI * 15e6),
    g_eo=TWO_PI * 40.0,
)

spec = SweepSpec(
    config=device,
    power_axis=PowerAxis(1e-8, 1e-3, spacing="log"),  # 200 points/decade default
    q_axis=(9e6, 9e7),
    outputs=("efficiency", "cooperativity", "infidelity"),
    herald_options=HeraldOptions(dt=1e-6, r0_mapping="c_kappa_b"),
)
table = run_sweep(spec)  # a SweepTable: one list per column, sorted by Q then power
print(f"swept {len(table)} operating points")

for q_b in spec.q_axis:
    rows_at_q = [i for i, q in enumerate(table.q_b) if q == q_b]
    best = max(rows_at_q, key=table.eta.__getitem__)
    cfg = retune_microwave_q(device, q_b)
    p_star = critical_pump_power(cfg)
    p_opt, eta_opt = maximize_efficiency(cfg, (p_star / 100, p_star * 100))
    print(f"Q = {q_b:.1e}:")
    eta_best, p_best = table.eta[best], table.pump_power_w[best]
    print(f"  grid peak      : eta = {eta_best:.4f} at P = {p_best:.3e} W")
    print(f"  golden section : eta = {eta_opt:.4f} at P = {p_opt:.3e} W")
    print(f"  closed form P* : {p_star:.3e} W")

low, high = spec.q_axis
p_low = critical_pump_power(retune_microwave_q(device, low))
p_high = critical_pump_power(retune_microwave_q(device, high))
print(f"peak-power ratio P*(10Q)/P*(Q) = {p_high / p_low:.3f}")

csv_path = OUT / "sweep_demo.csv"
with open(csv_path, "w") as handle:
    handle.write("pump_power_w,q_b,n_p,cooperativity,eta_internal,eta,infidelity\n")
    handle.writelines(map("{!r},{!r},{!r},{!r},{!r},{!r},{!r}\n".format, *table.columns()))
svg_path = OUT / "sweep_demo.svg"
svg_path.write_text(render_sweep_svg(table, spec.outputs,
                                     note="r0 mapping: c_kappa_b (modeling assumption)"))
print(f"wrote {csv_path.name} and {svg_path.name}")
