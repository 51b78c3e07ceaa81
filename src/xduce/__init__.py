"""Design-space calculator for cavity electro-optic quantum transduction.

Closed-form conversion efficiency and cooperativity, an independent
steady-state scattering oracle, heralded-entanglement photon statistics
with a reproducible Monte Carlo cross-check, and power/quality-factor
sweeps. See the README for the command line front end.
"""

from .core import (
    HBAR,
    TWO_PI,
    DriveCondition,
    EfficiencyBreakdown,
    Mode,
    Scheme,
    TransducerConfig,
    conversion_efficiency,
    cooperativity,
    critical_photon_number,
    critical_pump_power,
    internal_efficiency,
    intracavity_photon_number,
    kappa_to_lifetime,
    q_to_kappa,
)
from .errors import (
    BracketingError,
    ConfigError,
    DomainError,
    InstabilityError,
    ModelRegimeError,
    NoCriticalPointError,
    UndriveablePumpError,
    UsageError,
)
from .herald import (
    HeraldBreakdown,
    HeraldModel,
    McEstimate,
    blue_breakdown,
    mc_blue_infidelity,
    red_breakdown,
    storage_loss_infidelity,
)
from .scattering import (
    LinearizedSystem,
    ScatteringPoint,
    build_linearized,
    conversion_spectrum,
    parametric_threshold,
    scattering_at,
)
from .sweep import (
    HeraldOptions,
    PowerAxis,
    SweepSpec,
    SweepTable,
    maximize_efficiency,
    retune_microwave_q,
    run_sweep,
)

__all__ = [
    "HBAR",
    "TWO_PI",
    "Mode",
    "TransducerConfig",
    "DriveCondition",
    "Scheme",
    "EfficiencyBreakdown",
    "q_to_kappa",
    "kappa_to_lifetime",
    "intracavity_photon_number",
    "cooperativity",
    "internal_efficiency",
    "conversion_efficiency",
    "critical_photon_number",
    "critical_pump_power",
    "LinearizedSystem",
    "ScatteringPoint",
    "build_linearized",
    "scattering_at",
    "conversion_spectrum",
    "parametric_threshold",
    "HeraldModel",
    "HeraldBreakdown",
    "McEstimate",
    "blue_breakdown",
    "red_breakdown",
    "mc_blue_infidelity",
    "storage_loss_infidelity",
    "PowerAxis",
    "HeraldOptions",
    "SweepSpec",
    "SweepTable",
    "run_sweep",
    "maximize_efficiency",
    "retune_microwave_q",
    "DomainError",
    "NoCriticalPointError",
    "UndriveablePumpError",
    "ModelRegimeError",
    "UsageError",
    "BracketingError",
    "InstabilityError",
    "ConfigError",
]
