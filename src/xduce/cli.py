"""Command line front end.

Subcommands mirror the library capabilities: ``efficiency`` evaluates one
operating point, ``sweep`` writes the power/Q tables (and optionally an
SVG), ``herald`` reports the entanglement-heralding probabilities with an
optional Monte Carlo cross-check, and ``verify`` runs the steady-state
scattering oracle against the closed-form efficiency.

Exit codes are a stable contract:

    0  success
    2  malformed configuration
    3  domain error (inputs outside physical range)
    4  I/O failure (unreadable config, unwritable output)
    5  unsupported operation for the given scheme/flags
    6  verification failure (oracle deviation above tolerance)
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import core, herald, scattering, svgplot, sweep
from .config import RunConfig, dump_normalized, load_config
from .core import Scheme
from .errors import (
    BracketingError,
    ConfigError,
    DomainError,
    InstabilityError,
    UsageError,
)

VERIFY_TOLERANCE = 1e-9

SWEEP_HEADER = "pump_power_w,q_b,n_p,cooperativity,eta_internal,eta,infidelity"


def _emit_record(record: dict, fmt: str, stream) -> None:
    if fmt == "jsonl":
        stream.write(json.dumps(record) + "\n")
    else:
        stream.write(",".join(record.keys()) + "\n")
        cells = ("" if v is None else v if isinstance(v, str) else repr(v)
                 for v in record.values())
        stream.write(",".join(cells) + "\n")


def _sweep_lines(table, fmt: str):
    """The table's lines, each row formatted by one template from the
    columns. run_sweep only returns finite floats, whose ``repr`` is also
    their JSON form."""
    columns = table.columns()
    cells = ["{!r}"] * len(columns)
    if table.infidelity is None:
        columns = columns[:-1]
        cells[-1] = "null" if fmt == "jsonl" else ""
    if fmt == "jsonl":
        pairs = (f'"{name}": {cell}' for name, cell in zip(SWEEP_HEADER.split(","), cells))
        return map(("{{" + ", ".join(pairs) + "}}\n").format, *columns)
    lines = map((",".join(cells) + "\n").format, *columns)
    return itertools.chain((SWEEP_HEADER + "\n",), lines)


def cmd_efficiency(run: RunConfig, args) -> int:
    n_p = core.intracavity_photon_number(run.transducer.mode_p, run.drive)
    breakdown = core.conversion_efficiency(run.transducer, n_p)
    record = {
        "n_p": n_p,
        "cooperativity": breakdown.cooperativity,
        "eta_internal": breakdown.eta_i,
        "eta": breakdown.eta,
        "extraction_a": breakdown.extraction_a,
        "extraction_b": breakdown.extraction_b,
    }
    _emit_record(record, args.format or run.out_format, sys.stdout)
    return 0


def cmd_sweep(run: RunConfig, args) -> int:
    spec = run.sweep
    if spec is None:
        raise ConfigError("missing [sweep] section")
    note = None
    if spec.herald_options is not None and spec.herald_options.r0_mapping == "c_kappa_b":
        note = "r0 mapping: c_kappa_b (r0 = C * kappa_b), an explicit modeling assumption"
        print(note, file=sys.stderr)
    table = sweep.run_sweep(spec)
    lines = _sweep_lines(table, args.format or run.out_format)
    if run.table_path:
        with open(run.table_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    plot_path = args.plot or run.plot_path
    if plot_path:
        document = svgplot.render_sweep_svg(table, spec.outputs, note=note)
        with open(plot_path, "w", encoding="utf-8") as handle:
            handle.write(document)
    return 0


def _gap_scale(estimate: herald.McEstimate) -> float:
    """The MC standard error, or if it is 0 the (positive) z = 1 Wilson score half-width."""
    if estimate.standard_error > 0.0:
        return estimate.standard_error
    n, p = estimate.samples, estimate.infidelity_mean
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)


def cmd_herald(run: RunConfig, args) -> int:
    if run.herald is None:
        raise ConfigError("missing [herald] section")
    model = run.herald.model_at(run.transducer, run.drive)
    blue = model.scheme is Scheme.BLUE
    breakdown = herald.blue_breakdown(model) if blue else herald.red_breakdown(model)
    record = {
        "scheme": model.scheme.value,
        "mu": model.mu,
        "p0": breakdown.p0,
        "p1": breakdown.p1,
        "p11": breakdown.p11,
        "pmn": breakdown.pmn,
        "infidelity": breakdown.infidelity,
    }
    if args.mc is not None:
        if not blue:
            raise UsageError("--mc is only supported for the blue scheme")
        seed = args.seed if args.seed is not None else run.seed
        estimate = herald.mc_blue_infidelity(model, samples=args.mc, seed=seed)
        gap = (breakdown.infidelity - estimate.infidelity_mean) / _gap_scale(estimate)
        record.update(
            mc_samples=estimate.samples,
            mc_infidelity=estimate.infidelity_mean,
            mc_standard_error=estimate.standard_error,
            mc_gap_sigma=gap,
            mc_seed=estimate.seed,
        )
    _emit_record(record, args.format or run.out_format, sys.stdout)
    return 0


def cmd_verify(run: RunConfig, args) -> int:
    seed = args.seed if args.seed is not None else run.seed
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    if args.probes < 0:
        raise UsageError(f"--probes must be non-negative, got {args.probes}")
    cfg = run.transducer
    n_p = core.intracavity_photon_number(cfg.mode_p, run.drive)
    eta = core.conversion_efficiency(cfg, n_p).eta
    red_sys = scattering.build_linearized(cfg, n_p, Scheme.RED)
    conversion = scattering.scattering_at(red_sys, 0.0).conversion
    if eta > 0.0:
        deviation = abs(conversion - eta) / eta
    else:
        deviation = abs(conversion - eta)
    print(f"eta_closed_form = {eta!r}")
    print(f"conversion_numeric = {conversion!r}")
    print(f"max_relative_deviation = {deviation!r}")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    span = 5.0 * max(red_sys.kappa_a, red_sys.kappa_b)
    worst_excess = 0.0
    worst_asym = 0.0
    for offset in rng.uniform(-span, span, args.probes):
        point = scattering.scattering_at(red_sys, float(offset))
        worst_excess = max(worst_excess, point.conversion - 1.0)
        worst_asym = max(worst_asym, abs(abs(point.amplitude_ab) - abs(point.amplitude_ba)))
    print(f"probe_offsets_checked = {args.probes}")
    print(f"max_conversion_excess_over_1 = {worst_excess!r}")
    print(f"max_reciprocity_gap = {worst_asym!r}")

    blue_sys = scattering.build_linearized(cfg, n_p, Scheme.BLUE)
    threshold = scattering.parametric_threshold(blue_sys)
    print(f"blue_parametric_threshold_C = {threshold!r}")
    if run.drive.scheme is Scheme.BLUE and blue_sys.cooperativity >= threshold:
        print(
            f"blue drive is unstable: C = {blue_sys.cooperativity!r} is at or "
            f"beyond the threshold"
        )
    if deviation > VERIFY_TOLERANCE:
        print(f"verification FAILED: deviation above {VERIFY_TOLERANCE:g}", file=sys.stderr)
        return 6
    print("verification passed")
    return 0


_COMMANDS = {
    "efficiency": cmd_efficiency,
    "sweep": cmd_sweep,
    "herald": cmd_herald,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xduce",
        description="Cavity electro-optic transduction design calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("efficiency", "conversion efficiency breakdown at one operating point"),
        ("sweep", "power/Q sweep tables and optional SVG plot"),
        ("herald", "heralded-entanglement probability breakdown"),
        ("verify", "steady-state scattering oracle self-test"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to an INI run configuration")
        p.add_argument("--mc", type=int, default=None, metavar="N",
                       help="Monte Carlo sample count (herald only)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                       help="override the config output format")
        p.add_argument("--plot", default=None, metavar="OUT.SVG",
                       help="write an SVG plot (sweep only)")
        p.add_argument("--probes", type=int, default=32,
                       help="random probe offsets for verify")
        p.add_argument("--dump-normalized", action="store_true",
                       help="echo the rad/s values the loader produced")
    return parser


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4
    if args.dump_normalized:
        print(dump_normalized(run))
    try:
        return _COMMANDS[args.command](run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BracketingError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 5
    except InstabilityError as exc:
        print(f"unstable operating point: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli())
