"""Command line front end.

Subcommands mirror the library capabilities: ``efficiency`` evaluates one
operating point, ``sweep`` writes the power/Q tables (and optionally an
SVG), ``herald`` reports the entanglement-heralding probabilities with an
optional Monte Carlo cross-check, and ``verify`` runs the steady-state
scattering oracle against the closed-form efficiency.

Exit codes are a stable contract: 0 on success, 6 when verification fails
(oracle deviation above tolerance), and for an error the code, 2 to 5, that
the table ``_EXIT_CODES`` gives its class.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from itertools import repeat

from . import core, herald, scattering, sweep
from .config import RunConfig, dump_normalized, load_config
from .core import Scheme
from .errors import ConfigError, DomainError, UsageError

VERIFY_TOLERANCE = 1e-9
VERIFY_PROBES = 32
# The MC sampler draws about 85-100M trials/s on the calling thread, so the
# largest `herald --mc` runs for about 10-12 s, where a mistyped count could
# run for days.
MC_SAMPLES_CAP = 10**9

SWEEP_HEADER = "pump_power_w,q_b,n_p,cooperativity,eta_internal,eta,infidelity"


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "jsonl":
        sys.stdout.write(json.dumps(record) + "\n")
    else:
        sys.stdout.write(",".join(record.keys()) + "\n")
        cells = ("" if v is None else v if isinstance(v, str) else repr(v)
                 for v in record.values())
        sys.stdout.write(",".join(cells) + "\n")


def _sweep_lines(table, fmt: str):
    """The table's text, one chunk per Q_b, formatting each distinct value
    once: the power and n_p pieces, each repr with the separators around it,
    once per sweep; a Q_b's repr, and an infidelity constant over the grid,
    once per Q_b. A row is then the join of its pieces, the three reprs that
    differ per row among them. run_sweep only returns finite floats and no
    -0.0, so equal values print alike, and a ``repr`` is also the value's
    JSON form."""
    if fmt == "jsonl":
        # seps[j] comes before cell j, and seps[7] after the last
        opens = ["{"] + [", "] * 6
        seps = [f'{sep}"{name}": ' for sep, name in zip(opens, SWEEP_HEADER.split(","))] + ["}\n"]
        missing = "null"
    else:
        seps = [""] + [","] * 6 + ["\n"]
        missing = ""
        yield SWEEP_HEADER + "\n"
    powers = [seps[0] + repr(p) + seps[1] for p in table.pump_power_w]
    n_p = [repr(n) + seps[3] for n in table.n_p]
    for k, q_b in enumerate(table.q_b):
        if table.infidelity is None:
            tail = repeat(seps[6] + missing + seps[7])
        elif (infidelity := table.infidelity[k]).count(infidelity[0]) == len(infidelity):
            tail = repeat(seps[6] + repr(infidelity[0]) + seps[7])
        else:
            tail = [seps[6] + repr(v) + seps[7] for v in infidelity]
        yield "".join(map("".join, zip(
            powers, repeat(repr(q_b) + seps[2]), n_p, map(repr, table.cooperativity[k]),
            repeat(seps[4]), map(repr, table.eta_i[k]), repeat(seps[5]), map(repr, table.eta[k]),
            tail)))


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
    _emit_record(record, args.format or run.out_format)
    return 0


def _mapping_note(options: sweep.HeraldOptions | None) -> str | None:
    """Under the c_kappa_b r0 mapping, print the note that names it on stderr,
    and return it; otherwise None."""
    if options is None or options.r0_mapping != "c_kappa_b":
        return None
    note = "r0 mapping: c_kappa_b (r0 = C * kappa_b), an explicit modeling assumption"
    print(note, file=sys.stderr)
    return note


def cmd_sweep(run: RunConfig, args) -> int:
    spec = run.sweep
    if spec is None:
        raise ConfigError("missing [sweep] section")
    plot_path = args.plot or run.plot_path
    if (run.table_path and plot_path
            and os.path.realpath(run.table_path) == os.path.realpath(plot_path)):
        raise ConfigError(f"the table and the plot name one file: {plot_path}")
    note = _mapping_note(spec.herald_options if "infidelity" in spec.outputs else None)
    table = sweep.run_sweep(spec)
    lines = _sweep_lines(table, args.format or run.out_format)
    files = []  # (path, newline, chunks), written in this order
    if run.table_path:
        files.append((run.table_path, "", lines))
        lines = ()
    if plot_path:
        from . import svgplot

        files.append((plot_path, None, (svgplot.render_sweep_svg(table, spec.outputs, note=note),)))
    _write_outputs(files, lines)
    return 0


def _write_outputs(files, stdout_lines) -> None:
    """Write each new or regular file to a temporary file beside it, then the
    stdout lines and the outputs that are symlinks, devices or pipes (such as
    /dev/stdout), and only then rename the temporary files into place, so a
    failure on the way leaves no new or replaced file behind. The files get
    the mode ``open`` gives. A directory output is refused before anything
    is written."""
    import tempfile

    for path, _, _ in files:
        if os.path.isdir(path):  # what open() raises, but before stdout is written
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)

    umask = os.umask(0)  # reading the umask means setting it; restored at once
    os.umask(umask)
    staged = []  # (temporary file, path)
    in_place = []
    try:
        for path, newline, chunks in files:
            if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
                in_place.append((path, newline, chunks))
                continue
            try:
                fd, tmp = tempfile.mkstemp(prefix=".xduce-", suffix=".tmp",
                                           dir=os.path.dirname(path) or ".")
            except OSError as exc:  # name the output, not the temporary file
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((tmp, path))
            with open(fd, "w", encoding="utf-8", newline=newline) as handle:
                handle.writelines(chunks)
            os.chmod(tmp, 0o666 & ~umask)
        sys.stdout.writelines(stdout_lines)
        for path, newline, chunks in in_place:
            with open(path, "w", encoding="utf-8", newline=newline) as handle:
                handle.writelines(chunks)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def _gap_scale(estimate: herald.McEstimate) -> float:
    """The MC standard error, or if it is 0 the (positive) z = 1 Wilson score half-width."""
    if estimate.standard_error > 0.0:
        return estimate.standard_error
    n, p = estimate.samples, estimate.infidelity_mean
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)


def cmd_herald(run: RunConfig, args) -> int:
    if run.herald is None:
        raise ConfigError("missing [herald] section")
    _mapping_note(run.herald)
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
        if args.mc > MC_SAMPLES_CAP:
            raise UsageError(f"--mc takes at most {MC_SAMPLES_CAP} samples, got {args.mc}")
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
    _emit_record(record, args.format or run.out_format)
    return 0


def cmd_verify(run: RunConfig, args) -> int:
    # everything is computed before the first print, so an error leaves
    # stdout empty
    cfg = run.transducer
    n_p = core.intracavity_photon_number(cfg.mode_p, run.drive)
    breakdown = core.conversion_efficiency(cfg, n_p)
    eta = breakdown.eta
    red_sys = scattering.build_linearized(cfg, n_p, Scheme.RED)
    conversion = scattering.scattering_at(red_sys, 0.0).conversion
    for name, value in (("eta", eta), ("the oracle's conversion", conversion)):
        if not core._carried(value, value):  # 0 is exact, a subnormal is not
            raise DomainError(f"{name} = {value!r} is subnormal: a subnormal double carries "
                              f"fewer than 9 significant digits, so it cannot carry the "
                              f"{VERIFY_TOLERANCE:g} agreement")
    deviation = abs(conversion - eta) / (eta if eta > 0.0 else 1.0)
    # probe offsets: the midpoints of VERIFY_PROBES equal cells of [-span, span]
    span = 5.0 * max(red_sys.kappa_a, red_sys.kappa_b)
    points = scattering.conversion_spectrum(
        red_sys, [span * ((2 * k + 1) / VERIFY_PROBES - 1.0) for k in range(VERIFY_PROBES)])
    worst_excess = max(0.0, *(p.conversion - 1.0 for p in points))
    worst_asym = max(0.0, *(abs(abs(p.amplitude_ab) - abs(p.amplitude_ba)) for p in points))
    blue_sys = scattering.build_linearized(cfg, n_p, Scheme.BLUE)
    threshold = scattering.parametric_threshold(blue_sys)
    unstable = run.drive.scheme is Scheme.BLUE and scattering.blue_unstable(blue_sys)

    print(f"eta_closed_form = {eta!r}")
    print(f"conversion_numeric = {conversion!r}")
    print(f"max_relative_deviation = {deviation!r}")
    print(f"probe_offsets_checked = {VERIFY_PROBES}")
    print(f"max_conversion_excess_over_1 = {worst_excess!r}")
    print(f"max_reciprocity_gap = {worst_asym!r}")
    print(f"blue_parametric_threshold_C = {threshold!r}")
    if unstable:
        print(f"blue drive is unstable: C = {breakdown.cooperativity!r} is at or "
              f"beyond the threshold")
    if deviation > VERIFY_TOLERANCE:
        print(f"verification FAILED: deviation above {VERIFY_TOLERANCE:g}", file=sys.stderr)
        return 6
    print("verification passed")
    return 0


# Each subcommand takes --config and --dump-normalized plus the flags it reads.
_FLAGS = {
    "--format": dict(choices=("csv", "jsonl"), help="override the config output format"),
    "--plot": dict(metavar="OUT.SVG", help="write an SVG plot"),
    "--mc": dict(type=int, metavar="N", help="Monte Carlo sample count"),
    "--seed": dict(type=int, help="override the config seed"),
}

_COMMANDS = {
    "efficiency": (cmd_efficiency, "conversion efficiency breakdown at one operating point",
                   ("--format",)),
    "sweep": (cmd_sweep, "power/Q sweep tables and optional SVG plot", ("--format", "--plot")),
    "herald": (cmd_herald, "heralded-entanglement probability breakdown",
               ("--format", "--mc", "--seed")),
    "verify": (cmd_verify, "steady-state scattering oracle self-test", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xduce",
        description="Cavity electro-optic transduction design calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to an INI run configuration")
        p.add_argument("--dump-normalized", action="store_true",
                       help="echo the rad/s values the loader produced")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# The exit-code contract for errors, in code: each error class (with its
# subclasses), the code it exits with and the label its message prints under.
_EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (DomainError, 3, "domain error"),
    (ArithmeticError, 3, "domain error"),  # the 2x2 solver's residual check
    (OSError, 4, "i/o error"),
    (UsageError, 5, "unsupported"),
)


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
        if args.dump_normalized:
            print(dump_normalized(run))
        return _COMMANDS[args.command][0](run, args)
    except Exception as exc:
        for error, code, label in _EXIT_CODES:
            if isinstance(exc, error):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
