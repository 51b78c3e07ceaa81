"""Run configuration files: INI sections, laboratory units, validation.

Configs use the experimentalist convention of plain Hz for every
frequency-like quantity (mode frequencies, linewidths, coupling, pump
detuning); loading multiplies by 2*pi exactly once so the rest of the
package works in rad/s. Per mode, losses are given either as quality
factors (q_i / q_ex) or as linewidths in Hz (kappa_i_hz / kappa_ex_hz),
never mixed.

Example::

    [device]
    a_frequency_hz = 193.5e12
    a_kappa_i_hz = 10e6
    a_kappa_ex_hz = 20e6
    b_frequency_hz = 9e9
    b_kappa_i_hz = 0.0795774715459477
    b_kappa_ex_hz = 1000
    p_frequency_hz = 193.5e12
    p_kappa_i_hz = 15e6
    p_kappa_ex_hz = 15e6
    g_eo_hz = 40

    [drive]
    power_w = 2e-5
    detuning_hz = 0
    scheme = red

The herald rate ``r0_per_s`` is an event rate, not a frequency, and is
taken as-is (no 2*pi).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .core import TWO_PI, DriveCondition, Mode, Scheme, TransducerConfig, q_to_kappa
from .errors import ConfigError
from .sweep import HeraldOptions, PowerAxis, SweepSpec

# The fields each section may hold; a typo in a name is rejected at load.
_MODE_FIELDS = ("frequency_hz", "q_i", "q_ex", "kappa_i_hz", "kappa_ex_hz")
_FIELDS = {
    "device": {f"{label}_{field}" for label in "abp" for field in _MODE_FIELDS} | {"g_eo_hz"},
    "drive": {"power_w", "detuning_hz", "scheme"},
    "herald": {"dt_s", "r0_mapping", "r0_per_s"},
    "sweep": {"power_min_w", "power_max_w", "power_points", "power_spacing", "q_values",
              "outputs"},
    "output": {"format", "table", "plot", "seed"},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI subcommand needs, already normalized to rad/s."""

    transducer: TransducerConfig
    drive: DriveCondition
    herald: HeraldOptions | None
    sweep: SweepSpec | None
    out_format: str
    table_path: str | None
    plot_path: str | None
    seed: int


def _get_float(section: configparser.SectionProxy, key: str) -> float:
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{section.name}] is missing required field '{key}'")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] field '{key}': not a number: {raw!r}") from None


def _get_float_opt(section, key: str, default: float) -> float:
    if section is None or section.get(key) is None:
        return default
    return _get_float(section, key)


def _load_mode(device: configparser.SectionProxy, label: str) -> Mode:
    omega = TWO_PI * _get_float(device, f"{label}_frequency_hz")
    q_keys = (f"{label}_q_i", f"{label}_q_ex")
    kappa_keys = (f"{label}_kappa_i_hz", f"{label}_kappa_ex_hz")
    has_q = any(device.get(k) is not None for k in q_keys)
    has_kappa = any(device.get(k) is not None for k in kappa_keys)
    if has_q and has_kappa:
        raise ConfigError(
            f"[device] mode {label}: give either {q_keys} or {kappa_keys}, not both"
        )
    if has_q:
        kappa_i = q_to_kappa(omega, _get_float(device, q_keys[0]))
        kappa_ex = q_to_kappa(omega, _get_float(device, q_keys[1]))
    elif has_kappa:
        kappa_i = TWO_PI * _get_float(device, kappa_keys[0])
        kappa_ex = TWO_PI * _get_float(device, kappa_keys[1])
    else:
        raise ConfigError(f"[device] mode {label}: no loss rates given")
    return Mode(label=label, omega=omega, kappa_i=kappa_i, kappa_ex=kappa_ex)


def _parse_scheme(raw: str) -> Scheme:
    try:
        return Scheme(raw.strip().lower())
    except ValueError:
        raise ConfigError(f"scheme must be 'red' or 'blue', got {raw!r}") from None


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises :class:`xduce.errors.ConfigError` with section/field (and for
    syntax errors line) diagnostics on any problem.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for name in parser.sections():
        if name not in _FIELDS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - _FIELDS[name])
        if unknown:
            raise ConfigError(f"[{name}] unknown field(s): {', '.join(unknown)}")

    if "device" not in parser:
        raise ConfigError("missing [device] section")
    device = parser["device"]
    section = "device"  # the section being built, named in value-type rejections
    try:
        mode_a = _load_mode(device, "a")
        mode_b = _load_mode(device, "b")
        mode_p = _load_mode(device, "p")
        g_eo = TWO_PI * _get_float(device, "g_eo_hz")
        transducer = TransducerConfig(mode_a=mode_a, mode_b=mode_b, mode_p=mode_p, g_eo=g_eo)

        section = "drive"
        drive_section = parser["drive"] if "drive" in parser else None
        power = _get_float_opt(drive_section, "power_w", 0.0)
        detuning = TWO_PI * _get_float_opt(drive_section, "detuning_hz", 0.0)
        scheme = Scheme.RED
        if drive_section is not None and drive_section.get("scheme") is not None:
            scheme = _parse_scheme(drive_section.get("scheme"))
        drive = DriveCondition(pump_power=power, pump_detuning=detuning, scheme=scheme)

        herald = None
        if "herald" in parser:
            section = "herald"
            hsec = parser["herald"]
            mapping = (hsec.get("r0_mapping") or "direct").strip().lower()
            r0_value = None
            if hsec.get("r0_per_s") is not None:
                r0_value = _get_float(hsec, "r0_per_s")
            # sweep infidelity columns always use the blue heralding model;
            # the drive scheme only selects which breakdown `herald` prints
            herald = HeraldOptions(
                dt=_get_float(hsec, "dt_s"),
                r0_mapping=mapping,
                r0_value=r0_value,
            )

        sweep = None
        if "sweep" in parser:
            section = "sweep"
            ssec = parser["sweep"]
            points_raw = ssec.get("power_points")
            points = None
            if points_raw is not None:
                try:
                    points = int(points_raw)
                except ValueError:
                    raise ConfigError(
                        f"[sweep] field 'power_points': not an integer: {points_raw!r}"
                    ) from None
            axis = PowerAxis(
                min_w=_get_float(ssec, "power_min_w"),
                max_w=_get_float(ssec, "power_max_w"),
                points=points,
                spacing=(ssec.get("power_spacing") or "log").strip().lower(),
            )
            q_raw = ssec.get("q_values")
            if q_raw is None:
                raise ConfigError("[sweep] is missing required field 'q_values'")
            try:
                q_axis = tuple(float(tok) for tok in q_raw.split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"[sweep] field 'q_values': bad list: {q_raw!r}") from None
            outputs_raw = ssec.get("outputs") or "efficiency,cooperativity"
            outputs = tuple(tok.strip() for tok in outputs_raw.split(",") if tok.strip())
            sweep = SweepSpec(
                config=transducer,
                power_axis=axis,
                q_axis=q_axis,
                outputs=outputs,
                herald_options=herald,
                pump_detuning=detuning,
            )

        osec = parser["output"] if "output" in parser else None
        out_format = "csv"
        table_path = None
        plot_path = None
        seed = 0
        if osec is not None:
            out_format = (osec.get("format") or "csv").strip().lower()
            if out_format not in ("csv", "jsonl"):
                raise ConfigError(f"[output] format must be csv or jsonl, got {out_format!r}")
            table_path = osec.get("table")
            plot_path = osec.get("plot")
            if osec.get("seed") is not None:
                try:
                    seed = int(osec.get("seed"))
                except ValueError:
                    raise ConfigError(
                        f"[output] field 'seed': not an integer: {osec.get('seed')!r}"
                    ) from None
                if seed < 0:
                    raise ConfigError(f"[output] field 'seed': must be non-negative, got {seed}")
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        # a value type rejected a field: its message names the quantity, the
        # prefix names the section
        raise ConfigError(f"[{section}] {exc}") from exc

    return RunConfig(
        transducer=transducer,
        drive=drive,
        herald=herald,
        sweep=sweep,
        out_format=out_format,
        table_path=table_path,
        plot_path=plot_path,
        seed=seed,
    )


def dump_normalized(run: RunConfig) -> str:
    """Human-readable echo of the rad/s values the loader produced."""
    values = {"device.g_eo_rad_s": run.transducer.g_eo,
              "drive.detuning_rad_s": run.drive.pump_detuning}
    for mode in (run.transducer.mode_a, run.transducer.mode_b, run.transducer.mode_p):
        values[f"device.{mode.label}_omega_rad_s"] = mode.omega
        values[f"device.{mode.label}_kappa_i_rad_s"] = mode.kappa_i
        values[f"device.{mode.label}_kappa_ex_rad_s"] = mode.kappa_ex
    return "\n".join(f"{key} = {value!r}" for key, value in sorted(values.items()))
