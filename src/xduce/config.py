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

from .core import (TWO_PI, DriveCondition, Mode, Scheme, TransducerConfig, _Frozen,
                   _require_non_negative, q_to_kappa)
from .errors import ConfigError
from .sweep import HeraldOptions, PowerAxis, SweepSpec


def _words(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# The kinds of value a field holds: how a rejection names the kind, and the
# parser, which raises ValueError on a value that is not of the kind.
_NUMBER = ("a number", float)
# HeraldOptions calls the herald rate r0_value, so the file's key is checked here
_NON_NEGATIVE = ("a non-negative number", lambda raw: _require_non_negative(raw, "r0_per_s"))
_INTEGER = ("an integer", int)
_WORD = ("a word", lambda raw: raw.strip().lower())
_WORDS = ("a word list", lambda raw: _words(raw.lower()))
_NUMBERS = ("a number list", lambda raw: tuple(map(float, _words(raw))))
_TEXT = ("text", str)

# The schema: each section's fields and their kinds; a field outside it is
# rejected at load. A third entry is the text an empty or missing value reads
# as; load_config gives the other fields' defaults for a missing value.
_MODE_FIELDS = ("frequency_hz", "q_i", "q_ex", "kappa_i_hz", "kappa_ex_hz")
_SCHEMA = {
    "device": {**{f"{label}_{field}": _NUMBER for label in "abp" for field in _MODE_FIELDS},
               "g_eo_hz": _NUMBER},
    "drive": {"power_w": _NUMBER, "detuning_hz": _NUMBER, "scheme": _WORD},
    "herald": {"dt_s": _NUMBER, "r0_mapping": (*_WORD, "direct"), "r0_per_s": _NON_NEGATIVE},
    "sweep": {"power_min_w": _NUMBER, "power_max_w": _NUMBER, "power_points": _INTEGER,
              "power_spacing": (*_WORD, "log"), "q_values": _NUMBERS,
              "outputs": (*_WORDS, "efficiency,cooperativity")},
    "output": {"format": (*_WORD, "csv"), "table": _TEXT, "plot": _TEXT, "seed": _INTEGER},
}


class RunConfig(_Frozen):
    """Everything a CLI subcommand needs, already normalized to rad/s."""

    transducer: TransducerConfig
    drive: DriveCondition
    herald: HeraldOptions | None
    sweep: SweepSpec | None
    out_format: str
    table_path: str | None
    plot_path: str | None
    seed: int


class _Fields(dict):
    """One section's parsed values, by field; reading a missing one rejects it
    as a required field."""

    section = ""

    def __missing__(self, key: str):
        raise ConfigError(f"[{self.section}] is missing required field '{key}'")


def _read(parser: configparser.ConfigParser, name: str) -> _Fields:
    """Section ``name``'s fields, each parsed by its kind in ``_SCHEMA``; an
    absent section has none but the defaults."""
    fields = _Fields()
    fields.section = name
    try:
        present = dict(parser.items(name)) if name in parser else {}
    except configparser.InterpolationError as exc:
        raise ConfigError(f"[{name}] field '{exc.option}': {exc.message}") from None
    for key, (kind, parse, *default) in _SCHEMA[name].items():
        raw = present.get(key)
        if default and not raw:
            raw = default[0]
        if raw is not None:
            try:
                fields[key] = parse(raw)
            except ValueError:
                raise ConfigError(f"[{name}] field '{key}': not {kind}: {raw!r}") from None
    return fields


def _build(section: str, make, *args):
    """``make(*args)``, a value type or a conversion into one; its rejection
    of a value names the quantity, and this prefix names the section."""
    try:
        return make(*args)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _load_mode(device: _Fields, label: str) -> Mode:
    omega = TWO_PI * device[f"{label}_frequency_hz"]
    q_keys = (f"{label}_q_i", f"{label}_q_ex")
    kappa_keys = (f"{label}_kappa_i_hz", f"{label}_kappa_ex_hz")
    has_q = any(k in device for k in q_keys)
    has_kappa = any(k in device for k in kappa_keys)
    if has_q and has_kappa:
        raise ConfigError(f"[device] mode {label}: give either {q_keys} or {kappa_keys}, not both")
    if has_q:
        kappas = [_build("device", q_to_kappa, omega, device[k]) for k in q_keys]
    elif has_kappa:
        kappas = [TWO_PI * device[k] for k in kappa_keys]
    else:
        raise ConfigError(f"[device] mode {label}: no loss rates given")
    return _build("device", Mode, label, omega, *kappas)


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises :class:`xduce.errors.ConfigError` with section/field (and for
    syntax errors line) diagnostics on any problem.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:  # a syntax error, or not UTF-8
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - _SCHEMA[name].keys())
        if unknown:
            raise ConfigError(f"[{name}] unknown field(s): {', '.join(unknown)}")
    if "device" not in parser:
        raise ConfigError("missing [device] section")

    device = _read(parser, "device")
    modes = [_load_mode(device, label) for label in "abp"]
    transducer = _build("device", TransducerConfig, *modes, TWO_PI * device["g_eo_hz"])

    fields = _read(parser, "drive")
    scheme = fields.get("scheme", "red")
    if scheme not in ("red", "blue"):
        raise ConfigError(f"[drive] scheme must be 'red' or 'blue', got {scheme!r}")
    detuning = TWO_PI * fields.get("detuning_hz", 0.0)
    drive = _build("drive", DriveCondition, fields.get("power_w", 0.0), detuning, Scheme(scheme))

    herald = None
    if "herald" in parser:
        # sweep infidelity columns always use the blue heralding model;
        # the drive scheme only selects which breakdown `herald` prints
        fields = _read(parser, "herald")
        herald = _build("herald", HeraldOptions, fields["dt_s"], fields["r0_mapping"],
                        fields.get("r0_per_s"))

    sweep = None
    if "sweep" in parser:
        fields = _read(parser, "sweep")
        axis = _build("sweep", PowerAxis, fields["power_min_w"], fields["power_max_w"],
                      fields.get("power_points"), fields["power_spacing"])
        sweep = _build("sweep", SweepSpec, transducer, axis, fields["q_values"],
                       fields["outputs"], herald, detuning)

    output = _read(parser, "output")
    if output["format"] not in ("csv", "jsonl"):
        raise ConfigError(f"[output] format must be csv or jsonl, got {output['format']!r}")
    seed = output.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"[output] field 'seed': must be non-negative, got {seed}")
    return RunConfig(transducer, drive, herald, sweep, output["format"], output.get("table"),
                     output.get("plot"), seed)


def dump_normalized(run: RunConfig) -> str:
    """Human-readable echo of the rad/s values the loader produced."""
    values = {"device.g_eo_rad_s": run.transducer.g_eo,
              "drive.detuning_rad_s": run.drive.pump_detuning}
    for mode in (run.transducer.mode_a, run.transducer.mode_b, run.transducer.mode_p):
        values[f"device.{mode.label}_omega_rad_s"] = mode.omega
        values[f"device.{mode.label}_kappa_i_rad_s"] = mode.kappa_i
        values[f"device.{mode.label}_kappa_ex_rad_s"] = mode.kappa_ex
    return "\n".join(f"{key} = {value!r}" for key, value in sorted(values.items()))
