"""The workloads, their operations and the output checks.

Each workload is a closed loop in one process: one client issues an
operation, waits for it, checks its output, then issues the next. The
operations come in families (cold CLI calls, set-up starts, sweep tables,
optimum searches, design checks, MC calls); each family is a generator
that yields after every step. Every run reports every end-to-end metric,
so every workload steps every family; ``run_window`` shares the window's
time among them by fixed shares, always stepping the family furthest
behind, so each series samples the whole window. A workload is its
inputs plus its shares. See ``LAYERS.md``.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import traceback
from collections import defaultdict
from collections.abc import Iterator
from functools import partial
from pathlib import Path
from time import perf_counter

import inputs
from inputs import SWEEP_HEADER, Design

BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60.0
UNTRACED_CLI = "from xduce.cli import main; main()"
SETUP_CODE = "import xduce, xduce.cli, xduce.config"
# In a traced run every k-th operation of a kind is traced (the first one
# always), the rest run untraced so the two can be compared.
TRACE_EVERY = {"oracle.design_check": 8}
RED_CHECK_RTOL = 1e-9
THRESHOLD_RTOL = 1e-9
MC_SIGMAS = 6.0
OPTIMUM_RTOL = 1e-6


class Run:
    """Counters, samples and the optional tracer of one benchmark run."""

    def __init__(self, root: Path, work: Path, tracer=None) -> None:
        self.root = root
        self.work = work
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        # op kind -> ([untraced], [traced]) seconds per unit of op size
        self.op_seconds: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
        # output kind -> [bytes, rows], for the traced run's per-row sizes
        self.output_bytes: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._ops_started: dict[str, int] = defaultdict(int)
        self._files = 0

    def reset_series(self) -> None:
        """Drop the timings and spans so far (checks and counts stay), after
        warm-up; the next operation of each kind is traced."""
        self.samples.clear()
        self.op_seconds.clear()
        self.output_bytes.clear()
        self._ops_started.clear()
        if self.tracer is not None:
            self.tracer.spans.clear()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)

    def rate(self, series: str, units: int, seconds: float) -> None:
        """Record one operation's throughput."""
        self.samples[series].append(units / seconds)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def op(self, kind: str, size: int = 1) -> "Op":
        """A timed operation; ``size`` (rows, trials) normalizes its time
        when traced and untraced operations are compared."""
        index = self._ops_started[kind]
        self._ops_started[kind] += 1
        traced = self.tracer is not None and index % TRACE_EVERY.get(kind, 2) == 0
        return Op(self, kind, traced, size)

    def path(self, suffix: str) -> Path:
        self._files += 1
        return self.work / f"f{self._files}{suffix}"

    def write_ini(self, text: str) -> Path:
        path = self.path(".ini")
        path.write_text(text, encoding="utf-8")
        return path


class Op:
    """One timed operation. An exception inside counts as a failed op and
    is reported with its traceback; ``ok`` says whether it completed."""

    def __init__(self, run: Run, kind: str, traced: bool, size: int) -> None:
        self.run = run
        self.kind = kind
        self.traced = traced
        self.size = size
        self.ok = False
        self.seconds = math.nan

    def __enter__(self) -> "Op":
        self.run.attempted += 1
        if self.traced:
            self.run.tracer.install()
            self.run.tracer.begin_op(self.kind)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = perf_counter() - self._t0
        if self.traced:
            self.run.tracer.end_op()
            self.run.tracer.uninstall()
        if exc_type is None:
            self.ok = True
            self.run.op_seconds[self.kind][self.traced].append(self.seconds / self.size)
            return False
        if issubclass(exc_type, Exception):
            self.run.fail(f"{self.kind}: {exc_type.__name__}: {exc}")
            traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
            return True
        return False


# -- checks on outputs -------------------------------------------------------

def parse_record(text: str, fmt: str) -> dict:
    """One CLI record, as the efficiency and herald subcommands print it."""
    if fmt == "jsonl":
        return json.loads(text)
    header, values = text.strip().split("\n")
    return dict(zip(header.split(","), values.split(","), strict=True))


def _floats(record: dict, keys) -> bool:
    try:
        return all(math.isfinite(float(record[key])) for key in keys)
    except (KeyError, TypeError, ValueError):
        return False


def _read(run: Run, path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        run.check(False, f"output {path.name} unreadable: {exc}")
        return None


def check_table(run: Run, path: Path, fmt: str, rows: int) -> None:
    text = _read(run, path)
    if text is None:
        return
    lines = text.splitlines() or [""]
    columns = SWEEP_HEADER.split(",")
    if fmt == "csv":
        ok = (lines[0] == SWEEP_HEADER and len(lines) == rows + 1
              and all(line.count(",") == 6 for line in lines[1:])
              and all(_floats(dict(zip(columns, line.split(","))), columns)
                      for line in (lines[1], lines[-1])))
    else:
        ok = (len(lines) == rows
              and all(_floats(json.loads(line), columns) for line in (lines[0], lines[-1])))
    run.check(ok, f"sweep table {path.name} ({fmt}, {rows} rows expected)")
    if run.tracer is not None:
        run.output_bytes["table"][0] += len(text)
        run.output_bytes["table"][1] += rows


def check_svg(run: Run, path: Path, rows: int) -> None:
    text = _read(run, path)
    if text is None:
        return
    run.check(text.startswith("<svg") and text.rstrip().endswith("</svg>") and "<path" in text,
              f"sweep plot {path.name} is not a complete SVG")
    if run.tracer is not None:
        run.output_bytes["svg"][0] += len(text)
        run.output_bytes["svg"][1] += rows


def check_golden(run: Run) -> None:
    """The shipped device at 6 powers must reproduce the golden CSV byte for byte."""
    from xduce.cli import run_cli

    table = run.path(".csv")
    ini = run.write_ini(inputs.golden_ini_text(run.root, table))
    golden = (run.root / "tests" / "data" / "golden_sweep.csv").read_bytes()
    with run.op("check.golden") as op:
        code = run_cli(["sweep", "--config", str(ini)])
    if op.ok:
        run.check(code == 0 and table.is_file() and table.read_bytes() == golden,
                  "golden sweep CSV differs from tests/data/golden_sweep.csv")


# -- CLI calls ---------------------------------------------------------------

CLI_SUBCOMMANDS = ("efficiency", "sweep", "herald", "verify")
EFFICIENCY_KEYS = ("n_p", "cooperativity", "eta_internal", "eta", "extraction_a", "extraction_b")
HERALD_KEYS = ("mu", "p0", "p11", "infidelity")
MC_KEYS = ("mc_samples", "mc_infidelity", "mc_standard_error", "mc_gap_sigma")
CLI_MC_TRIALS = 1_000_000  # one sampler block, the most a cold call draws
# In-process MC calls are one block each too: short calls give a run
# many samples to take a percentile of (LAYERS.md, Noise).
MC_TRIALS = 1_000_000


def cli_call(run: Run, sub: str, argv: list[str]) -> subprocess.CompletedProcess | None:
    """One fresh CLI process; returns it when it exited 0."""
    with run.op("cli." + sub) as op:
        if op.traced:
            spans = run.path(".json")
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", UNTRACED_CLI, *argv]
        proc = subprocess.run(cmd, env=run.env, cwd=run.work, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if op.traced and spans.exists():
            run.tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    if not op.ok:
        return None
    run.samples["cli." + sub].append(op.seconds)
    return proc


def cli_op(run: Run, rng: random.Random, base: dict, sub: str, variant: int) -> None:
    """One CLI call on freshly generated inputs, and the checks of its output.

    ``herald`` cycles through blue with ``--mc``, red, and blue without."""
    if sub == "herald":
        scheme = ("blue", "red", "blue")[variant % 3]
    else:
        scheme = rng.choice(("red", "blue"))
    design = inputs.draw_design(rng, base, scheme)
    fmt = rng.choice(("csv", "jsonl"))
    seed = rng.randrange(2**31)
    if sub == "sweep":
        grid = inputs.draw_grid(rng, design, points=16, n_q=rng.randint(2, 3))
        table, svg = run.path("." + fmt), run.path(".svg")
        ini = run.write_ini(inputs.ini_text(design, grid, fmt, seed, table))
        if cli_call(run, sub, ["sweep", "--config", str(ini), "--format", fmt,
                               "--plot", str(svg)]) is not None:
            check_table(run, table, fmt, grid.rows)
            check_svg(run, svg, grid.rows)
        return
    ini = run.write_ini(inputs.ini_text(design, None, fmt, seed))
    argv = [sub, "--config", str(ini)]
    mc = sub == "herald" and variant % 3 == 0
    if mc:
        argv += ["--mc", str(CLI_MC_TRIALS), "--seed", str(rng.randrange(2**31))]
    proc = cli_call(run, sub, argv)
    if proc is None:
        return
    if sub == "verify":
        run.check("verification passed" in proc.stdout, f"verify did not pass: {ini.name}")
        return
    try:
        record = parse_record(proc.stdout, fmt)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        run.check(False, f"{sub} stdout does not parse ({exc}): {proc.stdout[:200]!r}")
        return
    if sub == "efficiency":
        run.check(_floats(record, EFFICIENCY_KEYS), f"efficiency record {record}")
        return
    ok = record.get("scheme") == scheme and _floats(record, HERALD_KEYS)
    if mc:
        ok = ok and _floats(record, MC_KEYS) and int(float(record["mc_samples"])) == CLI_MC_TRIALS
    run.check(ok, f"herald record {record}")


def cli_ops(run: Run, rng: random.Random, base: dict) -> Iterator[None]:
    """Rounds of efficiency, sweep --plot, herald and verify, one fresh
    process each, one at a time; yields after each call."""
    for round_index in itertools.count():
        for sub in CLI_SUBCOMMANDS:
            cli_op(run, rng, base, sub, round_index)
            yield


# -- sweep tables and optimum ----------------------------------------------

def table_ops(run: Run, rng: random.Random, base: dict, points: int,
              n_q: int) -> Iterator[None]:
    """Passes of a CSV table + SVG and then a JSONL table, each through
    ``run_cli(["sweep", ...])``, on a fresh config per pass; yields after
    each table."""
    from xduce import cli

    while True:
        design = inputs.draw_design(rng, base, rng.choice(("red", "blue")))
        grid = inputs.draw_grid(rng, design, points, n_q)
        seed = rng.randrange(2**31)
        for fmt in ("csv", "jsonl"):
            gc.collect()  # each table starts from the same heap, for steadier time and RSS
            table = run.path("." + fmt)
            svg = run.path(".svg") if fmt == "csv" else None
            ini = run.write_ini(inputs.ini_text(design, grid, "csv", seed, table))
            argv = ["sweep", "--config", str(ini), "--format", fmt]
            if svg is not None:
                argv += ["--plot", str(svg)]
            with run.op("sweep." + fmt, grid.rows) as op:
                code = cli.run_cli(argv)
                if code != 0:
                    raise RuntimeError(f"run_cli sweep ({fmt}) returned {code}")
            if op.ok:
                run.rate(f"sweep.{fmt}_rows_per_s", grid.rows, op.seconds)
                check_table(run, table, fmt, grid.rows)
                if svg is not None:
                    check_svg(run, svg, grid.rows)
            for path in (table, svg, ini):
                if path is not None:
                    path.unlink(missing_ok=True)
            yield


def optimum_ops(run: Run, rng: random.Random, base: dict, per_step: int) -> Iterator[None]:
    """maximize_efficiency at ``per_step`` Q values of a fresh design,
    bracketing the critical power; yields after each group."""
    from xduce import core, sweep

    while True:
        device = build_transducer(inputs.draw_design(rng, base, rng.choice(("red", "blue"))))
        for _ in range(per_step):
            q = inputs.log_uniform(rng, *inputs.Q_RANGE)
            cfg = sweep.retune_microwave_q(device, q)
            p_c = core.critical_pump_power(cfg)
            with run.op("sweep.optimum") as op:
                p_opt, eta_opt = sweep.maximize_efficiency(cfg, (p_c * 1e-3, p_c * 1e3))
            if op.ok:
                run.samples["sweep.optimum_ms"].append(op.seconds * 1e3)
                run.check(abs(p_opt / p_c - 1.0) <= OPTIMUM_RTOL and 0.0 < eta_opt <= 1.0,
                          f"optimum at Q = {q:g}: P = {p_opt!r}, P_c = {p_c!r}, "
                          f"eta = {eta_opt!r}")
        yield


# -- design checks and MC ---------------------------------------------------

def build_transducer(design: Design):
    from xduce.core import Mode, TransducerConfig

    dev = design.device
    modes = {
        label: Mode(label, inputs.TWO_PI * dev[f"{label}_frequency_hz"],
                    inputs.TWO_PI * dev[f"{label}_kappa_i_hz"],
                    inputs.TWO_PI * dev[f"{label}_kappa_ex_hz"])
        for label in "abp"
    }
    return TransducerConfig(mode_a=modes["a"], mode_b=modes["b"], mode_p=modes["p"],
                            g_eo=inputs.TWO_PI * dev["g_eo_hz"])


def design_check(cfg, design: Design):
    """Closed-form point, linearization, red and blue spectra, threshold,
    herald breakdowns. Returns what the output checks need."""
    from xduce import core, herald, scattering
    from xduce.core import DriveCondition, Scheme

    power = design.power_frac * core.critical_pump_power(cfg)
    n_p = core.intracavity_photon_number(cfg.mode_p, DriveCondition(pump_power=power))
    eta = core.conversion_efficiency(cfg, n_p).eta
    red = scattering.build_linearized(cfg, n_p, Scheme.RED)
    blue = scattering.build_linearized(cfg, n_p, Scheme.BLUE)
    red_points = scattering.conversion_spectrum(red, design.probe_offsets)
    scattering.conversion_spectrum(blue, design.probe_offsets)
    threshold = scattering.parametric_threshold(blue)
    herald.blue_breakdown(herald.HeraldModel(design.r0_per_s, design.dt_s, Scheme.BLUE))
    herald.red_breakdown(herald.HeraldModel(design.r0_per_s, design.dt_s, Scheme.RED))
    herald.storage_loss_infidelity(cfg.mode_b.kappa_i, design.dt_s)
    return eta, red_points[0].conversion, threshold


def mc_call(run: Run, mu: float, samples: int, seed: int, repeat: bool = False) -> None:
    from xduce import herald
    from xduce.core import Scheme

    model = herald.HeraldModel(r0=mu / 1e-3, dt=1e-3, scheme=Scheme.BLUE)
    with run.op("oracle.mc", samples) as op:
        estimate = herald.mc_blue_infidelity(model, samples=samples, seed=seed)
    if not op.ok:
        return
    run.rate("oracle.mc_trials_per_s", samples, op.seconds)
    # exact error probability of the sampled event: not (both <= 1 and not both 1)
    p0 = math.exp(-model.mu)
    exact = 1.0 - p0 * p0 * (1.0 + 2.0 * model.mu)
    sigma = math.sqrt(exact * (1.0 - exact) / samples)
    run.check(estimate.samples == samples and estimate.seed == seed
              and abs(estimate.infidelity_mean - exact) <= MC_SIGMAS * sigma + 1e-12,
              f"MC mu = {model.mu!r}: {estimate} against exact {exact!r}")
    if repeat:
        again = herald.mc_blue_infidelity(model, samples=samples, seed=seed)
        run.check(again == estimate, f"MC repeat with seed {seed} differs: {again} != {estimate}")


def design_check_ops(run: Run, rng: random.Random, base: dict,
                     per_step: int) -> Iterator[None]:
    """Design checks over a pool of generated designs, ``per_step`` of them
    between yields."""
    # blue placement (C < 1) so both the red and the blue spectrum exist
    designs = [inputs.draw_design(rng, base, "blue") for _ in range(256)]
    configs = [build_transducer(d) for d in designs]
    for index in itertools.count(0, per_step):
        for i in (j % len(designs) for j in range(index, index + per_step)):
            with run.op("oracle.design_check") as op:
                eta, red_conversion, threshold = design_check(configs[i], designs[i])
            if not op.ok:
                continue
            run.samples["oracle.design_check_us"].append(op.seconds * 1e6)
            run.check(abs(red_conversion - eta) <= RED_CHECK_RTOL * eta
                      and abs(threshold - 1.0) <= THRESHOLD_RTOL,
                      f"design {i}: red conversion {red_conversion!r} vs eta {eta!r}, "
                      f"blue threshold C = {threshold!r}")
        yield


def mc_ops(run: Run, rng: random.Random, base: dict) -> Iterator[None]:
    """One MC call of ``MC_TRIALS`` per step over mu in ``MU_RANGE``; the
    first is repeated with the same (seed, samples) and must give the same
    estimate."""
    for step in itertools.count():
        mu = inputs.log_uniform(rng, *inputs.MU_RANGE)
        mc_call(run, mu, MC_TRIALS, rng.randrange(2**31), repeat=step == 0)
        yield


def setup_ops(run: Run, rng: random.Random, base: dict) -> Iterator[None]:
    """Fresh interpreter to ``import xduce, xduce.cli, xduce.config`` done,
    one start per step."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    while True:
        with run.op("setup") as op:
            subprocess.run(cmd, env=run.env, cwd=run.work, capture_output=True,
                           timeout=CHILD_TIMEOUT_S, check=True)
        if op.ok:
            run.samples["setup"].append(op.seconds)
        yield


# Every run reports every end-to-end metric, so every workload runs every
# family of operations; what sets a workload apart is its inputs and the
# share of the window each family gets (see LAYERS.md).
# name -> {family: (steps, share of the window's time)}
WORKLOADS = {
    "cli-cold": {
        "cli": (cli_ops, 0.36),
        "setup": (setup_ops, 0.34),
        "sweep.table": (partial(table_ops, points=400, n_q=10), 0.12),
        "sweep.optimum": (partial(optimum_ops, per_step=5), 0.06),
        "oracle.design_check": (partial(design_check_ops, per_step=50), 0.06),
        "oracle.mc": (mc_ops, 0.06),
    },
    "sweep-large": {
        "sweep.table": (partial(table_ops, points=2000, n_q=10), 0.56),
        "cli": (cli_ops, 0.10),
        "setup": (setup_ops, 0.18),
        "sweep.optimum": (partial(optimum_ops, per_step=5), 0.05),
        "oracle.design_check": (partial(design_check_ops, per_step=50), 0.05),
        "oracle.mc": (mc_ops, 0.06),
    },
}


def run_window(run: Run, families: dict[str, tuple[Iterator[None], float]],
               seconds: float) -> dict[str, float]:
    """Warm up with one untimed step of each family, then step the
    families for ``seconds``, always the one furthest behind its share of
    the time so far, so that every family samples the whole window.
    Returns the seconds each family took."""
    for steps, _ in families.values():
        next(steps)
    run.reset_series()
    used = dict.fromkeys(families, 0.0)
    start = perf_counter()
    while perf_counter() - start < seconds:
        name = min(families, key=lambda f: used[f] / families[f][1])
        t0 = perf_counter()
        next(families[name][0])
        used[name] += perf_counter() - t0
    return used
