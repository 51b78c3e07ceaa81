"""xduce benchmark: one seeded workload, timed end to end or per layer.

Usage (from the repository root):

    python3 bench/run.py --workload cli-cold|sweep-large \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and the tracing overhead. Either way the run checks
every output, prints a details line (provenance, and median, quartiles,
p90 and sample count of every series) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Results and
spans are also written under ``bench/_out/``. ``LAYERS.md`` documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/xduce/__init__.py", "configs/device.ini", "tests/data/golden_sweep.csv")
IMPORTTIME_REPS = 3

# name -> (unit, series, percentile of the samples). Throughput series hold
# one rate per operation. The shared machine switches between a calm and a
# contended state, and how much of a run each takes changes from run to
# run; the contended state is in every run, the calm one is not. So each
# operation is read where the contended state sets it, at the time 90% of
# the operations beat (p90 of times, p10 of rates), and not at a median,
# which moves with the mix (LAYERS.md, Noise). Set-up is read at its median.
CLI_SERIES = ("cli.efficiency", "cli.sweep", "cli.herald", "cli.verify")
END_TO_END = {
    "setup_s": ("s", ("setup",), 50),
    "sweep_csv_p10_rows_per_s": ("rows/s", ("sweep.csv_rows_per_s",), 10),
    "sweep_jsonl_p10_rows_per_s": ("rows/s", ("sweep.jsonl_rows_per_s",), 10),
    "optimum_p90_ms": ("ms", ("sweep.optimum_ms",), 90),
    "design_check_p90_us": ("us", ("oracle.design_check_us",), 90),
    "mc_p10_trials_per_s": ("trials/s", ("oracle.mc_trials_per_s",), 10),
}


class MissingSamples(Exception):
    pass


def percentile(values: list[float], p: int) -> float:
    if not values:
        raise MissingSamples
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(values: list[float]) -> dict:
    out = {"n": len(values), "mean": statistics.fmean(values), "min": min(values)}
    out.update((f"p{p}", percentile(values, p)) for p in (1, 5, 10, 25, 50, 75, 90, 95, 99))
    out["max"] = max(values)
    return out


# -- provenance and set-up -----------------------------------------------------

def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_probe_ms() -> float:
    """Median wall time of a fixed pure-Python loop: how fast the machine
    ran plain Python at that moment. Recorded to read noise by; no metric
    uses it."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xduce").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
        "machine_probe_ms_start": machine_probe_ms(),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost xduce, numpy and scipy imports."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {}
    for package in ("xduce", "numpy", "scipy"):
        total, stack = 0, []  # pre-order walk: parents come after children
        for depth, cumulative, name in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = any(matched for _, matched in stack)
            matches = name == package or name.startswith(package + ".")
            if matches and not inside:
                total += cumulative
            stack.append((depth, matches or inside))
        totals[package] = total / 1e6
    return totals


def import_breakdown(run: workloads.Run) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPS):
        run.attempted += 1
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import xduce.cli"],
                                  env=run.env, cwd=run.work, capture_output=True, text=True,
                                  timeout=120, check=True)
        except (OSError, subprocess.SubprocessError) as exc:
            run.fail(f"-X importtime: {exc}")
            continue
        runs.append(parse_importtime(proc.stderr))
    if not run.check(bool(runs) and all(r["xduce"] > 0 for r in runs),
                     "-X importtime saw no xduce import"):
        raise MissingSamples("no import breakdown")
    return {f"import.{key}_s": statistics.median(r[package] for r in runs)
            for key, package in (("total", "xduce"), ("numpy", "numpy"), ("scipy", "scipy"))}


# -- metrics -------------------------------------------------------------------

def end_to_end(run: workloads.Run, peak_rss_mb: float) -> dict:
    metrics = {}
    for name, (unit, series, p) in END_TO_END.items():
        values = [v for s in series for v in run.samples[s]]
        if not values:
            raise MissingSamples(f"no samples for {name}")
        metrics[name] = {"value": percentile(values, p), "unit": unit}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics


def per_layer(run: workloads.Run, imports: dict) -> dict:
    """Per-layer metrics from the traced spans; see LAYERS.md for each."""
    spans = run.tracer.spans
    totals = run.tracer.totals()  # name -> [calls, total ns, self ns, summed n]

    def total(names, i: int) -> int:
        return sum(totals[n][i] for n in names if n in totals)

    def per(numerator: float, denominator: float, what: str) -> float:
        if denominator <= 0:
            raise MissingSamples(f"no traced calls for {what}")
        return numerator / denominator

    def us_per_call(*names: str) -> float:
        return per(total(names, 1) / 1e3, total(names, 0), names[0])

    def us_per_n(*names: str) -> float:
        return per(total(names, 1) / 1e3, total(names, 3), names[0])

    rows_under = {s[2]: s[7] for s in spans if s[3] == "sweep.run_sweep"}

    def table_us_per_row(fmt: str) -> float:
        own = [s for s in spans if s[3] == "cli.run_cli.sweep." + fmt]
        return per(sum(s[6] for s in own) / 1e3, sum(rows_under.get(s[0], 0) for s in own),
                   "cli.table_" + fmt)

    mc = ("herald.mc_blue_infidelity",)
    point = ("core.intracavity_photon_number", "core.conversion_efficiency")
    values = {
        **{name: (v, "s") for name, v in imports.items()},
        "config.load_config_us": (us_per_call("config.load_config"), "us"),
        "core.point_us": (per(total(point, 1) / 1e3, total(point[1:], 0), "core.point"), "us"),
        "core.critical_pump_power_us": (us_per_call("core.critical_pump_power"), "us"),
        # n is 1 per scattering_at call and the probe count per spectrum
        "scattering.red_point_us": (us_per_n("scattering.scattering_at.red",
                                             "scattering.conversion_spectrum.red"), "us"),
        "scattering.blue_point_us": (us_per_n("scattering.scattering_at.blue",
                                              "scattering.conversion_spectrum.blue"), "us"),
        "scattering.threshold_us": (us_per_call("scattering.parametric_threshold"), "us"),
        "herald.breakdown_us": (us_per_call("herald.blue_breakdown", "herald.red_breakdown"),
                                "us"),
        # the sampler draws in blocks of one million trials
        "herald.mc_block_ms": (per(total(mc, 1) / 1e6, total(mc, 3) / 1e6, mc[0]), "ms"),
        "herald.mc_trials": (total(mc, 3), "count"),
        "sweep.run_sweep_us_per_row": (us_per_n("sweep.run_sweep"), "us"),
        "sweep.rows": (total(("sweep.run_sweep",), 3), "count"),
        "sweep.optimum_ms": (us_per_call("sweep.maximize_efficiency") / 1e3, "ms"),
        "cli.table_csv_us_per_row": (table_us_per_row("csv"), "us"),
        "cli.table_jsonl_us_per_row": (table_us_per_row("jsonl"), "us"),
        "cli.table_bytes": (per(*run.output_bytes["table"], "cli.table_bytes"), "B/row"),
        "svgplot.render_us_per_row": (us_per_n("svgplot.render_sweep_svg"), "us"),
        "svgplot.bytes": (per(*run.output_bytes["svg"], "svgplot.bytes"), "B/row"),
    }
    overheads = [statistics.median(traced) / statistics.median(plain)
                 for plain, traced in run.op_seconds.values() if plain and traced]
    if not overheads:
        raise MissingSamples("no traced and untraced operations to compare")
    values["trace.overhead_ratio"] = (statistics.median(overheads), "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# -- main ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and waits for a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an xduce checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = BENCH / "_out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(ROOT, work, Tracer() if args.trace else None)
        try:
            details, metrics = measure(args, run)
        except MissingSamples as exc:
            print(f"benchmark incomplete: {exc}", file=sys.stderr)
            return 1
        result = {"correct": run.failed == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            run.tracer.write_csv(out / f"spans-{stem}.csv")
        (out / f"result-{stem}.json").write_text(
            json.dumps({**details, "result": result}, indent=1) + "\n", encoding="utf-8")
        print(json.dumps({"details": details}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, run: workloads.Run) -> tuple[dict, dict]:
    """The run proper: set-up, the window, the checks; details and metrics."""
    info = provenance(args)
    base = inputs.shipped_device(ROOT)

    def rng(part: str) -> random.Random:
        return random.Random(f"{args.workload}/{part}/{args.seed}")

    imports = import_breakdown(run) if args.trace else None
    # set-up starts are an end-to-end metric only: the traced run skips them
    families = {name: (steps(run, rng(name), base), share)
                for name, (steps, share) in workloads.WORKLOADS[args.workload].items()
                if not (args.trace and name == "setup")}
    start = time.perf_counter()
    used = workloads.run_window(run, families, args.seconds)
    info["warmup_and_window_s"] = time.perf_counter() - start
    info["family_seconds"] = used
    info["machine_probe_ms_end"] = machine_probe_ms()
    # the largest process that ran the workload's own operations
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    workloads.check_golden(run)

    if args.trace:
        metrics = per_layer(run, imports)
    else:
        metrics = end_to_end(run, peak_mb)
    details = {
        "provenance": info,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "series": {k: describe(v) for k, v in sorted(run.samples.items()) if v},
        "cli_pooled": describe(cli) if (cli := [v for s in CLI_SERIES
                                                for v in run.samples[s]]) else None,
        "op_seconds_per_unit": {
            k: {"untraced": describe(u) if u else None, "traced": describe(t) if t else None}
            for k, (u, t) in sorted(run.op_seconds.items())
        },
    }
    return details, metrics


if __name__ == "__main__":
    sys.exit(main())
