"""Span recorder around xduce's public functions, installed from outside.

``Tracer.install`` replaces public functions on the xduce modules with
wrappers; because the modules call each other through module attributes,
calls the CLI front end makes are wrapped too. A wrapper records a span
only when the innermost open span is an op root (a call the benchmark
makes) or ``run_cli`` (a call the CLI makes); deeper calls, such as the
closed-form chain inside ``run_sweep``, pass straight through so their
cost stays in the caller's span. Each span is
``(id, op, parent, name, start_ns, end_ns, self_ns, n)``: self time is the
span's time minus what its recorded children cover, ``n`` is a count taken
at the boundary (rows, trials, probe points). Spans stay in memory and are
written out once, by the caller, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter_ns


def _scheme(args) -> str:
    return args[0].scheme.value


def _samples(args, kwargs) -> int:
    return kwargs["samples"] if "samples" in kwargs else args[1]


def _run_cli_label(args) -> str:
    argv = list(args[0]) if args else []
    label = "cli.run_cli." + (argv[0] if argv else "?")
    if argv and argv[0] == "sweep":
        # the benchmark always passes --format to sweep
        label += "." + (argv[argv.index("--format") + 1] if "--format" in argv else "csv")
    return label


# (module, attribute, span name or label function, count function)
WRAPPED = (
    ("cli", "run_cli", _run_cli_label, None),
    ("config", "load_config", "config.load_config", None),
    ("cli", "load_config", "config.load_config", None),
    ("core", "intracavity_photon_number", "core.intracavity_photon_number", None),
    ("core", "conversion_efficiency", "core.conversion_efficiency", None),
    ("core", "critical_pump_power", "core.critical_pump_power", None),
    ("scattering", "build_linearized", "scattering.build_linearized", None),
    ("scattering", "scattering_at", lambda a: "scattering.scattering_at." + _scheme(a), None),
    ("scattering", "conversion_spectrum",
     lambda a: "scattering.conversion_spectrum." + _scheme(a), lambda a, k, r: len(r)),
    ("scattering", "parametric_threshold", "scattering.parametric_threshold", None),
    ("herald", "blue_breakdown", "herald.blue_breakdown", None),
    ("herald", "red_breakdown", "herald.red_breakdown", None),
    ("herald", "storage_loss_infidelity", "herald.storage_loss_infidelity", None),
    ("herald", "mc_blue_infidelity", "herald.mc_blue_infidelity",
     lambda a, k, r: _samples(a, k)),
    ("sweep", "run_sweep", "sweep.run_sweep", lambda a, k, r: len(r)),
    ("sweep", "maximize_efficiency", "sweep.maximize_efficiency", None),
    ("svgplot", "render_sweep_svg", "svgplot.render_sweep_svg", lambda a, k, r: len(a[0])),
)
EXPANDING = ("cli.run_cli.",)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, name, start_ns, child_ns, expands]
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _push(self, name: str, expands: bool) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0, expands])
        self._next_id += 1

    def _pop(self, n: int) -> None:
        end = perf_counter_ns()
        span_id, name, start, child_ns, _ = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, self._op, parent[0] if parent else -1, name,
                           start, end, duration - child_ns, n))

    def begin_op(self, name: str) -> None:
        self._op += 1
        self._push(name, True)

    def end_op(self) -> None:
        self._pop(1)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span under the current one."""
        self._push(name, False)
        try:
            yield
        finally:
            self._pop(1)

    def _wrap(self, fn, label, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not (stack and stack[-1][4]):
                return fn(*args, **kwargs)
            name = label(args) if callable(label) else label
            tracer._push(name, name.startswith(EXPANDING))
            n = 0
            try:
                result = fn(*args, **kwargs)
                n = count(args, kwargs, result) if count else 1
                return result
            finally:
                tracer._pop(n)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        wrappers = {}
        for module_name, attr, label, count in WRAPPED:
            module = importlib.import_module("xduce." + module_name)
            original = getattr(module, attr)
            if original not in wrappers:
                wrappers[original] = self._wrap(original, label, count)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[original])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- merging and output -------------------------------------------------

    def merge(self, spans: list) -> None:
        """Adopt spans a child process recorded, under the open span.

        Ids are renumbered; start and end need no shift because
        ``perf_counter_ns`` reads CLOCK_MONOTONIC, which processes share."""
        parent = self._stack[-1]
        base = self._next_id
        for span_id, _, up, name, start, end, self_ns, n in spans:
            if up < 0:
                parent[3] += end - start
            self.spans.append((base + span_id, self._op, parent[0] if up < 0 else base + up,
                               name, start, end, self_ns, n))
        self._next_id += 1 + max((s[0] for s in spans), default=-1)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,op,parent,name,start_ns,end_ns,self_ns,n\n")
            for span in sorted(self.spans):
                handle.write(",".join(map(str, span)) + "\n")

    def totals(self) -> dict[str, list[int]]:
        """Per span name: [calls, total ns, self ns, summed n]."""
        out: dict[str, list[int]] = {}
        for _, _, _, name, start, end, self_ns, n in self.spans:
            agg = out.setdefault(name, [0, 0, 0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_ns
            agg[3] += n
        return out
