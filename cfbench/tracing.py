"""Per-layer tracing of cfcool from outside the package.

The tracer wraps public functions of the five layers and records one span per
call: name, start, end, parent span and op id.  A wrapper replaces the
function under every module attribute that holds it (``design.scattering_rates``
and ``oracle.scattering_rates`` as well as ``spectra.scattering_rates``) and in
``cli._COMMANDS``, so a call is traced whichever name it goes through.

Self time is a span's duration minus the time its child spans cover; it is
summed per span name as calls return.  Spans are kept in memory, up to
``span_cap`` of them, and written out at the end; the aggregates cover every
call.  Time in unwrapped code (numpy, argparse) counts toward the innermost
wrapped caller.
"""

from __future__ import annotations

import functools
import time
from array import array

import cfcool
from cfcool import cli, design, netalg, oracle, spectra
from cfcool.errors import SingularLoop

MODULES = {"netalg": netalg, "spectra": spectra, "design": design, "oracle": oracle, "cli": cli}

#: Metric group -> traced functions ("module.function") counted toward it.
GROUPS = {
    "netalg.solve_network": ["netalg.solve_network"],
    "netalg.closed_form": ["netalg.closed_form_notch", "netalg.closed_form_bandpass"],
    "netalg.elements": [
        "netalg.chi", "netalg.reflection_sys", "netalg.scattering", "netalg.delay_response",
    ],
    "spectra.rate_spectrum": ["spectra.rate_spectrum"],
    "spectra.scattering_rates": ["spectra.scattering_rates"],
    "design.closed_loop_response": ["design.closed_loop_response"],
    "design.argmax_detuning_numeric": ["design.argmax_detuning_numeric"],
    "design.sweep": ["design.sweep"],
    "oracle.build_state_space": ["oracle.build_state_space"],
    "oracle.is_stable": ["oracle.is_stable"],
    "oracle.steady_covariance": ["oracle.steady_covariance"],
    "oracle.consistency_check": ["oracle.consistency_check"],
    "cli.parse": ["cli.build_parser", "cli.resolve_config"],
    "cli.command": [f"cli.{fn.__name__}" for fn in cli._COMMANDS.values()],
    "cli.render": ["cli.render"],
    "cli.main": ["cli.main"],
}

#: (inner, outer) span names: calls of inner made while outer is open.
NESTED = {
    "objective_evals": ("spectra.scattering_rates", "design.argmax_detuning_numeric"),
    "is_stable_in_check": ("oracle.is_stable", "oracle.consistency_check"),
}


class Tracer:
    def __init__(self, span_cap: int):
        self.names = [name for names in GROUPS.values() for name in names]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.open = [0] * n
        self.counters = dict.fromkeys(
            ["singular", "sweep_rows", "sweep_singular_rows", "stable", "render_bytes", *NESTED],
            0,
        )
        self.stack: list[list] = []
        self.active = False
        self.op = -1
        self.n_spans = 0
        self.span_cap = span_cap
        self.sp_id, self.sp_name = array("l"), array("i")
        self.sp_parent, self.sp_op = array("l"), array("l")
        self.sp_start, self.sp_end = array("d"), array("d")
        self._patches: list = []

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter
        calls, self_s, open_, stack = self.calls, self.self_s, self.open, self.stack
        observe = self._observer(self.names[name_id])
        counts_singular = self.names[name_id] == "netalg.solve_network"
        nested = [
            (key, self.names.index(outer))
            for key, (inner, outer) in NESTED.items()
            if inner == self.names[name_id]
        ]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.n_spans
            self.n_spans = span + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span]
            stack.append(frame)
            open_[name_id] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except SingularLoop:
                if counts_singular:
                    self.counters["singular"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                open_[name_id] -= 1
                duration = end - start
                self_s[name_id] += duration - frame[0]
                calls[name_id] += 1
                if stack:
                    stack[-1][0] += duration
                for key, outer_id in nested:
                    if open_[outer_id]:
                        self.counters[key] += 1
                if span < self.span_cap:
                    self.sp_id.append(span)
                    self.sp_name.append(name_id)
                    self.sp_parent.append(parent)
                    self.sp_op.append(self.op)
                    self.sp_start.append(start)
                    self.sp_end.append(end)
            if observe:
                observe(result)
            return result

        return traced

    def _observer(self, name: str):
        """Counter updates taken from a traced function's return value."""
        c = self.counters

        def sweep(table):
            c["sweep_rows"] += len(table.rows)
            c["sweep_singular_rows"] += sum(row.singular for row in table.rows)

        def is_stable(stable):
            c["stable"] += stable

        def render(text):
            c["render_bytes"] += len(text)

        return {"design.sweep": sweep, "oracle.is_stable": is_stable, "cli.render": render}.get(name)

    def install(self) -> None:
        """Swap every traced function for its wrapper, wherever it is held."""
        holders = [cfcool, *MODULES.values()]
        for name_id, name in enumerate(self.names):
            module, attr = name.split(".")
            original = getattr(MODULES[module], attr)
            wrapper = self._wrap(name_id, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((vars(holder), key, original))
                        setattr(holder, key, wrapper)
            for key, value in cli._COMMANDS.items():
                if value is original:
                    self._patches.append((cli._COMMANDS, key, original))
                    cli._COMMANDS[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op call counts and self times per group and per module."""
        by_name = {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for group, names in GROUPS.items():
            out[f"{group}.calls"] = sum(by_name[n][0] for n in names) / ops
            out[f"{group}.self_s"] = sum(by_name[n][1] for n in names) / ops
        total = sum(self.self_s) or 1.0
        for module in MODULES:
            names = [n for n in self.names if n.startswith(module + ".")]
            self_s = sum(by_name[n][1] for n in names)
            out[f"{module}.calls"] = sum(by_name[n][0] for n in names) / ops
            out[f"{module}.self_s"] = self_s / ops
            out[f"{module}.self_share"] = self_s / total
        c = self.counters
        stable_calls = by_name["oracle.is_stable"][0]
        checks = by_name["oracle.consistency_check"][0]
        out.update({
            "netalg.solve_network.singular": c["singular"] / ops,
            "design.argmax_detuning_numeric.objective_evals": c["objective_evals"] / ops,
            "design.sweep.rows": c["sweep_rows"] / ops,
            "design.sweep.singular_rows": c["sweep_singular_rows"] / ops,
            "oracle.is_stable.stable_frac": c["stable"] / stable_calls if stable_calls else 0.0,
            "oracle.is_stable.per_check": c["is_stable_in_check"] / checks if checks else 0.0,
            "cli.render.bytes": c["render_bytes"] / ops,
        })
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV; returns how many calls were not kept."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,start_s,end_s,parent,op\n")
            t0 = self.sp_start[0] if self.sp_start else 0.0
            for i in range(len(self.sp_name)):
                f.write(
                    f"{self.sp_id[i]},{self.names[self.sp_name[i]]},{self.sp_start[i] - t0:.9f},"
                    f"{self.sp_end[i] - t0:.9f},{self.sp_parent[i]},{self.sp_op[i]}\n"
                )
        return self.n_spans - len(self.sp_name)
