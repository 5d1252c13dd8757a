"""Spans around the program's module-level public functions.

A ``Tracer`` replaces each traced function, in every ``choosiow`` module that
holds a reference to it, with a wrapper that records a span (name, parent
span, op, start, end) in memory.  Callers inside the program look these names
up at call time, so their calls are seen too.  Nothing is installed unless a
traced run asks for it, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

TRACED = (
    ("core", "objective_H"),
    ("solver", "solve"),
    ("statics", "statics_matrix"),
    ("statics", "spectral_diagnostic"),
    ("statics", "finite_difference_check"),
    ("statics", "gains_sensitivity"),
    ("statics", "marriage_elasticity"),
    ("statics", "transfer_analysis"),
    ("statics", "participation_analysis"),
    ("choice", "equilibrium_consistency"),
    ("choice", "simulate_choices"),
    ("market_file", "parse_market"),
    ("cli", "main"),
)
DERIVED = (
    "statics.gains_sensitivity",
    "statics.marriage_elasticity",
    "statics.transfer_analysis",
    "statics.participation_analysis",
)
CLI_COMMANDS = ("solve", "estimate-gains", "statics", "check", "simulate", "whatif")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, op, name, start_ns, end_ns, extra]
        self.stack = []
        self.op = -1
        self.absent = []
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "choosiow"]
        for module_name, func_name in TRACED:
            module = sys.modules.get(f"choosiow.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for holder in modules:
                for attribute, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attribute, wrapper)
                        self._patched.append((holder, attribute, original))

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._patched):
            setattr(holder, attribute, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.op = -1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            span_id = len(spans)
            record = [span_id, stack[-1] if stack else -1, self.op, name, 0, 0, None]
            spans.append(record)
            stack.append(span_id)
            record[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter_ns()
                stack.pop()
            record[6] = _extra(name, args, kwargs, result)
            return result

        return traced

    def counts(self) -> dict:
        """Work counts that must repeat exactly between two traced passes."""
        calls = Counter(span[3] for span in self.spans)
        extras = Counter()
        for span in self.spans:
            if span[6] is not None and span[3] != "cli.main":
                extras[span[3]] += span[6]
        return {"calls": dict(sorted(calls.items())), "work": dict(sorted(extras.items()))}

    def metrics(self, n_ops: int) -> dict:
        """Per-layer figures; times are per op unless the name says otherwise."""
        spans = self.spans
        total = defaultdict(int)
        child = defaultdict(int)  # ns covered by direct children, per span id
        calls = Counter()
        for span in spans:
            duration = span[5] - span[4]
            total[span[3]] += duration
            calls[span[3]] += 1
            if span[1] >= 0:
                child[span[1]] += duration

        def ms_per_op(name):
            return total[name] / 1e6 / n_ops

        solve_h_calls = 0
        solve_self = 0
        iterations = 0
        for span in spans:
            if span[3] == "solver.solve":
                iterations += span[6] or 0
                solve_self += span[5] - span[4] - child[span[0]]
            elif span[3] == "core.objective_H" and span[1] >= 0 and spans[span[1]][3] == "solver.solve":
                solve_h_calls += 1
        solves = calls["solver.solve"]
        # Per solve: one value at the start, then per iteration the line-search
        # trials plus one evaluation at the accepted point.
        trials = solve_h_calls - solves - iterations
        fd_calls = calls["statics.finite_difference_check"]
        resolves = sum(
            1 for span in spans
            if span[3] == "solver.solve" and span[1] >= 0
            and spans[span[1]][3] == "statics.finite_difference_check"
        )
        draws = sum(span[6] or 0 for span in spans if span[3] == "choice.simulate_choices")
        cli_self = sum(
            span[5] - span[4] - child[span[0]] for span in spans if span[3] == "cli.main"
        )
        cli_ms = defaultdict(int)
        for span in spans:
            if span[3] == "cli.main":
                cli_ms[span[6]] += span[5] - span[4]

        out = {
            "core.objective_H.ms": (ms_per_op("core.objective_H"), "ms/op"),
            "core.objective_H.calls_per_iteration": (
                solve_h_calls / iterations if iterations else 0.0, "calls/iter"),
            "solver.solve.ms": (ms_per_op("solver.solve"), "ms/op"),
            "solver.solve.self_ms": (solve_self / 1e6 / n_ops, "ms/op"),
            "solver.iterations_per_solve": (iterations / solves if solves else 0.0, "iter/solve"),
            "solver.line_search.accept_ratio": (iterations / trials if trials > 0 else 0.0, "ratio"),
            "solver.solve.calls_per_op": (solves / n_ops, "calls/op"),
            "statics.statics_matrix.ms": (ms_per_op("statics.statics_matrix"), "ms/op"),
            "statics.spectral_diagnostic.ms": (ms_per_op("statics.spectral_diagnostic"), "ms/op"),
            "statics.finite_difference_check.ms": (
                ms_per_op("statics.finite_difference_check"), "ms/op"),
            "statics.finite_difference_check.resolves": (
                resolves / fd_calls if fd_calls else 0.0, "solves/call"),
            "statics.derived.ms": (sum(ms_per_op(name) for name in DERIVED), "ms/op"),
            "choice.equilibrium_consistency.ms": (
                ms_per_op("choice.equilibrium_consistency"), "ms/op"),
            "choice.draws_per_op": (draws / n_ops, "draws/op"),
            "choice.ns_per_draw": (
                total["choice.equilibrium_consistency"] / draws if draws else 0.0, "ns"),
            "market_file.parse_market.ms": (ms_per_op("market_file.parse_market"), "ms/op"),
        }
        for command in CLI_COMMANDS:
            out[f"cli.main.ms.{command}"] = (cli_ms[command] / 1e6 / n_ops, "ms/op")
        out["cli.self_ms_per_op"] = (cli_self / 1e6 / n_ops, "ms/op")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "extra"],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                handle,
            )


def _extra(name, args, kwargs, result):
    """The work count a span carries: iterations, draws, or the CLI command."""
    if name == "solver.solve":
        return getattr(result, "iterations", None)
    if name == "choice.simulate_choices":
        model, n = args[0], args[1]
        return int(n) * model.n_alternatives
    if name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else None
    return None
