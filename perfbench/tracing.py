"""Spans around the library's layer boundaries, installed from outside it.

``Tracer.install`` replaces the module-level names that the layers call
(``harness.simulate``, ``lqr.solve_care``, ``SystemState.from_vector``, ...)
with wrappers that record one span per call: (name, parent span, start, end).
Spans live in flat arrays until ``layer_metrics`` reduces them and
``write_spans`` dumps them. Calls nest strictly because the library is
single-threaded. A span's self time is its duration minus what its direct
children cost it: their durations plus, per child, the part of the wrapper
that runs outside the child's own [start, end] (the call into the wrapper and
half of each clock read), calibrated by ``span_costs``. Layer times are
reported at the reference machine's speed, like ``wall_norm_s``.
"""

from __future__ import annotations

import gzip
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from spinlift import control, dynamics, equilibrium, harness, lqr, model


class Tracer:
    """Spans timed by ``clock`` (a ``speed.WorkClock``), so a reference
    slice that interrupts a call does not count towards its span."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span named ``name``. The span covers the
        wrapper's own bookkeeping; ``after(args, kwargs, result)`` runs outside
        it when the call returns, so only wrap with ``after`` a call made a few
        times per run."""
        if name not in self.names:
            self.names.append(name)
        k = self.names.index(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = self.clock.now

        def traced(*args, **kwargs):
            t0 = clock()
            sid = len(kind)
            kind.append(k)
            parent.append(stack[-1])
            start.append(t0)
            end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[sid] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        counts = self.counts

        def on_simulate(args, kwargs, traj):
            params, duration = args[3], args[4]
            counts["dynamics.physics_steps"] += int(round(duration / params.dt_physics))
            counts["dynamics.samples"] += len(traj)

        def on_run_scenario(args, kwargs, result):
            # operating points the gain cache is asked for: the static one,
            # plus the spinning one in rotating mode
            counts["harness.gain_cache.requests"] += 2 if args[0].mode == "rotating" else 1

        def on_csv(args, kwargs, text):
            counts["dynamics.csv_bytes"] += len(text.encode())

        def on_sweep(args, kwargs, result):
            counts["equilibrium.sweep.points"] += len(result.reports) + len(result.failures)

        synthesize = lqr.synthesize

        def counted_synthesize(*args, **kwargs):
            try:
                return synthesize(*args, **kwargs)
            except (lqr.SynthesisError, lqr.LinearizationError):
                counts["lqr.synthesis_errors"] += 1
                raise

        traced_synthesize = self.span("lqr.synthesize", counted_synthesize)
        self._patch(lqr, "synthesize", traced_synthesize)
        self._patch(harness, "synthesize", traced_synthesize)
        self._patch(lqr, "linearize", self.span("lqr.linearize", lqr.linearize))
        self._patch(lqr, "solve_care", self.span("lqr.solve_care", lqr.solve_care))
        # lqr reaches the Lyapunov solver as scipy.linalg.solve_continuous_lyapunov;
        # give lqr alone a scipy whose linalg has the traced solver
        linalg = types.ModuleType("scipy.linalg")
        vars(linalg).update(vars(scipy.linalg))
        linalg.solve_continuous_lyapunov = self.span(
            "lqr.lyapunov_solve", scipy.linalg.solve_continuous_lyapunov)
        lqr_scipy = types.ModuleType("scipy")
        vars(lqr_scipy).update(vars(scipy))
        lqr_scipy.linalg = linalg
        self._patch(lqr, "scipy", lqr_scipy)

        self._patch(harness, "run_scenario",
                    self.span("harness.run_scenario", harness.run_scenario, on_run_scenario))
        self._patch(harness, "compare_modes",
                    self.span("harness.compare_modes", harness.compare_modes))
        self._patch(harness, "simulate",
                    self.span("dynamics.simulate", harness.simulate, on_simulate))
        self._patch(harness, "control_step",
                    self.span("control.control_step", harness.control_step))
        self._patch(harness, "summarize", self.span("harness.summarize", harness.summarize))
        self._patch(harness, "comparison_to_csv",
                    self.span("harness.comparison_to_csv", harness.comparison_to_csv))
        self._patch(harness, "comparison_svg",
                    self.span("harness.comparison_svg", harness.comparison_svg))
        for chart in ("grouped_bar_chart", "line_chart"):
            self._patch(harness, chart, self.span("svgplot.chart", getattr(harness, chart)))

        self._patch(dynamics, "tether_forces",
                    self.span("dynamics.tether_forces", dynamics.tether_forces))
        from_vector = vars(model.SystemState)["from_vector"].__func__
        self._patch(model.SystemState, "from_vector",
                    classmethod(self.span("model.state_from_vector", from_vector)))
        self._patch(dynamics, "trajectory_to_csv",
                    self.span("dynamics.trajectory_to_csv", dynamics.trajectory_to_csv, on_csv))
        self._patch(control, "command_log_to_csv",
                    self.span("control.command_log_to_csv", control.command_log_to_csv, on_csv))

        self._patch(equilibrium, "build_equilibrium",
                    self.span("equilibrium.build_equilibrium", equilibrium.build_equilibrium))
        for sweep in ("sweep_beta", "sweep_omega"):
            self._patch(equilibrium, sweep,
                        self.span("equilibrium.sweep", getattr(equilibrium, sweep), on_sweep))
        self._patch(equilibrium, "sweep_to_csv",
                    self.span("equilibrium.sweep_to_csv", equilibrium.sweep_to_csv))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        """(kind, parent, duration in s) of every span as numpy arrays."""
        if not self.kind:
            return np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0)
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return kind, parent, dur

    def _per_name(self, outside_s: float) -> dict:
        """name -> (calls, total seconds, self seconds), with ``outside_s``
        charged to the child, not the parent, for every nested span."""
        kind, parent, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested] + outside_s, minlength=len(kind))
        size = len(self.names)
        calls = np.bincount(kind, minlength=size)
        total = np.bincount(kind, weights=dur, minlength=size)
        self_s = np.bincount(kind, weights=dur - child, minlength=size)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def _calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly inside a ``parent_name`` span."""
        if name not in self.names or parent_name not in self.names:
            return 0
        kind, parent, _ = self._arrays()
        mine = (kind == self.names.index(name)) & (parent >= 0)
        return int(np.sum(kind[parent[mine]] == self.names.index(parent_name)))

    def layer_metrics(self, timed_seconds: float, speed_factor: float) -> dict:
        """Per-layer metrics as name -> (value, unit); means are 0 for a
        layer the workload never called. Times are host seconds of the work
        clock times ``speed_factor``, the timed work's reference seconds per
        host second."""
        per_span_s, outside_s = span_costs(type(self.clock)())
        per = self._per_name(outside_s)
        c = self.counts

        def calls(name):
            return per.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return per.get(name, (0, 0.0, 0.0))[1] * speed_factor

        def self_time(name):
            return per.get(name, (0, 0.0, 0.0))[2] * speed_factor

        def mean(name, scale):
            n = calls(name)
            return total(name) / n * scale if n else 0.0

        steps = c["dynamics.physics_steps"]
        simulate_self = self_time("dynamics.simulate")
        requests = c["harness.gain_cache.requests"]
        misses = self._calls_under("lqr.synthesize", "harness.run_scenario")
        sweep_points = c["equilibrium.sweep.points"]
        return {
            "dynamics.physics_steps": (steps, "count"),
            "dynamics.simulate.self_s": (simulate_self, "s"),
            "dynamics.step_us": (simulate_self / steps * 1e6 if steps else 0.0, "us"),
            "dynamics.samples": (c["dynamics.samples"], "count"),
            "dynamics.tether_forces.calls": (calls("dynamics.tether_forces"), "count"),
            "dynamics.tether_forces.us": (mean("dynamics.tether_forces", 1e6), "us"),
            "model.state_from_vector.calls": (calls("model.state_from_vector"), "count"),
            "model.state_from_vector.us": (mean("model.state_from_vector", 1e6), "us"),
            "dynamics.trajectory_to_csv.s": (total("dynamics.trajectory_to_csv"), "s"),
            "control.command_log_to_csv.s": (total("control.command_log_to_csv"), "s"),
            "dynamics.csv_bytes": (c["dynamics.csv_bytes"], "bytes"),
            "control.control_step.calls": (calls("control.control_step"), "count"),
            "control.control_step.us": (mean("control.control_step", 1e6), "us"),
            "lqr.synthesize.calls": (calls("lqr.synthesize"), "count"),
            "lqr.synthesize.ms": (mean("lqr.synthesize", 1e3), "ms"),
            "lqr.linearize.ms": (mean("lqr.linearize", 1e3), "ms"),
            "lqr.solve_care.ms": (mean("lqr.solve_care", 1e3), "ms"),
            "lqr.lyapunov_solves": (calls("lqr.lyapunov_solve"), "count"),
            "lqr.synthesis_errors": (c["lqr.synthesis_errors"], "count"),
            "equilibrium.build_equilibrium.calls": (calls("equilibrium.build_equilibrium"), "count"),
            "equilibrium.sweep.us_per_point": (
                total("equilibrium.sweep") / sweep_points * 1e6 if sweep_points else 0.0, "us"),
            "harness.run_scenario.calls": (calls("harness.run_scenario"), "count"),
            "harness.run_scenario.self_s": (self_time("harness.run_scenario"), "s"),
            "harness.summarize.ms": (mean("harness.summarize", 1e3), "ms"),
            "harness.gain_cache.hit_ratio": (1.0 - misses / requests if requests else 0.0, "1"),
            "svgplot.chart.ms": (mean("svgplot.chart", 1e3), "ms"),
            "trace.spans": (len(self.kind), "count"),
            # an estimate, and a lower bound: spans times the cost of one
            # span around an empty function, over the run's timed seconds
            "trace.overhead_frac": (len(self.kind) * per_span_s / timed_seconds, "1"),
        }

    def write_spans(self, path: Path) -> None:
        """Dump every span as TSV: id, parent id (-1 for none), name, start
        and end in seconds of the work clock."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (k, p, s, e) in enumerate(zip(self.kind, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{p}\t{names[k]}\t{s:.9f}\t{e:.9f}\n")


def _noop():
    return None


def span_costs(clock, calls: int = 50_000) -> tuple[float, float]:
    """(host seconds one span adds to a call, the part of it that falls
    outside the span's own [start, end]), measured on an empty function with
    an idle ``clock``; best of three rounds, so a round that the host slowed
    down does not inflate them."""
    best_cost = best_outside = float("inf")
    for _ in range(3):
        tracer = Tracer(clock)
        traced = tracer.span("noop", _noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        bare = (t1 - t0) / calls
        cost = (t2 - t1) / calls - bare
        inside = (sum(tracer.end) - sum(tracer.start)) / calls - bare
        best_cost = min(best_cost, cost)
        best_outside = min(best_outside, cost - inside)
    return max(best_cost, 0.0), max(best_outside, 0.0)
