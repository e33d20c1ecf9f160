"""Traced in-process replay: spans around the public API of each layer.

The wrappers are installed at run time by this module; the package source is
not edited.  Every public function and public method (plus ``__init__``) of
the layer modules is wrapped, and each wrapper is bound in every
``ddispatch.*`` namespace that holds the original, so calls through
re-exports (``sim.linearize``, ``design.geometric_mix``) are seen too.  The
CLI handlers import what they use at call time and so pick up the wrappers.

Spans stay in memory while the replay runs and are written to ``spans.csv``
in the work directory at the end.  A span's self time is its duration minus
the durations of the spans it called directly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

LAYERS = ("cli", "fileio", "loads", "markov", "design", "linearize", "sim")


class Tracer:
    """Records one span per wrapped call: id, parent, stage, name, times."""

    def __init__(self):
        self.spans = []        # (id, parent, stage, name, start, duration, self)
        self.stage = -1
        self.bytes_written = 0
        self._stack = []       # [span id, time spent in direct children]
        self._next_id = 0
        self._patched = []     # (namespace, attribute, original value)

    def _wrap(self, name: str, fn):
        tracer = self
        counts_bytes = name == "fileio.atomic_write_text"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, parent, tracer.stage, name, start,
                                     duration, duration - frame[1]))
                if counts_bytes:
                    text = args[1] if len(args) > 1 else kwargs["text"]
                    tracer.bytes_written += len(text.encode())
        return traced

    def install(self):
        """Wrap the public API of every layer module."""
        originals = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"ddispatch.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, tuple):
                    self._wrap_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ddispatch" and not mod_name.startswith("ddispatch."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path):
        with open(path, "w") as fh:
            fh.write("id,parent,stage,name,start_s,duration_s,self_s\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},{s[5]:.9f},{s[6]:.9f}\n")


def replay(stages, work: Path, tracer: Tracer | None = None):
    """Run the stage chain in this process through ``ddispatch.cli.main``.

    Returns the wall time of each stage and its exit code (-1 for an
    uncaught exception).  CLI output is captured and dropped.
    """
    import ddispatch.cli

    results = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for index, stage in enumerate(stages):
            if tracer is not None:
                tracer.stage = index
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = ddispatch.cli.main(list(stage.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a crashing stage is a failed stage
                    traceback.print_exc(file=sys.__stderr__)
                    code = -1
            results.append((time.perf_counter() - start, code))
    finally:
        os.chdir(cwd)
    return results


def probe(fn, min_calls: int = 5, min_seconds: float = 0.2, max_calls: int = 2000) -> float:
    """Median seconds per call of ``fn`` over a short untraced loop."""
    times = []
    begin = time.perf_counter()
    while len(times) < max_calls and (len(times) < min_calls
                                      or time.perf_counter() - begin < min_seconds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes(work: Path, shape: dict) -> dict:
    """Public-function probes on the workload's own model and family."""
    from ddispatch import design, loads, markov, sim

    model = loads.load_model(work / "model.json")
    base, _ = loads.synthesis_inputs(model, "compose")
    util = model.space.util
    family = design.load_family(work / "family.json")
    pair = family.pair_at(0.5 * shape["zeta_max"])
    out = {
        "markov.invariant_pmf_ms": 1e3 * probe(lambda: markov.invariant_pmf(base)),
        "markov.poisson_solve_ms": 1e3 * probe(
            lambda: markov.poisson_solve(base, util, anchor=model.space.anchor)),
        "markov.structure_check_ms": 1e3 * probe(
            lambda: markov.check_irreducible_aperiodic(base)),
        "design.tilt_ms": 1e3 * probe(lambda: design.tilt(family.base, pair)),
    }
    zeta = 0.5 * shape["zeta_max"]
    for n, tag in ((1_000, "n1e3"), (10_000, "n1e4"), (100_000, "n1e5")):
        fleet, rng = sim.fleet_init(family, n, seed=n)

        def step():
            nonlocal fleet
            fleet, _ = sim.fleet_step(fleet, zeta, family, rng)

        out[f"sim.fleet_step_ms_{tag}"] = 1e3 * probe(step, min_seconds=0.3, max_calls=200)
    return out


class SpanIndex:
    """Durations of the recorded spans grouped by name, for the reductions."""

    def __init__(self, tracer: Tracer):
        self.durations = {}
        self.self_by_layer = dict.fromkeys(LAYERS, 0.0)
        ids_by_name = {}
        for span_id, parent, _, name, _, duration, own in tracer.spans:
            self.durations.setdefault(name, []).append(duration)
            ids_by_name.setdefault(name, set()).add(span_id)
            self.self_by_layer[name.partition(".")[0]] += own
        ode_ids = ids_by_name.get("design.solve_design_ode", set())
        self.ode_family_init = sum(
            s[5] for s in tracer.spans
            if s[3] == "design.DesignFamily.__init__" and s[1] in ode_ids)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names)

    def median(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, shape: dict) -> dict:
    """Per-layer numbers from the spans of one traced replay.

    ``design.solve_ode_s`` excludes the family construction that
    ``solve_design_ode`` ends with; ``design.rate_eval_ms`` divides it by the
    8 * zeta_max / step RK4 rate evaluations of the two branches.
    """
    ix = SpanIndex(tracer)
    ode = ix.total("design.solve_design_ode") - ix.ode_family_init
    rate_evals = 8 * round(shape["zeta_max"] / shape["step"])
    passivity_calls = ix.calls("linearize.positive_real_check")
    return {
        "cli.self_s": ix.self_by_layer["cli"],
        "fileio.self_s": ix.self_by_layer["fileio"],
        "fileio.bytes_written": tracer.bytes_written,
        "loads.build_model_s": ix.total("loads.build_pool_model"),
        "markov.self_s": ix.self_by_layer["markov"],
        "markov.stochastic_matrix_calls": ix.calls("markov.StochasticMatrix.__init__"),
        "design.self_s": ix.self_by_layer["design"],
        "design.solve_ode_s": ode,
        "design.rate_eval_ms": 1e3 * ode / rate_evals if ode else 0.0,
        "design.family_init_s": ix.total("design.DesignFamily.__init__"),
        "design.family_init_calls": ix.calls("design.DesignFamily.__init__"),
        "design.load_family_s": ix.total("design.load_family"),
        "design.save_family_s": ix.total("design.save_family"),
        "design.kernel_at_calls": ix.calls("design.DesignFamily.kernel_at"),
        "design.kernel_at_us": 1e6 * ix.median("design.DesignFamily.kernel_at"),
        "linearize.self_s": ix.self_by_layer["linearize"],
        "linearize.linearize_s": ix.total("linearize.linearize"),
        "linearize.passivity_s": (ix.total("linearize.positive_real_check") / passivity_calls
                                  if passivity_calls else 0.0),
        "linearize.transfer_eval_calls": ix.calls("linearize.transfer_eval"),
        "linearize.transfer_eval_us": 1e6 * ix.median("linearize.transfer_eval"),
        "linearize.bode_export_s": ix.total("linearize.bode_export"),
        "sim.self_s": ix.self_by_layer["sim"],
        "sim.meanfield_step_calls": ix.calls("sim.meanfield_step"),
        "sim.meanfield_step_us": 1e6 * ix.median("sim.meanfield_step"),
        "sim.fleet_step_calls": ix.calls("sim.fleet_step"),
        "sim.fleet_step_ms": 1e3 * ix.median("sim.fleet_step"),
        "sim.to_csv_s": ix.total("sim.SignalSet.to_csv"),
        "sim.decompose_s": ix.total("sim.SignalSet.from_csv", "sim.frequency_decompose"),
    }
