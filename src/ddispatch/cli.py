"""Command line front end: build load models, synthesize design families,
analyze their linearizations, run simulations, and decompose signals.

Exit codes are stable: 0 success, 2 argument or parse problems, 3
validation failures, 4 mathematical preconditions not met, 5 design
continuation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys

import numpy as np

from .design import (DesignFamily, LoadStateSpace, _zero_direction,
                     build_exponential_family, load_family, save_family,
                     solve_design_ode)
from .errors import DispatchError, IntegrationDiverged, ValidationError
from .fileio import (boolean, document, envelope, field, finite, integer,
                     json_object, malformed, numbers, read_json, string,
                     write_json)
from .linearize import (MAX_THETA_COUNT, MIN_THETA_COUNT, bode_export,
                        linearize, positive_real_check)
from .loads import (MAX_SAMPLES_PER_STATE, MIN_SAMPLES_PER_STATE,
                    LoadModel, PoolModelSpec, TclModelSpec, build_pool_model,
                    build_tcl_model, load_model, save_model, synthesis_inputs,
                    tcl_trajectory, trajectory_to_csv)
from .markov import (StateFunction, StochasticMatrix, _record,
                     check_irreducible_aperiodic)
from .sim import (MAX_FLEET_SIZE, SignalSet, TrackingConfig, fleet_rollout,
                  frequency_decompose, meanfield_rollout, track, tracking_metrics)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_DIVERGED = 5

#: most steps a scenario runs: a tracking run keeps ~0.4 kB a step (its
#: signals and their CSV text), so 0.4 GB at this maximum
MAX_STEPS = 10**6

#: most angles one ``analyze`` run holds, its commands times
#: ``--theta-count``: each command keeps its angles until the Bode CSV is
#: written, ~0.5 kB a command and angle at that write, so ~0.7 GB at this
#: maximum (three commands of MAX_THETA_COUNT angles)
MAX_ANALYZE_ANGLES = 3 * MAX_THETA_COUNT


def _number(cast, noun: str, low: float = 0.0, what: str = "positive and finite",
            high: float = np.inf):
    """Argument type: a value of ``cast`` above ``low`` and below ``high``."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must be {what}")
        return value
    return parse


def _count(minimum: int, maximum: int):
    """Argument type: an integer from ``minimum`` to ``maximum``."""
    return _number(int, "an integer", minimum - 1,
                   f"an integer of at least {minimum} and at most {maximum}", maximum + 1)


_positive_float = _number(float, "a number")
_finite_float = _number(float, "a number", -np.inf, "finite")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddispatch",
        description="Distributed load control toolkit: models, design "
                    "families, linear analysis, simulation, decomposition.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("model", help="build a load model file")
    p.add_argument("--kind", required=True, choices=("pool", "tcl", "custom"))
    p.add_argument("--spec", help="JSON spec file (defaults used if omitted "
                                  "for pool/tcl; required for custom)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--samples", type=_count(MIN_SAMPLES_PER_STATE, MAX_SAMPLES_PER_STATE),
                   default=20000, help="Monte Carlo samples per state (tcl only)")
    p.add_argument("--seed", type=int, default=0, help="estimation seed (tcl)")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("design", help="synthesize a design family")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--kind", required=True,
                   choices=("ipd", "spd", "myopic", "ipd0"))
    p.add_argument("--zeta-max", type=_positive_float, required=True)
    p.add_argument("--step", type=_positive_float, default=0.01)
    p.add_argument("--route", choices=("compose", "direct"), default="compose",
                   help="design on the jump kernel and re-mix (compose) or "
                        "on the per-step kernel (direct)")
    p.add_argument("--util-scale", default="1",
                   help="divide the design utility by this constant before "
                        "synthesis, or 'auto' for the sup norm of the "
                        "zero-command value function; a command unit then "
                        "spans that much raw utility (exact units change)")
    p.add_argument("--out", required=True, help="output family JSON path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("analyze", help="linearize a family and export "
                                       "frequency responses")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--zeta", type=_finite_float, nargs="+", required=True,
                   help="command values to linearize at")
    p.add_argument("--theta-count", type=_count(MIN_THETA_COUNT, MAX_THETA_COUNT),
                   default=2048)
    p.add_argument("--sample-period", type=_positive_float, default=None,
                   help="seconds per step, adds a frequency column")
    p.add_argument("--out", required=True, help="output Bode CSV path")
    p.add_argument("--report", default=None,
                   help="passivity JSON path (default: out + '.passivity.json')")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output signals CSV path")
    p.add_argument("--metrics", default=None,
                   help="metrics JSON path (default: out + '.metrics.json')")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="split a signal into frequency bands")
    p.add_argument("--signal", required=True, help="input signal CSV path")
    p.add_argument("--column", default=None,
                   help="signal column to use (default: first)")
    p.add_argument("--lp-cutoff", type=_positive_float, required=True,
                   help="low-pass cutoff in Hz")
    p.add_argument("--hp-cutoff", type=_positive_float, required=True,
                   help="high-pass cutoff in Hz")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_decompose)

    return parser


# -- command handlers ------------------------------------------------------


def cmd_model(ns) -> int:
    doc = {} if ns.spec is None else read_json(ns.spec)
    if ns.kind == "pool":
        model = build_pool_model(PoolModelSpec.from_json(doc))
    elif ns.kind == "tcl":
        model = build_tcl_model(TclModelSpec.from_json(doc),
                                samples_per_state=ns.samples, seed=ns.seed)
    else:
        if ns.spec is None:
            raise ValidationError("custom models need --spec with entries/util")
        model = _custom_model(json_object(doc, "custom spec"))
    save_model(model, ns.out)
    report = check_irreducible_aperiodic(model.p0)
    print(f"model kind={model.kind} states={model.dim} gamma={model.gamma:g}")
    print(f"per-step kernel irreducible={report.irreducible} "
          f"aperiodic={report.aperiodic}")
    if "duty_cycle" in model.diagnostics:
        print(f"duty cycle={model.diagnostics['duty_cycle']:.4f}")
    print(f"digest={model.digest}")
    print(f"wrote {ns.out}")
    return EXIT_OK


def _custom_model(doc: dict) -> LoadModel:
    with malformed("custom spec"):
        s0 = StochasticMatrix(numbers(doc["entries"], 2))
        util = StateFunction(numbers(doc["util"], 1),
                             units=field(doc, "units", string, ""))
        space = LoadStateSpace(n_control=s0.dim, n_exo=1, util=util,
                               anchor=integer(doc.get("anchor", 0)))
        return LoadModel(kind="custom", spec_doc=doc, space=space, s0=s0,
                         gamma=field(doc, "gamma", finite, 1.0))


def _scaled_space(ns, base, space):
    """Apply --util-scale: an exact units change for the command variable."""
    if ns.util_scale == "auto":
        # sup norm of the exponent rate the chosen design kind would apply
        scale = float(np.abs(_zero_direction(ns.kind, base, space)).max())
        if scale <= 0.0:
            scale = 1.0
    else:
        try:
            scale = finite(float(ns.util_scale))
        except ValueError:
            raise ValidationError(
                f"--util-scale must be a positive finite number or 'auto', "
                f"got {ns.util_scale!r}")
        if scale <= 0.0:
            raise ValidationError("--util-scale must be positive")
    if scale == 1.0:
        return space, scale
    units = space.util.units
    units = f"({units})/{scale:g}" if units else f"1/{scale:g}"
    scaled = dataclasses.replace(
        space, util=StateFunction(space.util.values / scale, units=units))
    return scaled, scale


def cmd_design(ns) -> int:
    model = load_model(ns.model)
    base, structure = synthesis_inputs(model, ns.route)
    space, scale = _scaled_space(ns, base, model.space)
    if scale != 1.0:
        print(f"utility scaled by 1/{scale:g}; one command unit spans "
              f"{scale:g} raw utility units")
    if ns.kind in ("ipd", "spd"):
        family = solve_design_ode(base, space, ns.kind, ns.zeta_max,
                                  step=ns.step, structure=structure,
                                  model_hash=model.digest)
    else:
        family = build_exponential_family(base, space, ns.kind,
                                          ns.zeta_max, step=ns.step,
                                          structure=structure,
                                          model_hash=model.digest)
    # every grid point's pmf is solved and checked here, before the write
    drops = int((np.diff(family.ubars) < -1e-8).sum())
    save_family(family, ns.out)
    print(f"family kind={family.kind} route={ns.route} "
          f"grid=[{family.zeta_grid[0]:g}, {family.zeta_grid[-1]:g}] "
          f"points={family.zeta_grid.size}")
    print(f"mean power at grid ends: {family.ubars[0]:.6g} .. "
          f"{family.ubars[-1]:.6g}; decreasing steps beyond tolerance: {drops}")
    print(f"wrote {ns.out}")
    return EXIT_OK


def cmd_analyze(ns) -> int:
    angles = len(ns.zeta) * ns.theta_count
    if angles > MAX_ANALYZE_ANGLES:
        print(f"error: {len(ns.zeta)} commands of {ns.theta_count} angles hold "
              f"{angles} angles, more than {MAX_ANALYZE_ANGLES}", file=sys.stderr)
        return EXIT_PARSE
    family = load_family(ns.family)
    for z in ns.zeta:
        family.h_at(float(z))  # OutOfGrid before the first sweep
    responses = []
    results = []
    for z in ns.zeta:
        model = linearize(family, float(z))
        resp = positive_real_check(model, theta_count=ns.theta_count,
                                   label=f"z{z:g}")
        responses.append(resp)
        results.append({
            "zeta": float(z),
            "realness_margin": resp.realness_margin,
            "max_residual": resp.max_residual,
            "sigma2": resp.sigma2,
            "positive_real": bool(resp.realness_margin >= -1e-8),
        })
        print(f"zeta={z:g} margin={resp.realness_margin:.3e} "
              f"sigma2={resp.sigma2:.6g}")
    bode_export(responses, path=ns.out, sample_period=ns.sample_period)
    report_path = ns.report or (str(ns.out) + ".passivity.json")
    write_json(report_path, envelope("passivity", results=results))
    print(f"wrote {ns.out} and {report_path}")
    return EXIT_OK


def _reference(doc, steps: int) -> np.ndarray:
    """Fractional power reference of a ``track`` scenario, one value per step."""
    doc = json_object(doc, "reference")
    kind = doc.get("kind", "constant")
    amplitude = field(doc, "amplitude", finite, 0.0)
    if kind == "constant":
        return amplitude * np.ones(steps)
    period = field(doc, "period_steps", finite, 100.0)
    if period <= 0.0:
        raise ValidationError(f"period_steps must be positive, got {period:g}")
    wave = np.sin(2.0 * np.pi * np.arange(steps) / period)
    if kind == "sine":
        return amplitude * wave
    if kind == "square":
        return amplitude * np.sign(wave)
    raise ValidationError(f"unknown reference kind {kind!r}")


def _controller(doc) -> TrackingConfig:
    doc = json_object(doc, "controller")
    return TrackingConfig(kind=doc.get("kind", "pi"), kp=field(doc, "kp", finite, None),
                          ki=field(doc, "ki", finite, None),
                          zeta_limit=field(doc, "zeta_limit", finite, None),
                          anti_windup=field(doc, "anti_windup", boolean, True))


@_record
class Scenario:
    """A ``simulate`` scenario document, read once with every field checked;
    ``family`` is ``None`` only for a trajectory run without one."""

    mode: str
    family: DesignFamily | None
    steps: int
    settle: int
    seed: int
    n: int
    zeta: float
    period_s: float
    plant: str
    reference: np.ndarray
    controller: TrackingConfig
    tcl: TclModelSpec

    @classmethod
    def read(cls, path: str) -> "Scenario":
        doc = document(read_json(path), "scenario")
        mode = doc.get("mode", "constant")
        if mode not in ("constant", "track", "trajectory"):
            raise ValidationError(f"unknown scenario mode {mode!r}")
        plant = doc.get("plant", "meanfield")
        if plant not in ("meanfield", "fleet"):
            raise ValidationError(f"unknown plant {plant!r}")
        steps = field(doc, "steps", integer, 10000 if mode == "trajectory" else 500)
        if not 1 <= steps <= MAX_STEPS:
            raise ValidationError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
        settle = field(doc, "settle", integer, 0)
        if not 0 <= settle < steps:
            raise ValidationError(f"settle must lie in [0, steps), got {settle}")
        seed = field(doc, "seed", integer, 0)
        if seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {seed}")
        period_s = field(doc, "period_s", finite, 1.0)
        if period_s <= 0.0:
            raise ValidationError(f"period_s must be positive, got {period_s:g}")
        n = field(doc, "n", integer, 1000)
        if plant == "fleet" and not 1 <= n <= MAX_FLEET_SIZE:
            raise ValidationError(f"n must lie in [1, {MAX_FLEET_SIZE}] for a fleet, got {n}")
        family = None
        with malformed("scenario"):
            if mode != "trajectory" or "family" in doc:
                family = load_family(os.path.join(os.path.dirname(os.path.abspath(path)),
                                                  string(doc["family"])))
            reference = _reference(doc.get("reference", {}), steps)
        return cls(mode=mode, family=family, steps=steps, settle=settle, seed=seed,
                   n=n,
                   zeta=field(doc, "zeta", finite, 0.0),
                   period_s=period_s, plant=plant,
                   reference=reference,
                   controller=_controller(doc.get("controller", {})),
                   tcl=TclModelSpec.from_json(doc.get("tcl", {})))


def cmd_simulate(ns) -> int:
    scenario = Scenario.read(ns.scenario)
    if scenario.mode == "trajectory":
        traj = tcl_trajectory(scenario.tcl, steps=scenario.steps,
                              seed=scenario.seed, family=scenario.family,
                              zeta=scenario.zeta)
        trajectory_to_csv(traj, ns.out)
        metrics = {
            "epochs": traj.epoch_count,
            "overrides": traj.override_count,
            "override_rate": traj.override_rate,
            "mean_power_fraction": float(traj.mode.mean()),
        }
    elif scenario.mode == "constant":
        zetas = scenario.zeta * np.ones(scenario.steps)
        if scenario.plant == "fleet":
            y, _ = fleet_rollout(scenario.family, zetas, n=scenario.n, seed=scenario.seed)
        else:
            y, _ = meanfield_rollout(scenario.family, zetas)
        signals = SignalSet(period_s=scenario.period_s,
                            samples={"zeta": zetas, "output": y})
        target = scenario.family.ubar_at(scenario.zeta)
        metrics = {"target_mean_power": target,
                   "final_output": float(y[-1]),
                   "final_gap": float(abs(y[-1] - target))}
        signals.to_csv(ns.out)
    else:
        signals = track(scenario.family, scenario.reference, scenario.controller,
                        plant=scenario.plant, n=scenario.n, seed=scenario.seed,
                        period_s=scenario.period_s)
        metrics = tracking_metrics(signals, settle=scenario.settle)
        signals.to_csv(ns.out)
    print(f"wrote {ns.out}")
    metrics_path = ns.metrics or (str(ns.out) + ".metrics.json")
    write_json(metrics_path, envelope("metrics", metrics=metrics))
    print(f"wrote {metrics_path}")
    return EXIT_OK


def cmd_decompose(ns) -> int:
    with open(ns.signal, "r", encoding="utf-8") as fh:
        signals = SignalSet.from_csv(fh.read())
    column = ns.column or next(iter(signals.samples))
    if column not in signals.samples:
        raise ValidationError(f"no column {column!r} in {ns.signal}")
    values = signals[column]
    low, mid, high = frequency_decompose(values, ns.lp_cutoff, ns.hp_cutoff,
                                         signals.period_s)
    out = SignalSet(period_s=signals.period_s, samples={
        "g_r": values, "g_lp": low, "g_mp": mid, "g_hp": high,
    })
    out.to_csv(ns.out)
    for name, band in (("low", low), ("mid", mid), ("high", high)):
        print(f"{name}: mean={band.mean():.6g} rms="
              f"{float((band ** 2).mean()) ** 0.5:.6g}")
    print(f"wrote {ns.out}")
    return EXIT_OK


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not hasattr(ns, "func"):
        parser.print_help()
        return EXIT_PARSE
    try:
        return ns.func(ns)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IntegrationDiverged as exc:
        reached = exc.zeta_reached
        where = f" (last good command {reached:g})" if reached is not None else ""
        print(f"error: design continuation diverged: {exc}{where}",
              file=sys.stderr)
        return EXIT_DIVERGED
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DispatchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run(argv=None) -> int:
    """Process entry point: :func:`main`, after moving every object alive at
    start-up to the collector's permanent generation, which the collection
    at interpreter exit skips.  Those are ~22 000 objects: half the
    interpreter's own, 9 000 numpy's and 1 900 the package's.  Walking them
    took ~30 ms of every CLI process on a 2-core VM.  ``python3 -m ddispatch`` and the
    ``ddispatch`` script start here; callers that stay in their process
    call :func:`main`, which freezes nothing, so their collector keeps
    working."""
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
