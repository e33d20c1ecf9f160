"""Command line front end: build load models, synthesize design families,
analyze their linearizations, run simulations, and decompose signals.

The package applies the thread cap from ``DDISPATCH_THREADS`` as its first
step on import, before numpy loads its linear algebra backend, so the cap
holds for ``python -m ddispatch`` and the console script alike.  Exit codes
are stable: 0 success, 2 argument or parse problems, 3 validation failures,
4 mathematical preconditions not met, 5 design continuation divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_DIVERGED = 5


def _apply_thread_cap():
    cap = os.environ.get("DDISPATCH_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _positive(cast, noun: str):
    """Argument type: a positive value of ``cast``."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        if value <= 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value
    return parse


_positive_float = _positive(float, "a number")
_positive_int = _positive(int, "an integer")


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
    p.add_argument("--samples", type=_positive_int, default=20000,
                   help="Monte Carlo samples per state (tcl only)")
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
    p.add_argument("--zeta", type=float, nargs="+", required=True,
                   help="command values to linearize at")
    p.add_argument("--theta-count", type=_positive_int, default=2048)
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


def _read_spec_doc(path: str | None) -> dict:
    if path is None:
        return {}
    from .fileio import read_json

    doc = read_json(path)
    if not isinstance(doc, dict):
        raise json.JSONDecodeError("expected a JSON object", "", 0)
    return doc


def _parse(what: str, parse, value):
    """``parse(value)``, with a malformed value reported as a validation error
    (malformed JSON stays a parse error)."""
    from .errors import ValidationError

    try:
        return parse(value)
    except (ValidationError, json.JSONDecodeError):
        raise
    except KeyError as exc:
        raise ValidationError(f"bad {what}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what}: {exc}") from None


def _field(doc: dict, key: str, parse, default=None):
    """One parsed document field; it is required unless it has a default."""
    from .errors import ValidationError

    if key in doc:
        return _parse(f"field {key!r}", parse, doc[key])
    if default is None:
        raise ValidationError(f"missing field {key!r}")
    return default


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _merge_spec(defaults: dict, doc: dict, what: str) -> dict:
    from .errors import ValidationError

    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValidationError(
            f"unknown {what} spec fields: {', '.join(sorted(unknown))}"
        )
    merged = dict(defaults)
    merged.update(doc)
    return merged


def cmd_model(ns) -> int:
    from .errors import ValidationError
    from .loads import (PoolModelSpec, TclModelSpec, build_pool_model,
                        build_tcl_model, save_model)
    from .markov import check_irreducible_aperiodic

    doc = _read_spec_doc(ns.spec)
    if ns.kind == "pool":
        spec = _parse("pool spec", PoolModelSpec.from_json,
                      _merge_spec(PoolModelSpec().to_json(), doc, "pool"))
        model = build_pool_model(spec)
    elif ns.kind == "tcl":
        spec = _parse("tcl spec", TclModelSpec.from_json,
                      _merge_spec(TclModelSpec().to_json(), doc, "tcl"))
        model = build_tcl_model(spec, samples_per_state=ns.samples,
                                seed=ns.seed)
    else:
        if ns.spec is None:
            raise ValidationError("custom models need --spec with entries/util")
        model = _parse("custom spec", _custom_model, doc)
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


def _custom_model(doc: dict):
    import numpy as np

    from .design import LoadStateSpace
    from .errors import ValidationError
    from .loads import LoadModel
    from .markov import StateFunction, StochasticMatrix

    if "entries" not in doc or "util" not in doc:
        raise ValidationError("custom spec needs 'entries' and 'util'")
    s0 = StochasticMatrix(np.asarray(doc["entries"], dtype=float))
    if not s0.is_square:
        raise ValidationError("custom kernel must be square")
    util = StateFunction(np.asarray(doc["util"], dtype=float),
                         units=str(doc.get("units", "")))
    space = LoadStateSpace(n_control=s0.dim, n_exo=1, util=util,
                           anchor=int(doc.get("anchor", 0)))
    return LoadModel(kind="custom", spec_doc=doc, space=space, s0=s0,
                     gamma=float(doc.get("gamma", 1.0)))


def _scaled_space(ns, base, space):
    """Apply --util-scale: an exact units change for the command variable."""
    import dataclasses

    import numpy as np

    from .design import _zero_direction
    from .errors import ValidationError
    from .markov import StateFunction

    if ns.util_scale == "auto":
        # sup norm of the exponent rate the chosen design kind would apply
        scale = float(np.abs(_zero_direction(ns.kind, base, space)).max())
        if scale <= 0.0:
            scale = 1.0
    else:
        try:
            scale = float(ns.util_scale)
        except ValueError:
            raise ValidationError(
                f"--util-scale must be a positive number or 'auto', "
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
    import numpy as np

    from .design import build_exponential_family, save_family, solve_design_ode
    from .loads import load_model, synthesis_inputs

    model = _parse("model document", load_model, ns.model)
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
    save_family(family, ns.out)
    drops = int((np.diff(family.ubars) < -1e-8).sum())
    print(f"family kind={family.kind} route={ns.route} "
          f"grid=[{family.zeta_grid[0]:g}, {family.zeta_grid[-1]:g}] "
          f"points={family.zeta_grid.size}")
    print(f"mean power at grid ends: {family.ubars[0]:.6g} .. "
          f"{family.ubars[-1]:.6g}; decreasing steps beyond tolerance: {drops}")
    print(f"wrote {ns.out}")
    return EXIT_OK


def cmd_analyze(ns) -> int:
    from .design import load_family
    from .fileio import write_json
    from .linearize import bode_export, linearize, positive_real_check

    family = _parse("family document", load_family, ns.family)
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
            "sigma2": resp.sigma2,
            "positive_real": bool(resp.realness_margin >= -1e-8),
        })
        print(f"zeta={z:g} margin={resp.realness_margin:.3e} "
              f"sigma2={resp.sigma2:.6g}")
    bode_export(responses, path=ns.out, sample_period=ns.sample_period)
    report_path = ns.report or (str(ns.out) + ".passivity.json")
    write_json(report_path, {"format_version": 1, "payload": "passivity",
                             "results": results})
    print(f"wrote {ns.out} and {report_path}")
    return EXIT_OK


def _resolve(base_path: str, rel: str) -> str:
    """``rel`` relative to the directory of ``base_path`` (absolute paths pass)."""
    return os.path.join(os.path.dirname(os.path.abspath(base_path)), rel)


def _build_reference(doc: dict, steps: int):
    import numpy as np

    from .errors import ValidationError

    kind = doc.get("kind", "constant")
    amp = _field(doc, "amplitude", float, 0.0)
    if kind == "constant":
        return amp * np.ones(steps)
    if kind == "sine":
        period = _field(doc, "period_steps", float, 100.0)
        return amp * np.sin(2.0 * np.pi * np.arange(steps) / period)
    if kind == "square":
        period = _field(doc, "period_steps", float, 100.0)
        return amp * np.sign(np.sin(2.0 * np.pi * np.arange(steps) / period))
    raise ValidationError(f"unknown reference kind {kind!r}")


def cmd_simulate(ns) -> int:
    import numpy as np

    from .design import load_family
    from .errors import ValidationError
    from .fileio import read_json, write_json
    from .sim import (SignalSet, TrackingConfig, fleet_rollout,
                      meanfield_rollout, track, tracking_metrics)

    scenario = read_json(ns.scenario)
    if not isinstance(scenario, dict) or scenario.get("payload") != "scenario":
        raise ValidationError("not a scenario document")
    mode = scenario.get("mode", "constant")
    period_s = _field(scenario, "period_s", float, 1.0)
    seed = _field(scenario, "seed", int, 0)
    metrics_path = ns.metrics or (str(ns.out) + ".metrics.json")

    if mode == "trajectory":
        metrics = _simulate_trajectory(ns, scenario, seed)
    else:
        family = _parse("family document", load_family,
                        _resolve(ns.scenario, _field(scenario, "family", str)))
        steps = _field(scenario, "steps", int, 500)
        if mode == "constant":
            zeta = _field(scenario, "zeta", float, 0.0)
            if scenario.get("plant", "meanfield") == "fleet":
                y, _ = fleet_rollout(family, zeta * np.ones(steps),
                                     n=_field(scenario, "n", int, 1000), seed=seed)
            else:
                y, _ = meanfield_rollout(family, zeta * np.ones(steps))
            signals = SignalSet(period_s=period_s, samples={
                "zeta": zeta * np.ones(steps), "output": y,
            })
            target = family.ubar_at(zeta)
            metrics = {"target_mean_power": target,
                       "final_output": float(y[-1]),
                       "final_gap": float(abs(y[-1] - target))}
        elif mode == "track":
            ref = _build_reference(_field(scenario, "reference", _object, {}), steps)
            config = _parse("controller", lambda doc: TrackingConfig(
                kind=doc.get("kind", "pi"), kp=doc.get("kp"), ki=doc.get("ki"),
                zeta_limit=doc.get("zeta_limit"),
                anti_windup=bool(doc.get("anti_windup", True)),
            ), _field(scenario, "controller", _object, {}))
            signals = track(family, ref, config,
                            plant=scenario.get("plant", "meanfield"),
                            n=_field(scenario, "n", int, 1000), seed=seed,
                            period_s=period_s)
            metrics = tracking_metrics(signals,
                                       settle=_field(scenario, "settle", int, 0))
        else:
            raise ValidationError(f"unknown scenario mode {mode!r}")
        signals.to_csv(ns.out)
        print(f"wrote {ns.out}")

    write_json(metrics_path, {"format_version": 1, "payload": "metrics",
                              "metrics": metrics})
    print(f"wrote {metrics_path}")
    return EXIT_OK


def _simulate_trajectory(ns, scenario: dict, seed: int) -> dict:
    from .design import load_family
    from .loads import TclModelSpec, tcl_trajectory, trajectory_to_csv

    spec = _parse("tcl spec", TclModelSpec.from_json,
                  _merge_spec(TclModelSpec().to_json(),
                              _field(scenario, "tcl", _object, {}), "tcl"))
    family = None
    if "family" in scenario:
        family = _parse("family document", load_family,
                        _resolve(ns.scenario, _field(scenario, "family", str)))
    traj = tcl_trajectory(spec, steps=_field(scenario, "steps", int, 10000),
                          seed=seed, family=family,
                          zeta=_field(scenario, "zeta", float, 0.0))
    trajectory_to_csv(traj, ns.out)
    print(f"wrote {ns.out}")
    return {
        "epochs": traj.epoch_count,
        "overrides": traj.override_count,
        "override_rate": traj.override_rate,
        "mean_power_fraction": float(traj.mode.mean()),
    }


def cmd_decompose(ns) -> int:
    from .errors import ValidationError
    from .sim import SignalSet, frequency_decompose

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
    _apply_thread_cap()
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not hasattr(ns, "func"):
        parser.print_help()
        return EXIT_PARSE

    from .errors import (BadCutoffs, DispatchError, IntegrationDiverged,
                         LatticeMismatch, ValidationError)

    try:
        return ns.func(ns)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IntegrationDiverged as exc:
        reached = exc.zeta_reached
        where = f" (last good command {reached:g})" if reached is not None else ""
        print(f"error: design continuation diverged: {exc}{where}",
              file=sys.stderr)
        return EXIT_DIVERGED
    except (ValidationError, LatticeMismatch, BadCutoffs) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DispatchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
