"""Benchmark workloads: seeded inputs, the CLI stage chain, and output checks.

Each workload is a chain of ``ddispatch`` subcommands that a user would run
one after another.  The seed picks the input documents (load power, tracking
reference, fleet seed); the shapes that set the amount of
work (grid sizes, step counts, fleet size) are fixed per workload, so runs
with different seeds do the same work on different numbers.

Why each workload exists:

* ``pool_ipd_pipeline``: the design ODE (markov solves and design tilts) and
  the 2048-point transfer sweep (linearize) do most of the work; the
  601-point family is rebuilt by ``load_family`` in three later stages and
  ``kernel_at`` runs once per mean-field step.  No fleet.
* ``pool_fleet_track``: ``sim.fleet_step`` on N = 100,000 agents does almost
  all the work and sets peak memory.  The design is a fixed-direction
  (myopic) family and there is no analyze stage (only the tracking loop's
  ``dc_gain``), so ODE and sweep optimisations should read "no change" here.

A third chain (thermostatic model, spd design, long single-unit trajectory)
is left out: a third workload would cut every run short enough that the
chain medians no longer hold still on a shared two-core host.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: work shapes per workload; ``smoke`` shapes exercise the same stages at tiny
#: sizes so the harness itself can be tested in seconds
SHAPES = {
    "pool_ipd_pipeline": {
        "full": {"zeta_max": 3.0, "step": 0.01, "zetas": (-2.0, 0.0, 2.0),
                 "theta_count": 2048, "steps": 3000, "settle": 100},
        "smoke": {"zeta_max": 0.5, "step": 0.01, "zetas": (-0.25, 0.0, 0.25),
                  "theta_count": 16, "steps": 400, "settle": 100},
    },
    "pool_fleet_track": {
        "full": {"zeta_max": 1.0, "step": 0.01, "steps": 120, "settle": 20,
                 "n": 100_000},
        "smoke": {"zeta_max": 0.1, "step": 0.01, "steps": 5, "settle": 0, "n": 1000},
    },
}

WORKLOADS = tuple(SHAPES)

#: a tracking run passes when its rms error is at most this share of the rms
#: deviation the reference asks for (a loop that does nothing scores 1; the
#: PI loop scores 0.16 to 0.55 on these references), plus, for a fleet,
#: _FLEET_NOISE / sqrt(N) of nominal power for sampling noise.  The fleet term
#: is loose on purpose: a plant exact in law but drawing different random
#: numbers must still pass.
TRACK_SHARE = 0.75
_FLEET_NOISE = 3.0


@dataclass(frozen=True)
class Stage:
    """One CLI invocation of a workload and the check of what it wrote."""

    name: str
    argv: tuple
    check: Callable[[Path, dict], None]


class CheckFailed(Exception):
    """A stage output that is missing or wrong."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh
                if line.strip() and not line.startswith("#")]


def _invariant(kernels: np.ndarray) -> np.ndarray:
    """Invariant pmfs of a stack of per-step kernels (k x d x d)."""
    d = kernels.shape[-1]
    a = np.swapaxes(kernels, -1, -2) - np.eye(d)
    a[..., -1, :] = 1.0
    b = np.zeros(kernels.shape[:-1])
    b[..., -1] = 1.0
    return np.linalg.solve(a, b[..., None])[..., 0]


def _mean_powers(doc: dict) -> np.ndarray:
    """Steady mean output at every grid point of a family document.

    An independent evaluation of the tilted kernels: per-step kernel
    (1 - gamma) I + gamma S for composed families, S for direct ones,
    with S the base tilted by the design function.  The pool model has no
    exogenous state, so the design function is not lifted.
    """
    space = doc["space"]
    base = np.asarray(doc["base"], dtype=float)
    h_grid = np.asarray(doc["h_grid"], dtype=float)
    util = np.asarray(space["util"], dtype=float)
    _require(int(space["n_exo"]) == 1, "family has an exogenous state; expected a pool")
    gamma = doc["structure"].get("gamma")
    d = base.shape[0]
    out = np.empty(len(h_grid))
    for lo in range(0, len(h_grid), 64):
        h = h_grid[lo:lo + 64]
        pair = np.broadcast_to(h[:, None, :], (len(h), d, d))
        pair = pair - pair.max(axis=2, keepdims=True)
        s = base * np.exp(pair)
        s /= s.sum(axis=2, keepdims=True)
        if gamma is not None:
            s = (1.0 - gamma) * np.eye(d) + gamma * s
        out[lo:lo + 64] = _invariant(s) @ util
    return out


# -- per-stage checks --------------------------------------------------------
#
# Each check reads what its stage wrote and raises CheckFailed.  ``ctx`` carries
# values one stage's check hands to a later one (nominal mean power).


def _check_model(dim: int):
    def check(work: Path, ctx: dict):
        doc = _read_json(work / "model.json")
        _require(doc.get("payload") == "load-model" and doc.get("kind") == "pool",
                 "model.json is not a pool load model")
        s0 = np.asarray(doc["s0"], dtype=float)
        _require(s0.shape == (dim, dim), f"model has shape {s0.shape}, expected {dim}")
        duty = doc["diagnostics"]["duty_cycle"]
        _require(abs(duty - 0.5) <= 1e-6, f"pool duty cycle {duty!r} is not 0.5")
        gamma = float(doc["gamma"])
        p0 = (1.0 - gamma) * np.eye(dim) + gamma * s0
        ctx["model_pi"] = _invariant(p0)
    return check


def _check_family(zeta_max: float, step: float):
    def check(work: Path, ctx: dict):
        doc = _read_json(work / "family.json")
        _require(doc.get("payload") == "design-family", "family.json is not a family")
        points = int(round(2 * zeta_max / step)) + 1
        _require(len(doc["zeta_grid"]) == points,
                 f"family has {len(doc['zeta_grid'])} grid points, expected {points}")
        ubars = _mean_powers(doc)
        _require(bool(np.all(np.isfinite(ubars))), "family mean power is not finite")
        drop = float(np.diff(ubars).min())
        _require(drop >= -1e-8, f"family mean power decreases by {-drop:.3e}")
        util = np.asarray(doc["space"]["util"], dtype=float)
        nominal = float(ctx["model_pi"] @ util)
        mid = ubars[points // 2]
        _require(abs(mid - nominal) <= 1e-9 * max(1.0, abs(nominal)),
                 f"ubar(0) = {mid!r}, model duty x power gives {nominal!r}")
        ctx["ubar0"] = nominal
    return check


def _check_analyze(zetas, theta_count: int):
    def check(work: Path, ctx: dict):
        results = _read_json(work / "bode.csv.passivity.json")["results"]
        _require(len(results) == len(zetas), "passivity report has the wrong length")
        for r in results:
            _require(math.isfinite(r["realness_margin"]),
                     f"non-finite realness margin at zeta {r['zeta']}")
            _require(math.isfinite(r["sigma2"]) and r["sigma2"] > 0.0,
                     f"sigma2 {r['sigma2']!r} at zeta {r['zeta']} is not positive")
        rows = _csv_rows(work / "bode.csv")
        _require(len(rows) == theta_count + 1, "Bode CSV has the wrong row count")
    return check


def _check_track(steps: int, settle: int, n: int | None):
    def check(work: Path, ctx: dict):
        metrics = _read_json(work / "run.csv.metrics.json")["metrics"]
        rows = _csv_rows(work / "run.csv")
        _require(len(rows) == steps + 1, "signal CSV has the wrong row count")
        _require(rows[0][:2] == ["t_s", "reference"], "signal CSV has the wrong header")
        reference = np.asarray([r[1] for r in rows[1 + settle:]], dtype=float)
        asked = np.sqrt(np.mean((reference / ctx["ubar0"] - 1.0) ** 2))
        tol = TRACK_SHARE * asked + (0.0 if n is None else _FLEET_NOISE / math.sqrt(n))
        rel = metrics["rms_error"] / ctx["ubar0"]
        _require(math.isfinite(rel) and rel <= tol,
                 f"rms tracking error {rel:.3e} of nominal power exceeds {tol:.3e}")
    return check


def _check_decompose(steps: int):
    def check(work: Path, ctx: dict):
        rows = _csv_rows(work / "bands.csv")
        _require(rows[0] == ["t_s", "g_r", "g_lp", "g_mp", "g_hp"],
                 "bands CSV has the wrong header")
        data = np.asarray(rows[1:], dtype=float)
        _require(len(data) == steps, "bands CSV has the wrong row count")
        gap = np.abs(data[:, 1] - data[:, 2:].sum(axis=1)).max()
        _require(gap <= 1e-9 * max(1.0, np.abs(data[:, 1]).max()),
                 f"bands do not add back to the signal (gap {gap:.3e})")
    return check


# -- inputs ------------------------------------------------------------------


def _write(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _track_scenario(rng: random.Random, shape: dict, plant: str) -> dict:
    doc = {
        "format_version": 1, "payload": "scenario", "mode": "track",
        "family": "family.json", "steps": shape["steps"], "period_s": 300.0,
        "seed": rng.randrange(2 ** 31), "plant": plant,
        "reference": {"kind": "sine", "amplitude": round(rng.uniform(0.03, 0.05), 4),
                      "period_steps": rng.randrange(300, 500)},
        "settle": shape["settle"],
    }
    if plant == "fleet":
        doc["n"] = shape["n"]
    return doc


def make_inputs(workload: str, seed: int, work: Path, size: str = "full") -> list[Stage]:
    """Write the workload's input documents into ``work``; return its stages."""
    shape = SHAPES[workload][size]
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    zmax, step = shape["zeta_max"], shape["step"]
    design = ("design", "--model", "model.json", "--zeta-max", f"{zmax:g}",
              "--step", f"{step:g}", "--out", "family.json")
    check_design = _check_family(zmax, step)

    _write(work / "spec.json", {"power_kw": round(rng.uniform(0.8, 1.25), 4)})
    model = Stage("model", ("model", "--kind", "pool", "--spec", "spec.json",
                            "--out", "model.json"), _check_model(96))
    simulate = ("simulate", "--scenario", "scenario.json", "--out", "run.csv")
    if workload == "pool_fleet_track":
        _write(work / "scenario.json", _track_scenario(rng, shape, "fleet"))
        return [
            model,
            Stage("design", design + ("--kind", "myopic"), check_design),
            Stage("simulate", simulate,
                  _check_track(shape["steps"], shape["settle"], shape["n"])),
        ]

    _write(work / "scenario.json", _track_scenario(rng, shape, "meanfield"))
    return [
        model,
        Stage("design", design + ("--kind", "ipd", "--route", "compose",
                                  "--util-scale", "auto"), check_design),
        Stage("analyze", ("analyze", "--family", "family.json", "--zeta",
                          *(f"{z:g}" for z in shape["zetas"]),
                          "--theta-count", str(shape["theta_count"]), "--out", "bode.csv"),
              _check_analyze(shape["zetas"], shape["theta_count"])),
        Stage("simulate", simulate, _check_track(shape["steps"], shape["settle"], None)),
        Stage("decompose", ("decompose", "--signal", "run.csv", "--column", "output",
                            "--lp-cutoff", "0.00002", "--hp-cutoff", "0.0002",
                            "--out", "bands.csv"),
              _check_decompose(shape["steps"])),
    ]


def inputs_digest(work: Path, stages: list[Stage]) -> str:
    """Content hash of the generated inputs: documents and stage arguments."""
    digest = hashlib.sha256(repr([s.argv for s in stages]).encode())
    for name in ("spec.json", "scenario.json"):
        digest.update((work / name).read_bytes())
    return digest.hexdigest()
