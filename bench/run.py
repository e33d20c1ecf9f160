"""End-to-end benchmark of the ``ddispatch`` command line pipeline.

Run from the repository root:

    python3 bench/run.py --workload pool_ipd_pipeline --seed 1 --seconds 50 --trace 0

The benchmark is a closed loop with one client: a single parent process
starts one CLI stage process at a time (``python3 -m ddispatch ...``) and
starts the next only after the previous one has exited.  Every stage runs
with ``DDISPATCH_THREADS=1`` and the BLAS thread variables set to 1, so the
numbers describe the single-threaded program.  Inputs are generated from
``--seed`` into a fresh directory under ``.bench_work/``.

With ``--trace 0`` one throw-away ``import ddispatch`` warms the file cache,
then the stage chain is repeated for ``--seconds`` (at least three times) and
the end-to-end metrics are medians over the passes.  Each pass also times
``reference.py``, a fixed computation outside the package, and the reported
times are scaled to the host speed at which it takes REFERENCE_NOMINAL_S:
the speed this shared host gives the machine drifts by 20-40% over minutes,
and the scaling takes that drift out of run-to-run comparisons.  The wall
times as measured are in the environment line, and each pass line gives
every stage's wall time.  Stage failures and failed output checks are
counted in ``failed``; ``failed`` over ``attempted`` is the failed fraction
of stages.  With ``--trace 1`` the chain is replayed in this process through
``ddispatch.cli.main``, untraced and once with spans around every layer's
public API, followed by a few probes of public functions on the workload's
inputs; the output is the per-layer metrics (``--seconds`` does not apply).
Outputs of every stage are checked either way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  ``--smoke`` runs the same stages at tiny sizes
(for testing the harness itself).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# The in-process traced replay loads numpy in this process, so the thread cap
# must be in the environment before anything imports it.  Children inherit it.
os.environ["DDISPATCH_THREADS"] = THREADS
for _var in BLAS_VARS:
    os.environ[_var] = THREADS
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

#: every end-to-end metric is a median over at least this many chain passes,
#: so that one slow pass on the shared host does not move it
MIN_PASSES = 3

#: time of ``reference.py`` at the host speed the reported times are scaled
#: to (its median on the 2-core VM the bounds were set on)
REFERENCE_NOMINAL_S = 2.6

#: a stage process still running this many seconds after the benchmark
#: started is killed (and counted as failed), so a run ends within 180 s
RUN_LIMIT_S = 170.0
_STARTED = time.perf_counter()

#: Single stage times (design, analyze, simulate) are not end-to-end metrics:
#: with a few passes per run they spread past any allowed bound on a shared
#: host, so they are folded into ``pipeline_s`` and only printed per pass.
END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "DDISPATCH_THREADS": os.environ["DDISPATCH_THREADS"],
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "loadavg_before": list(os.getloadavg()),
    }


def build():
    """Byte-compile the package, so no stage pays for compiling it."""
    if not (SRC / "ddispatch" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'ddispatch'}; run from a checkout")
    cmd = [sys.executable, "-m", "compileall", "-q", str(SRC / "ddispatch")]
    if subprocess.run(cmd, cwd=ROOT, timeout=120).returncode != 0:
        _fail(f"build step failed: {' '.join(cmd)}")


def run_stage(argv, cwd: Path, log) -> tuple[float, float, int, float]:
    """Start one CLI process and wait for it.

    Returns (start, wall seconds, exit code, peak RSS in MB).  The peak RSS
    comes from this child's own rusage, not the running maximum over all
    children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ddispatch", *argv], cwd=cwd,
                            stdout=log, stderr=subprocess.STDOUT)
    killer = threading.Timer(max(1.0, _STARTED + RUN_LIMIT_S - start), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage.ru_maxrss / 1024.0


def reference_seconds() -> float:
    """Wall time of one ``reference.py`` process, start to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "reference.py")],
                   cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - start


class Checker:
    """Runs stage output checks, skipping outputs already verified bitwise."""

    def __init__(self, work: Path):
        self.work = work
        self.verified = set()
        self.ctx = {}

    def outputs_ok(self, codes, stages) -> list[str]:
        """Check the stages that ran; return one message per failed stage."""
        errors = []
        outputs = self._digest()
        for stage, code in zip(stages, codes):
            if code != 0:
                errors.append(f"{stage.name}: exit code {code}")
                continue
            key = (stage.name, outputs)
            if key in self.verified:
                continue
            try:
                stage.check(self.work, self.ctx)
            except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                errors.append(f"{stage.name}: {type(exc).__name__}: {exc}")
            else:
                self.verified.add(key)
        return errors

    def _digest(self) -> str:
        """Content hash of every file in the work directory but the logs."""
        digest = hashlib.sha256()
        for path in sorted(self.work.iterdir()):
            if path.is_file() and path.name not in ("stages.log", "spans.csv"):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()


def fresh_workdir(workload: str) -> Path:
    work = WORK / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work


def untraced(stages, work: Path, seconds: float) -> tuple[dict, int, int, dict]:
    """Repeat the stage chain for ``seconds``; medians over the passes.

    ``pipeline_s`` is the sum over the stages of each stage's median wall
    time.  Stages run back to back, so a pass takes that sum plus gaps of
    well under a millisecond; taking each stage's median on its own keeps a
    slow spell of the shared host that hits one stage of one pass out of
    the result.  The model stage is the set-up: ``setup_s`` is its median.
    Both are scaled by REFERENCE_NOMINAL_S over the median reference time;
    the unscaled medians and the reference times are returned for the
    environment line.
    """
    subprocess.run([sys.executable, "-c", "import ddispatch"], cwd=ROOT, timeout=120,
                   check=True)
    checker = Checker(work)
    walls = {s.name: [] for s in stages}
    rss, refs = [], []
    attempted = failed = 0

    def checked(runs, ran):
        nonlocal attempted, failed
        errors = checker.outputs_ok([r[2] for r in runs], ran)
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        attempted += len(runs)
        failed += len(errors)

    begin = time.perf_counter()
    with open(work / "stages.log", "w") as log:
        while True:
            refs.append(reference_seconds())
            runs = [run_stage(s.argv, work, log) for s in stages]
            checked(runs, stages)
            for stage, run in zip(stages, runs):
                walls[stage.name].append(run[1])
            rss.append(max(r[3] for r in runs))
            chain = runs[-1][0] + runs[-1][1] - runs[0][0]
            print("pass " + " ".join(f"{k}_s={v[-1]:.4f}" for k, v in walls.items())
                  + f" chain_s={chain:.4f} peak_rss_mb={rss[-1]:.3f}"
                  + f" reference_s={refs[-1]:.4f}", flush=True)
            # at least MIN_PASSES; after that, start a pass only if it should
            # end within the time given
            elapsed = time.perf_counter() - begin
            if len(rss) >= MIN_PASSES and elapsed * (len(rss) + 1) / len(rss) > seconds:
                break
    medians = {name: statistics.median(w) for name, w in walls.items()}
    wall = {"pipeline_s": sum(medians.values()), "setup_s": medians["model"]}
    scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    values = {name: t * scale for name, t in wall.items()}
    values["peak_rss_mb"] = statistics.median(rss)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, attempted, failed, {"wall": wall, "reference_s": refs}


def import_seconds(repeats: int = 3) -> float:
    """Median time of ``import ddispatch`` inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import ddispatch; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def traced(stages, work: Path, shape: dict) -> tuple[dict, int, int]:
    """In-process replays (warm-up, untraced, traced, untraced), then probes.

    Returns the per-layer metrics.  A metric of a function the workload's
    stages never call reads 0.
    """
    sys.path.insert(0, str(SRC))
    import spans

    import ddispatch

    if not Path(ddispatch.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported ddispatch from {ddispatch.__file__}, not from {SRC}")
    checker = Checker(work)
    attempted = failed = 0

    def replay(tracer=None) -> float:
        nonlocal attempted, failed
        results = spans.replay(stages, work, tracer)
        errors = checker.outputs_ok([code for _, code in results], stages)
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        attempted += len(stages)
        failed += len(errors)
        return sum(wall for wall, _ in results)

    replay()  # warm-up: first calls pay one-off costs that later replays do not
    before = replay()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with_spans = replay(tracer)
    finally:
        tracer.uninstall()
    # untraced replays on both sides, so a drift in machine speed cancels
    plain = 0.5 * (before + replay())
    tracer.write(work / "spans.csv")
    values = spans.layer_metrics(tracer, shape)
    values["trace.overhead_frac"] = (with_spans - plain) / plain
    values["cli.import_s"] = import_seconds()
    attempted += 1
    try:
        values.update(spans.run_probes(work, shape))
    except Exception as exc:  # a probe failure is a failed operation, reported
        print(f"probe failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        failed += 1
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    return metrics, attempted, failed


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the harness")
    ns = parser.parse_args(argv)

    _benchmark_spec()
    build()
    env = environment()
    size = "smoke" if ns.smoke else "full"
    work = fresh_workdir(ns.workload)
    stages = workloads.make_inputs(ns.workload, ns.seed, work, size)
    shape = workloads.SHAPES[ns.workload][size]
    if ns.trace:
        metrics, attempted, failed = traced(stages, work, shape)
    else:
        metrics, attempted, failed, measured = untraced(stages, work, ns.seconds)
        env.update(measured)
    env.update(workload=ns.workload, seed=ns.seed, seconds=ns.seconds, trace=ns.trace,
               size=size, inputs=workloads.inputs_digest(work, stages),
               failed_frac=failed / attempted, loadavg_after=list(os.getloadavg()))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
