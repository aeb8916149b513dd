"""End-to-end and per-layer benchmark of deadcore.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is closed-loop: one client
runs one operation at a time, each in a fresh interpreter
(``perfbench/worker.py``) with BLAS/OpenMP threads pinned to 1 and
``DEADCORE_WORKERS`` unset.  Operations continue until the next one would
end past ``--seconds`` (at least one runs).  Every operation's outputs are
checked; see ``workloads.py``.

--trace 0 prints the end-to-end metrics:
  wall_s       median time of one operation (time to a certified solution
               or threshold), rescaled to the reference host speed
               measured while it runs (``hostspeed.py``; the raw wall
               times are in the environment line)
  setup_s      median over the run's interpreters of fresh start, import
               deadcore and problem construction (three set-up-only
               interpreters plus one per operation), rescaled the same way
  peak_rss_mb  largest ru_maxrss of an operation's interpreter
--trace 1 runs each operation twice with the same inputs, untraced and
traced (``instrument.py``), checks that both give identical outputs and
counts, and prints the per-layer metrics per operation plus
trace.overhead_s, the traced minus the untraced time.  Spans are written
to perfbench/out/.

The last line of standard output is the JSON result; the line before it
records the environment.  ``fail_ratio`` is ``failed / attempted``.
"""

import argparse
import itertools
import json
import os
import select
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 165.0     # the whole run must end well inside 180 s
SETUP_PROBES = 3
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}

# layer call counts each workload must record (the rest of the mapping in
# the per-layer table is timing, which has no exact expectation)
ALL = ("grids.Scheme.F", "grids.residual_field", "dirichlet.solve_rhs",
       "eigen.principal_eigenpair", "solver.solve", "solver.build_subsolution",
       "solver.build_supersolution", "solver.ball_eigenpair", "analysis.classify")
EXERCISED = {
    "solve1d_q05": ALL,
    "solve1d_degenerate": ALL + ("grids.Scheme.upwind_mag2",),
    "sweep_s": ALL + ("analysis.estimate_threshold", "cli.main"),
    "solve2d_wide": ALL + ("operators.check_axioms", "operators.eigenvalues"),
}
IDLE = {  # gamma = 0: no gradient factor
    "solve1d_q05": ("grids.Scheme.upwind_mag2",),
    "solve1d_degenerate": (),
    "sweep_s": ("grids.Scheme.upwind_mag2",),
    "solve2d_wide": ("grids.Scheme.upwind_mag2",),
}


# Which end-to-end metric each layer should move, and where:
#   operators.*                wall_s on solve2d_wide only
#   grids.Scheme.F             wall_s everywhere; most on solve2d_wide, solve1d_q05
#   grids.Scheme.upwind_mag2   wall_s on solve1d_degenerate (0 calls at gamma=0)
#   grids.residual_field       wall_s everywhere (sub/supersolution admission)
#   dirichlet.solve_rhs        wall_s on solve1d_degenerate, solve2d_wide (explicit);
#                              one direct step per call at gamma=0 in 1-D
#   eigen.principal_eigenpair  wall_s on solve1d_degenerate, solve2d_wide
#   solver.solve               wall_s everywhere; self_s mostly solve1d_degenerate
#   solver.build_*, ball_*     wall_s on sweep_s; failures feed fail_ratio
#   analysis.*, cli.main       wall_s on sweep_s only
def per_layer(t, n, overhead_s):
    """Per-layer metrics per operation from totals summed over n operations."""
    def per(k):
        return t.get(k, 0.0) / n

    def ratio(num, den, scale=1.0):
        d = t.get(den, 0.0)
        return scale * t.get(num, 0.0) / d if d else 0.0

    eig_calls = t.get("solver.ball_eigenpair.calls", 0.0)
    return {
        "operators.check_axioms.s": (per("operators.check_axioms.s"), "s"),
        "operators.eigenvalues.calls": (per("operators.eigenvalues.calls"), "count"),
        "operators.eigenvalues.us_per_call": (
            ratio("operators.eigenvalues.s", "operators.eigenvalues.calls", 1e6), "us"),
        "grids.Scheme.F.calls": (per("grids.Scheme.F.calls"), "count"),
        "grids.Scheme.F.us_per_call": (
            ratio("grids.Scheme.F.s", "grids.Scheme.F.calls", 1e6), "us"),
        "grids.Scheme.upwind_mag2.calls": (per("grids.Scheme.upwind_mag2.calls"), "count"),
        "grids.Scheme.upwind_mag2.us_per_call": (
            ratio("grids.Scheme.upwind_mag2.s", "grids.Scheme.upwind_mag2.calls", 1e6),
            "us"),
        "grids.residual_field.calls": (per("grids.residual_field.calls"), "count"),
        "dirichlet.solve_rhs.calls": (per("dirichlet.solve_rhs.calls"), "count"),
        "dirichlet.solve_rhs.steps": (per("dirichlet.solve_rhs.steps"), "count"),
        "dirichlet.solve_rhs.self_s": (per("dirichlet.solve_rhs.self_s"), "s"),
        "dirichlet.solve_rhs.unconverged": (per("dirichlet.solve_rhs.unconverged"),
                                            "count"),
        "eigen.principal_eigenpair.calls": (per("eigen.principal_eigenpair.calls"),
                                            "count"),
        "eigen.principal_eigenpair.iterations": (
            per("eigen.principal_eigenpair.iterations"), "count"),
        "eigen.principal_eigenpair.s": (per("eigen.principal_eigenpair.s"), "s"),
        "eigen.principal_eigenpair.residual": (
            t.get("eigen.principal_eigenpair.residual", 0.0), "1"),
        "solver.solve.calls": (per("solver.solve.calls"), "count"),
        "solver.solve.steps": (per("solver.solve.steps"), "count"),
        "solver.solve.relax_s": (per("solver.solve.relax_s"), "s"),
        "solver.solve.us_per_step": (
            ratio("solver.solve.relax_s", "solver.solve.steps", 1e6), "us"),
        "solver.solve.self_s": (per("solver.solve.self_s"), "s"),
        "solver.solve.unconverged": (per("solver.solve.unconverged"), "count"),
        "solver.build_supersolution.calls": (per("solver.build_supersolution.calls"),
                                             "count"),
        "solver.build_supersolution.s": (per("solver.build_supersolution.s"), "s"),
        "solver.build_subsolution.s": (per("solver.build_subsolution.s"), "s"),
        "solver.build_subsolution.failures": (per("solver.build_subsolution.raises"),
                                              "count"),
        "solver.ball_eigenpair.calls": (per("solver.ball_eigenpair.calls"), "count"),
        "solver.ball_eigenpair.hit_ratio": (
            (eig_calls - t.get("solver.ball_eigenpair.misses", 0.0)) / eig_calls
            if eig_calls else 0.0, "ratio"),
        "analysis.estimate_threshold.s": (per("analysis.estimate_threshold.s"), "s"),
        "analysis.estimate_threshold.probes": (
            per("analysis.estimate_threshold.probes"), "count"),
        "analysis.estimate_threshold.useful_ratio": (
            ratio("analysis.estimate_threshold.useful",
                  "analysis.estimate_threshold.probes"), "ratio"),
        "analysis.classify.s": (per("analysis.classify.s"), "s"),
        "cli.main.self_s": (per("cli.main.self_s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def add_totals(acc, counts, speed):
    """Sum one operation's counts into acc; times at reference host speed."""
    for k, v in counts.items():
        if k.endswith(".residual"):
            acc[k] = max(acc.get(k, 0.0), v)
        else:
            acc[k] = acc.get(k, 0.0) + (v * speed if k.endswith((".s", "_s")) else v)


def transparency(pl, tr):
    """Problems if the traced twin's outputs or counts differ from the untraced."""
    out = []
    if tr["fingerprint"] != pl["fingerprint"]:
        out.append("traced outputs %r differ from untraced %r"
                   % (tr["fingerprint"], pl["fingerprint"]))
    out += ["%s traced %r, untraced %r" % (k, tr["counts"].get(k), v)
            for k, v in pl["counts"].items() if tr["counts"].get(k) != v]
    return out


def worker_env():
    env = dict(os.environ)
    env.pop("DEADCORE_WORKERS", None)
    env.pop("PYTHONPATH", None)
    env.update(PINNED)
    return env


def spawn(job, deadline):
    """Run one worker; returns (setup_s or None, result dict or None, error)."""
    err_path = OUT / "worker.err"
    t0 = perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=err,
            text=True)
        try:
            left = deadline - perf_counter()
            ready, _, _ = select.select([proc.stdout], [], [], max(left, 0.0))
            line = proc.stdout.readline() if ready else ""
            setup_s = None
            if line.startswith("ready "):
                # fresh start to built problems, less the calibration
                # kernels' time, at reference host speed
                factor, kernel_s = (float(t) for t in line.split()[1:])
                setup_s = (perf_counter() - t0 - kernel_s) * factor
            out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            out = None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if out is None:
        return setup_s, None, "worker timed out"
    lines = (line + out).strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err_path.read_text().strip().splitlines()[-5:]
        return setup_s, None, "worker exited %d: %s" % (proc.returncode, " | ".join(tail))
    if job["mode"] == "setup":
        return setup_s, None, None if setup_s is not None else "no ready line"
    return setup_s, json.loads(lines[-1]), None


def environment(args):
    load1, load5, _ = os.getloadavg()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WORKLOADS[args.workload].why,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "threads": PINNED,
        "loadavg_1m": load1, "loadavg_5m": load5,
        "closed_loop": "1 client, 1 operation in flight, fresh interpreter each",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "deadcore" / "__init__.py").is_file():
        print("error: no deadcore sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    env = environment(args)
    errors = []

    setups = []
    for i in range(SETUP_PROBES):
        s, _, err = spawn({"workload": wl.name, "params": wl.draw(args.seed, i),
                           "mode": "setup", "spans": None}, deadline)
        if err:
            errors.append("set-up probe %d: %s" % (i, err))
        else:
            setups.append(s)

    plain, traced, durations = [], [], []
    attempted = failed = 0
    t_measure = perf_counter()
    for i in itertools.count():
        params = wl.draw(args.seed, i)
        t_op = perf_counter()
        for mode in ("plain", "traced") if args.trace else ("plain",):
            spans = (str(OUT / ("spans-%s-seed%d-%d.json" % (wl.name, args.seed, i)))
                     if mode == "traced" else None)
            s, res, err = spawn({"workload": wl.name, "params": params,
                                 "mode": mode, "spans": spans}, deadline)
            attempted += 1
            problems = [err] if err else list(res["problems"])
            if res and mode == "traced":
                problems += transparency(plain[-1], res)
            if problems:
                failed += 1
                errors += ["operation %d (%s): %s" % (i, mode, p) for p in problems]
            if res is None:
                break
            if s is not None:
                setups.append(s)
            (plain if mode == "plain" else traced).append(res)
        durations.append(perf_counter() - t_op)
        est = statistics.median(durations)
        now = perf_counter()
        if errors or now - t_measure + est > args.seconds or now + 1.5 * est > deadline:
            break

    metrics = {}
    if args.trace and traced:
        totals = {}
        for tr in traced:
            add_totals(totals, tr["counts"], tr["op_s"] / tr["raw_s"])
        for name in EXERCISED[wl.name]:
            if not totals.get(name + ".calls"):
                errors.append("layer %s recorded no calls on %s" % (name, wl.name))
        for name in IDLE[wl.name]:
            if totals.get(name + ".calls"):
                errors.append("layer %s recorded %d calls on %s, expected 0"
                              % (name, totals[name + ".calls"], wl.name))
        overhead = statistics.mean(tr["op_s"] - pl["op_s"] for pl, tr in zip(plain, traced))
        metrics = per_layer(totals, len(traced), overhead)
    elif not args.trace and plain and setups:
        metrics = {"wall_s": (statistics.median(r["op_s"] for r in plain), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (max(r["rss_mb"] for r in plain), "MB")}

    for e in errors:
        print("check failed: %s" % e, file=sys.stderr)
    env["operations"] = len(plain)
    env["op_s"] = [r["op_s"] for r in plain]
    env["raw_wall_s"] = [r["raw_s"] for r in plain]
    env["steps"] = [sum(v for k, v in r["counts"].items() if k.endswith(".steps"))
                    for r in plain]
    env["setup_samples"] = len(setups)
    env["run_s"] = perf_counter() - start
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not errors and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
