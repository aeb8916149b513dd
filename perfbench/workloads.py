"""The four workloads: seeded inputs, set-up, the timed operation, checks.

Each workload is used the same way by ``worker.py``:

    params = draw(seed, index)        # parent side, stdlib only
    state = setup(dc, params)         # timed as part of setup_s
    out = run(dc, state)              # timed as wall_s
    problems = check(dc, state, out)  # correctness gate, untimed
    fingerprint(out)                  # must match between traced/untraced
    reported(out)                     # counts the library itself reports

``dc`` is the imported ``deadcore`` package.  The seed only draws the
inputs; the library sees ordinary generated problems.  Ranges are kept
narrow enough that every draw has the same expected verdict and roughly
the same amount of work.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout
from pathlib import Path

TOL = 1e-8   # IterationControl's default tolerance, used by every solve


def _rng(seed, index, name):
    return random.Random("%s:%d:%d" % (name, seed, index))


def _digest(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _solve_checks(dc, problem, rep, cls, verdict, label=""):
    import numpy as np
    problems = []
    if not rep.converged:
        problems.append("%snot converged (residual %.3e, %d steps)"
                        % (label, rep.residual_sup, rep.steps))
    r = dc.residual(problem, rep.solution)
    rsup = float(np.max(np.abs(problem.grid.interior(r.values))))
    if not rsup <= TOL:
        problems.append("%srecomputed residual %.3e > %.1e" % (label, rsup, TOL))
    if cls.verdict != verdict:
        problems.append("%sverdict %s, expected %s" % (label, cls.verdict, verdict))
    return problems


# --- solve1d_q05 ------------------------------------------------------------

class Solve1dQ05:
    """gamma=0, q=1/2, linear trace, sinsplit weight, n=199, from the subsolution."""

    name = "solve1d_q05"
    why = ("explicit relaxation loop and 1-D Scheme.F do almost all the work; "
           "closed-form damping and the direct sparse supersolution")
    ball = (0.2, 0.8)

    def draw(self, seed, index):
        r = _rng(seed, index, self.name)
        # far below the s-threshold (~1.32): positivity_cone for every draw
        return {"s": r.uniform(0.27, 0.33), "scale": r.uniform(28.0, 32.0)}

    def setup(self, dc, p):
        import numpy as np
        grid = dc.Grid.interval(0.0, 2.0, 199)
        op = dc.OperatorSpec.linear_trace(np.eye(1))
        weight = dc.WeightField.sinsplit(grid, p["s"]).scaled(p["scale"])
        return {"problem": dc.ProblemSpec(grid, op, 0.0, 0.5, weight)}

    def run(self, dc, st):
        rep = dc.solve(st["problem"], init="subsolution", ball=self.ball)
        return rep, dc.classify(rep.solution)

    def check(self, dc, st, out):
        rep, cls = out
        return _solve_checks(dc, st["problem"], rep, cls, "positivity_cone")

    def fingerprint(self, out):
        rep, cls = out
        return [rep.steps, _digest(rep.solution.values), cls.verdict]

    def reported(self, out):
        return {"solver.solve.calls": 1, "solver.solve.steps": out[0].steps}


# --- solve1d_degenerate -----------------------------------------------------

class Solve1dDegenerate(Solve1dQ05):
    """gamma=1, q=0.8 closed-form dead-core example, n=199, subsolution seed."""

    name = "solve1d_degenerate"
    why = ("gamma>0: gradient factor every step, Newton damping, explicit "
           "solve_rhs supersolution and ball eigensolve; checked against the "
           "closed-form dead core")

    def draw(self, seed, index):
        r = _rng(seed, index, self.name)
        # {a > 0} on (0, pi) is (0.886, 2.256); keep the ball well inside
        return {"ball": [r.uniform(1.10, 1.20), r.uniform(1.90, 2.00)]}

    def setup(self, dc, p):
        import numpy as np
        inst = dc.example_instance(1.0, 0.8)
        grid = dc.Grid.interval(inst.domain[0], inst.domain[1], 199)
        op = dc.OperatorSpec.linear_trace(np.eye(1))
        problem = dc.ProblemSpec(grid, op, inst.gamma, inst.q, inst.weight_on(grid))
        return {"problem": problem, "ball": tuple(p["ball"]),
                "exact": inst.solution_on(grid)}

    def run(self, dc, st):
        rep = dc.solve(st["problem"], init="subsolution", ball=st["ball"])
        return rep, dc.classify(rep.solution)

    def check(self, dc, st, out):
        import numpy as np
        rep, cls = out
        problems = _solve_checks(dc, st["problem"], rep, cls, "dead_core")
        h = st["problem"].grid.h[0]
        err = float(np.max(np.abs(rep.solution.values - st["exact"].values)))
        if not err <= 5 * h:
            problems.append("error against the oracle %.3e > 5h = %.3e" % (err, 5 * h))
        return problems


# --- sweep_s -----------------------------------------------------------------

SWEEP_CONFIG = """[problem]
dim = 1
domain = 0,2
n = 99
gamma = 0
q = 0.5
operator = linear_trace
weight = sinsplit
weight_s = 1
weight_scale = 30

[control]
tolerance = 1e-8
init = subsolution
ball = 0.2,0.8
seed = 7

[sweep]
parameter = s
bracket = %.17g,%.17g
probes = 8
bisect_steps = 8

[output]
directory = %s
"""


def _report_fields(text):
    fields = {}
    for line in text.splitlines():
        if " = " in line and not line.startswith("#"):
            k, v = line.split(" = ", 1)
            fields[k] = v
    return fields


class SweepS:
    """`deadcore sweep` in-process: s-threshold, n=99, 8 probes + 8 bisections."""

    name = "sweep_s"
    why = ("16 cold probe solves with supersolution rebuilds and a cached ball "
           "eigenpair, driven through cli.main; the orchestration a sweep repeats")
    # the s-threshold of this problem: estimate and final-bracket width of
    # the sweep over the bracket 0.5,2.5
    reference = (1.3219866071428572, 0.0011160714285713969)
    out_dir = "perfbench/out/sweep"

    def draw(self, seed, index):
        r = _rng(seed, index, self.name)
        return {"bracket": [r.uniform(0.45, 0.55), r.uniform(2.45, 2.55)]}

    def setup(self, dc, p):
        import deadcore.cli  # noqa: F401
        Path(self.out_dir).mkdir(parents=True, exist_ok=True)
        cfg = Path(self.out_dir).parent / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG % (p["bracket"][0], p["bracket"][1],
                                       self.out_dir))
        return {"config": str(cfg)}

    def run(self, dc, st):
        with redirect_stdout(io.StringIO()):
            rc = dc.cli.main(["sweep", "--config", st["config"]])
        out = Path(self.out_dir)
        return rc, (out / "report.txt").read_text(), (out / "sweep.csv").read_text()

    def check(self, dc, st, out):
        rc, report, csv = out
        problems = []
        if rc != 0:
            problems.append("deadcore sweep exited with %d" % rc)
        f = _report_fields(report)
        if f.get("status") != "ok":
            problems.append("sweep status %r" % f.get("status"))
        if f.get("monotone") != "True":
            problems.append("verdicts are not monotone in s")
        rows = [line.split(",") for line in csv.splitlines()
                if line and not line.startswith(("#", "value"))]
        if len(rows) != 16:
            problems.append("%d probes, expected 16" % len(rows))
        bad = [r[0] for r in rows if not float(r[2]) <= TOL]
        if bad:
            problems.append("probes with residual above tolerance: %s" % bad)
        if "estimate" in f:
            lo, hi = (float(t) for t in f["final_bracket"].split(","))
            est, (ref, ref_w) = float(f["estimate"]), self.reference
            if not abs(est - ref) <= (hi - lo) + ref_w:
                problems.append("estimate %.6f not within %.2e of the reference %.6f"
                                % (est, (hi - lo) + ref_w, ref))
        return problems

    def fingerprint(self, out):
        rc, report, csv = out
        return [rc, hashlib.sha256((report + csv).encode()).hexdigest()[:16]]

    def reported(self, out):
        n = sum(1 for line in out[2].splitlines()
                if line and not line.startswith(("#", "value")))
        return {"solver.solve.calls": n, "analysis.estimate_threshold.probes": n}


# --- solve2d_wide ----------------------------------------------------------

class Solve2dWide:
    """2-D (0,2)x(0,1), 59x29 square cells: Pucci M- and HJB inf solves."""

    name = "solve2d_wide"
    why = ("2-D wide-stencil Pucci and Bellman branches of Scheme.F, with "
           "check_axioms and operators.eigenvalues before each solve")
    ball = ((0.2, 0.8), (0.2, 0.8))

    def draw(self, seed, index):
        r = _rng(seed, index, self.name)
        return {"s": r.uniform(0.27, 0.33), "scale": r.uniform(28.0, 32.0),
                "axiom_seeds": [r.randrange(2 ** 31), r.randrange(2 ** 31)]}

    def setup(self, dc, p):
        import numpy as np
        grid = dc.Grid.rectangle(0.0, 2.0, 0.0, 1.0, 59, 29)
        weight = dc.WeightField.sinsplit(grid, p["s"]).scaled(p["scale"])
        ops = (dc.OperatorSpec.pucci_minus(1.0, 2.0),
               dc.OperatorSpec.hjb_inf((np.eye(2), 2.0 * np.eye(2)), 1.0, 2.0))
        return {"problems": [dc.ProblemSpec(grid, op, 0.0, 0.5, weight) for op in ops],
                "axiom_seeds": p["axiom_seeds"]}

    def run(self, dc, st):
        out = []
        for problem, seed in zip(st["problems"], st["axiom_seeds"]):
            ax = dc.check_axioms(problem.operator, 1000, seed)
            rep = dc.solve(problem, init="subsolution", ball=self.ball)
            out.append((ax, rep, dc.classify(rep.solution)))
        return out

    def check(self, dc, st, out):
        problems = []
        for problem, (ax, rep, cls) in zip(st["problems"], out):
            label = problem.operator.variant + ": "
            if not ax.passed:
                problems.append("%saxiom check failed: %r" % (label, ax.counterexample))
            problems += _solve_checks(dc, problem, rep, cls, "dead_core", label)
        return problems

    def fingerprint(self, out):
        return [[ax.trials, rep.steps, _digest(rep.solution.values), cls.verdict]
                for ax, rep, cls in out]

    def reported(self, out):
        return {"solver.solve.calls": len(out),
                "solver.solve.steps": sum(rep.steps for _, rep, _ in out)}


WORKLOADS = {w.name: w for w in (Solve1dQ05(), Solve1dDegenerate(), SweepS(),
                                 Solve2dWide())}
