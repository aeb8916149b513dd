"""Outside-in instrumentation of the deadcore layers.

The wrappers live here, in the benchmark, and are installed at run time;
the library is not edited.  A function is replaced at every module
binding that holds it (``solver`` and ``eigen`` import ``solve_rhs`` by
name, so patching ``deadcore.dirichlet.solve_rhs`` alone would record
nothing), and methods are replaced on the class.

Two modes:

* untraced: only ``solver.solve``, ``solver.build_subsolution`` and
  ``dirichlet.solve_rhs`` are wrapped, to count failures (raises and
  ``converged=False`` reports) and calls/steps.  They run a few hundred
  times per operation, so the cost is negligible.
* traced: every target below records a span ``[name, start, end, parent,
  leaf_time]`` in memory.  The per-step hot calls (``Scheme.F``,
  ``Scheme.upwind_mag2``, ``operators.eigenvalues``) are leaves: they add
  their count and time to an aggregate and to their parent span instead
  of storing one span per call, which would cost hundreds of MB.
"""

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, kind); kind is "span" or "leaf"
TARGETS = (
    ("operators", "check_axioms", "span"),
    ("operators", "eigenvalues", "leaf"),
    ("grids", "Scheme.F", "leaf"),
    ("grids", "Scheme.upwind_mag2", "leaf"),
    ("grids", "residual_field", "span"),
    ("dirichlet", "solve_rhs", "span"),
    ("eigen", "principal_eigenpair", "span"),
    ("solver", "solve", "span"),
    ("solver", "build_subsolution", "span"),
    ("solver", "build_supersolution", "span"),
    ("solver", "ball_eigenpair", "span"),
    ("analysis", "estimate_threshold", "span"),
    ("analysis", "classify", "span"),
    ("cli", "main", "span"),
)

# wrapped in both modes: they report failures and the counts the
# transparency check compares
COUNTED = ("solver.solve", "solver.build_subsolution", "dirichlet.solve_rhs")


class Recorder:
    """In-memory spans, leaf aggregates and counters of one operation."""

    def __init__(self, timed):
        self.timed = timed
        self.active = False
        self.spans = []
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(float)
        self.failures = []

    def returned(self, name, out, bound):
        c = self.counts
        c[name + ".calls"] += 1
        if name in ("solver.solve", "dirichlet.solve_rhs"):
            c[name + ".steps"] += out.steps
            if not out.converged:
                c[name + ".unconverged"] += 1
                self.failures.append("%s returned converged=False (residual %.3e)"
                                     % (name, out.residual_sup))
        elif name == "eigen.principal_eigenpair":
            c[name + ".iterations"] += out.iterations
            c[name + ".residual"] = max(c[name + ".residual"], out.residual)
        elif name == "analysis.estimate_threshold":
            n = len(out.probes)
            c[name + ".probes"] += n
            if out.final_bracket is not None:
                # the two probes around the flip plus every bisection
                c[name + ".useful"] += 2 + n - bound.arguments["probes"]

    def raised(self, name, exc):
        self.counts[name + ".calls"] += 1
        self.counts[name + ".raises"] += 1
        if name == "solver.build_subsolution":
            self.failures.append("%s raised %s: %s"
                                 % (name, type(exc).__name__, exc))


def _span_wrapper(rec, name, fn):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = None
        if rec.timed:
            parent = rec.stack[-1] if rec.stack else -1
            span = [name, perf_counter(), 0.0, parent, 0.0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            rec.raised(name, exc)
            raise
        finally:
            if span is not None:
                span[2] = perf_counter()
                rec.stack.pop()
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        rec.returned(name, out, bound)
        return out
    return wrapper


def _leaf_wrapper(rec, name, fn):
    agg = rec.leaves[name]

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        agg[0] += 1
        agg[1] += dt
        if rec.stack:
            rec.spans[rec.stack[-1]][4] += dt
        return out
    return wrapper


def install(rec):
    """Wrap the targets at every binding in the loaded deadcore modules.

    Returns {name: number of bindings replaced}.
    """
    import deadcore.cli  # noqa: F401  (cli is not imported by the package)
    mods = [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "deadcore" or k.startswith("deadcore."))]
    bindings = {}
    for modname, attr, kind in TARGETS:
        name = "%s.%s" % (modname, attr)
        if not rec.timed and name not in COUNTED:
            continue
        home = sys.modules["deadcore." + modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            fn = getattr(cls, meth)
            setattr(cls, meth, _leaf_wrapper(rec, name, fn) if kind == "leaf"
                    else _span_wrapper(rec, name, fn))
            bindings[name] = 1
            continue
        fn = getattr(home, attr)
        wrapped = (_leaf_wrapper(rec, name, fn) if kind == "leaf"
                   else _span_wrapper(rec, name, fn))
        n = 0
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapped)
                    n += 1
        bindings[name] = n
    return bindings


def totals(rec):
    """Raw per-operation totals: counts, inclusive and self seconds."""
    out = dict(rec.counts)
    for name, (calls, secs) in rec.leaves.items():
        out[name + ".calls"] = calls
        out[name + ".s"] = secs
    spans = rec.spans
    child = [s[4] for s in spans]          # time covered by leaf calls
    sub_super = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            dur = s[2] - s[1]
            child[s[3]] += dur
            if s[0] in ("solver.build_subsolution", "solver.build_supersolution"):
                sub_super[s[3]] += dur
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        out[s[0] + ".s"] = out.get(s[0] + ".s", 0.0) + dur
        out[s[0] + ".self_s"] = out.get(s[0] + ".self_s", 0.0) + dur - child[i]
        if s[0] == "solver.solve":
            out["solver.solve.relax_s"] = (out.get("solver.solve.relax_s", 0.0)
                                           + dur - sub_super[i])
    if rec.timed:
        # principal_eigenpair calls made from inside ball_eigenpair are misses
        out["solver.ball_eigenpair.misses"] = sum(
            1 for s in spans if s[0] == "eigen.principal_eigenpair" and s[3] >= 0
            and spans[s[3]][0] == "solver.ball_eigenpair")
    return out


def span_records(rec):
    """Spans as JSON-ready rows (name, start, end, parent index)."""
    return [[s[0], s[1], s[2], s[3]] for s in rec.spans]
