"""Run every workload untraced and traced, and print all metrics in tables.

    python3 perfbench/report.py [--seed N] [--seconds S] [--write FILE --label TEXT]

Each (workload, trace) pair is one ``run.py`` invocation, as the benchmark
contract runs it.  The end-to-end table adds fail_ratio = failed /
attempted with its base.  The metric names and units printed are checked
against BENCHMARK.json.  ``--write`` stores the results (and the
environment of each run) as JSON, e.g. the committed perfbench/baseline.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run.py failed on %s (trace %d): %s"
                         % (workload, trace, proc.stderr.strip()))
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def check_names(spec, key, metrics):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        raise SystemExit("metrics differ from BENCHMARK.json %s: %r"
                         % (key, sorted(set(want.items()) ^ set(got.items()))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--write")
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    results = {}
    for name in WORKLOADS:
        results[name] = {"untraced": run(name, args.seed, seconds, 0),
                         "traced": run(name, args.seed, seconds, 1)}
        check_names(spec, "end_to_end", results[name]["untraced"]["result"]["metrics"])
        check_names(spec, "per_layer", results[name]["traced"]["result"]["metrics"])

    print("end to end (untraced; median over the run's operations)")
    cols = [m["name"] for m in spec["end_to_end"]]
    print("%-20s" % "workload" + "".join("%16s" % c for c in cols)
          + "%14s%8s%9s" % ("fail_ratio", "ops", "correct"))
    for name, r in results.items():
        res, env = r["untraced"]["result"], r["untraced"]["env"]
        m = res["metrics"]
        print("%-20s" % name
              + "".join("%12.4f %-3s" % (m[c]["value"], m[c]["unit"]) for c in cols)
              + "%14s%8d%9s" % ("%d/%d" % (res["failed"], res["attempted"]),
                                env["operations"], res["correct"]))

    print("\nper layer (traced; per operation)")
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("%-44s%-7s" % ("metric", "unit") + "".join("%20s" % w for w in results))
    for n in names:
        print("%-44s%-7s" % (n, units[n]) + "".join(
            "%20.6g" % r["traced"]["result"]["metrics"][n]["value"]
            for r in results.values()))
    print("\ntraced runs correct: %s" % {w: r["traced"]["result"]["correct"]
                                         for w, r in results.items()})

    if args.write:
        Path(args.write).write_text(json.dumps(
            {"label": args.label, "seed": args.seed, "seconds": seconds,
             "workloads": results}, indent=1) + "\n")


if __name__ == "__main__":
    main()
