"""One operation of one workload in a fresh interpreter.

    python3 perfbench/worker.py '<json job>'

job = {"workload", "params", "mode": "setup" | "plain" | "traced",
       "spans": path or null}

Prints ``ready <speed factor> <calibration seconds>`` once deadcore is
imported and the problems are built, with the host speed sampled meanwhile
(the parent times setup_s up to that line).  Then, unless mode is
``setup``, it runs the operation and prints one JSON line with its time
(raw and at reference host speed), the problems its checks found, a
fingerprint of its outputs and the counters.  A fresh
process per operation means every operation pays the ball eigensolve that
a ``deadcore`` command pays; the module-global eigenpair cache in
``deadcore.solver`` never carries over.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed
    with hostspeed.Sampler(hostspeed.PYTHON) as setup_speed:
        sys.path.insert(0, str(ROOT / "src"))
        import deadcore as dc
        if not Path(dc.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit("deadcore imported from %s, not from this checkout"
                             % dc.__file__)
        import instrument
        from workloads import WORKLOADS
        wl = WORKLOADS[job["workload"]]
        state = wl.setup(dc, job["params"])
    print("ready %r %r" % (setup_speed.factor(), setup_speed.total_s), flush=True)
    if job["mode"] == "setup":
        return

    rec = instrument.Recorder(timed=job["mode"] == "traced")
    bindings = instrument.install(rec)
    with hostspeed.Sampler(hostspeed.MIXED) as speed:
        rec.active = True
        t0 = perf_counter()
        out = wl.run(dc, state)
        wall_s = perf_counter() - t0
        rec.active = False
    raw_s, op_s = speed.normalise(wall_s)

    problems = wl.check(dc, state, out) + rec.failures
    counts = instrument.totals(rec)
    for key, want in wl.reported(out).items():
        if key.rsplit(".", 1)[0] in bindings and counts.get(key, 0) != want:
            problems.append("wrapper count %s = %s, the library reports %s"
                            % (key, counts.get(key, 0), want))
    if job["spans"]:
        Path(job["spans"]).write_text(json.dumps(
            {"workload": wl.name, "params": job["params"],
             "bindings": bindings, "spans": instrument.span_records(rec)}))
    print(json.dumps({
        "op_s": op_s,
        "raw_s": raw_s,
        "problems": problems,
        "fingerprint": wl.fingerprint(out),
        "counts": counts,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)


if __name__ == "__main__":
    main()
