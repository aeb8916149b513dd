"""Print, as one JSON, every output that a bit-identical change must keep.

For each perfbench workload, at seeds 1-2 and draws 0-2, untraced and
traced: the operation's fingerprint, the problems its checks found and
its counts with the timing keys (ending in ".s" or "_s") dropped.  Then
the sha256 of each demo's standard output.  Every operation runs in a
fresh interpreter through perfbench/worker.py with the environment that
perfbench/run.py gives it; perfbench itself is only read.  A run that
exits non-zero is recorded by its exit code and last stderr line, so the
tool gates nothing.  Give the root of another checkout to fingerprint
that one, and compare two runs with diff:

    python tools/fingerprints.py > change.json
    python tools/fingerprints.py ../parent > parent.json
    diff parent.json change.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2)
DRAWS = (0, 1, 2)
MODES = ("plain", "traced")


def _failure(run):
    """A failed run as its exit code and last stderr line."""
    tail = run.stderr.strip().splitlines()[-1:] or [""]
    return {"error": "exit %d: %s" % (run.returncode, tail[0])}


def operation(root, env, workload, params, mode):
    """The fingerprint, problems and untimed counts of one worker run."""
    job = {"workload": workload, "params": params, "mode": mode, "spans": None}
    run = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"),
                          json.dumps(job)], cwd=root, env=env,
                         capture_output=True, text=True)
    if run.returncode:
        return _failure(run)
    res = json.loads(run.stdout.strip().splitlines()[-1])
    counts = {k: v for k, v in sorted(res["counts"].items())
              if not k.endswith((".s", "_s"))}
    return {"fingerprint": res["fingerprint"], "problems": res["problems"],
            "counts": counts}


def demo_digest(root, demo):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         cwd=root, env=env, capture_output=True, text=True)
    if run.returncode:
        return _failure(run)
    return hashlib.sha256(run.stdout.encode()).hexdigest()


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "perfbench"))
    import run as perfbench_run
    env = perfbench_run.worker_env()
    out = {"workloads": {}, "demos": {}}
    for name, wl in sorted(perfbench_run.WORKLOADS.items()):
        out["workloads"][name] = {
            "seed %d draw %d %s" % (seed, draw, mode):
                operation(root, env, name, wl.draw(seed, draw), mode)
            for seed in SEEDS for draw in DRAWS for mode in MODES}
    for demo in sorted((root / "demos").glob("*.py")):
        out["demos"][demo.name] = demo_digest(root, demo)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
