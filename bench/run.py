"""One-command benchmark for twistlab.

    python3 bench/run.py --workload continuum --seed 1 --seconds 8 --trace 0

Runs from the root of a source checkout, with the package not installed:
each workload runs in a fresh interpreter (``worker.py``) with
``PYTHONPATH=src``, the program's worker pool (``TWISTLAB_THREADS``) and the
BLAS threads capped at the number of usable cores. The workload repeats whole
rounds of its operations until ``--seconds`` have passed; ``wall_s`` and
``cpu_s`` are per-round medians. ``setup_s`` is the median over five fresh
interpreters. ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones instead of the end-to-end metrics.

Prints each metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits non-zero,
printing no result, when a worker fails or the program's source is missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("continuum", "finite_ring", "stiff_ring", "large_ring")
SETUPS = 5
TIME_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def _unit(name):
    if name.endswith("us_per_rhs_eval"):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def _worker(args, index, extra, env, scratch, deadline):
    result = scratch / f"result-{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(scratch / "out"), "--result", str(result)] + extra
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {args.workload} did not finish within {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"bench: worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None,
                    help="cap on pool and BLAS threads (default: usable cores)")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "twistlab" / "cli.py").is_file():
        sys.exit(f"bench: no twistlab source under {ROOT / 'src'}; run from a source checkout")
    threads = args.threads or len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("TWISTLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)

    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        setups = [_worker(args, i, ["--setup-only"], env, scratch, deadline)["setup_s"]
                  for i in range(SETUPS - 1)]
        res = _worker(args, SETUPS, [], env, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)

    print(f"workload {args.workload}  seed {args.seed}  threads {threads}  "
          f"rounds {res['rounds']}  setups {len(setups)}")
    for name, unit in END_TO_END:
        print(f"  {name:<40} {res[name]:>14.6g} {unit}")
    metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        print("per layer (traced rounds):")
        metrics = {}
        for name, value in res["per_layer"].items():
            metrics[name] = {"value": value, "unit": _unit(name)}
            print(f"  {name:<40} {value:>14.6g} {_unit(name)}")
        selfs = sum(v for k, v in res["per_layer"].items() if k.endswith("self_s"))
        print(f"  layer self times + bench.self_s = {selfs:.6g} s; "
              f"traced wall_s = {res['per_layer']['trace.wall_s']:.6g} s")
    print(f"attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for line in res["failures"] + res["errors"]:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
