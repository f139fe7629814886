"""Run one workload in this fresh interpreter and write its measurements as JSON.

Started by ``run.py``, one process per workload run, with ``PYTHONPATH``
pointing at the checkout's ``src`` and the thread counts already capped. Only
the standard library is imported before the set-up clock starts, so
``setup_s`` holds the import of ``twistlab.cli`` and the building of the
workload's inputs.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _layer_metrics(totals, layer_self, bench_self):
    """The per-layer metrics of one traced round, from the tracer's totals."""
    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    thresholds = [n for n in totals if n.startswith("spectrum.threshold.")]
    m = {
        "kernel.c1.calls": get("kernel.c1", "calls"),
        "kernel.c1.modes": get("kernel.c1", "modes"),
        "kernel.c1.s": get("kernel.c1"),
        "spectrum.threshold.calls": sum(totals[n]["calls"] for n in thresholds),
        "spectrum.threshold.attractive_r0.s": get("spectrum.threshold.attractive_r0"),
        "spectrum.threshold.repulsive_r0.s": get("spectrum.threshold.repulsive_r0"),
        "spectrum.threshold.r_star.s": get("spectrum.threshold.r_star"),
        "spectrum.spectrum_report.s": get("spectrum.spectrum_report"),
        "spectrum.kappa.s": get("spectrum.kappa"),
        "bifurcation.gamma_pair.calls": get("bifurcation.gamma_pair", "calls"),
        "bifurcation.gamma_pair.s": get("bifurcation.gamma_pair"),
        "bifurcation.stability_column.s": get("bifurcation.stability_column"),
        "ring.finite_threshold.calls": get("ring.finite_threshold", "calls"),
        "ring.finite_threshold.s": get("ring.finite_threshold"),
        "ring.jacobian_spectrum.calls": get("ring.jacobian_spectrum", "calls"),
        "ring.jacobian_spectrum.s": get("ring.jacobian_spectrum"),
        "ring.jacobian.calls": get("ring.jacobian", "calls"),
        "ring.jacobian.s": get("ring.jacobian"),
        "ring.newton_equilibrium.s": get("ring.newton_equilibrium"),
        "ring.newton_equilibrium.iterations": get("ring.newton_equilibrium", "iterations"),
        "ring.integrate.s": get("ring.integrate"),
        "ring.integrate.steps": get("ring.integrate", "steps"),
        "ring.integrate.rhs_evals": get("ring.integrate", "rhs_evals"),
        "ring.integrate.rhs_calls": get("ring.integrate", "rhs_calls"),
        "ring.rhs.calls": get("ring.rhs", "calls"),
        "ring.rhs.s": get("ring.rhs"),
        "ring.best_shift_residual.s": get("ring.best_shift_residual"),
        "cli.execute.s": get("cli.execute"),
        "cli.write_report.s": get("cli.write_report"),
        "cli.write_report.bytes": get("cli.write_report", "bytes"),
        "bench.self_s": bench_self,
    }
    evals = m["ring.integrate.rhs_evals"]
    m["ring.integrate.us_per_rhs_eval"] = 1e6 * m["ring.integrate.s"] / evals if evals else 0.0
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True, help="scratch directory for command outputs")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import twistlab.cli  # noqa: F401  (the import users pay on every command)
    import twistlab as tl
    t_import = time.perf_counter() - t0

    import workloads
    t1 = time.perf_counter()
    workload = workloads.build(args.workload, tl, args.seed)
    setup_s = t_import + time.perf_counter() - t1
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import spans
    out_root = Path(args.out)
    rounds = []          # (traced, wall, cpu, outputs)
    errors = []
    attempted = failed = 0
    layer_runs, trace_written = [], False
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install(tl)
        outputs = {}
        c0, w0 = _cpu(), time.perf_counter()
        for name, op in workload.ops:
            attempted += 1
            try:
                outputs[name] = op(out_root / f"round{len(rounds)}")
            except Exception:
                failed += 1
                errors.append(f"{name}: {traceback.format_exc(limit=3)}")
        w1, c1 = time.perf_counter(), _cpu()
        if tracer:
            tracer.uninstall()
            totals, layer_self, bench_self = tracer.summary(w0, w1)
            layer = _layer_metrics(totals, layer_self, bench_self)
            layer["trace.spans"] = sum(t["calls"] for t in totals.values())
            layer_runs.append((w1 - w0, layer))
            if not trace_written:
                tracer.write(Path(__file__).resolve().parent / "results"
                             / f"trace-{args.workload}-seed{args.seed}.json", w0)
                trace_written = True
        rounds.append((traced, w1 - w0, c1 - c0, outputs))
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(rounds) % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for _, _, _, outputs in rounds:
        failures.extend(workload.check(outputs))

    untraced = [r for r in rounds if not r[0]]
    result.update({
        "rounds": len(untraced),
        "wall_s": statistics.median(r[1] for r in untraced),
        "cpu_s": statistics.median(r[2] for r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "failures": failures,
        "errors": errors,
    })
    if layer_runs:
        layer = {k: statistics.mean(m[k] for _, m in layer_runs) for k in layer_runs[0][1]}
        layer["trace.wall_s"] = statistics.mean(w for w, _ in layer_runs)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - result["wall_s"]
        result["per_layer"] = layer
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
