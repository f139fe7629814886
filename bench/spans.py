"""Spans around the program's layers, installed from outside the package.

The layers are the modules ``kernel``, ``spectrum``, ``bifurcation``, ``ring``
and ``cli``. :class:`Tracer` replaces each public function of those modules
with a wrapper that records a span (name, start, end, parent) and, for a few
functions, a count read from the arguments or the result. Spans are kept in
memory per thread and written out by :meth:`Tracer.write`.

Calls inside the program go through module globals, so a replaced attribute
also sees the program's internal calls. Two private functions are wrapped as
well because the work they do is a layer metric: the FFT and naive
right-hand sides, both recorded as ``ring.rhs`` (``integrate`` and the
finite-difference Jacobian call them without going through the public
``rhs``, which is therefore not wrapped a second time). ``ring.solve_ivp``
is wrapped without a span to read the step and evaluation counts from the
result that ``integrate`` receives.
"""

import json
import threading
import time

import numpy as np

LAYERS = ("kernel", "spectrum", "bifurcation", "ring", "cli")


def _c1_modes(args, kwargs, out):
    return {"modes": int(np.size(kwargs.get("k", args[1] if len(args) > 1 else 0)))}


def _newton_iterations(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _report_bytes(args, kwargs, out):
    return {"bytes": int(sum(p.stat().st_size for p in out))}


def _threshold_name(args, kwargs):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "?")
    return f"spectrum.threshold.{kind}"


COUNTS = {
    "kernel.c1": _c1_modes,
    "ring.newton_equilibrium": _newton_iterations,
    "cli.write_report": _report_bytes,
}
NAMERS = {"spectrum.threshold": _threshold_name}
EXTRA = {"ring": {"_rhs_fft": "ring.rhs", "_rhs_naive": "ring.rhs"}}
SKIP = {"ring": {"rhs"}}


class Tracer:
    """Span recorder for one traced round; :meth:`install` and :meth:`uninstall` bracket it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []      # (thread name, is main thread, span list)
        self._saved = []        # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.current_thread().name,
                                      threading.current_thread() is threading.main_thread(),
                                      local.spans))
        return local.spans, local.stack

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        namer = NAMERS.get(name)
        state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = state()
            rec = [namer(args, kwargs) if namer else name, clock(), 0.0,
                   stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out

        return wrapper

    def _wrap_solver(self, fn):
        state = self._state

        def solve_ivp(*args, **kwargs):
            sol = fn(*args, **kwargs)
            spans, stack = state()
            if stack:
                spans[stack[-1]][4] = {"steps": len(sol.t) - 1, "rhs_evals": int(sol.nfev)}
            return sol

        return solve_ivp

    def install(self, package):
        """Replace the public functions of every layer module of ``package``."""
        for layer in LAYERS:
            mod = getattr(package, layer)
            targets = {}
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or attr in SKIP.get(layer, ())):
                    continue
                targets[attr] = f"{layer}.{attr}"
            targets.update(EXTRA.get(layer, {}))
            for attr, name in targets.items():
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        ring = package.ring
        self._saved.append((ring, "solve_ivp", ring.solve_ivp))
        ring.solve_ivp = self._wrap_solver(ring.solve_ivp)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def _segments(spans):
        """Exclusive segments (start, end, name) of one thread's properly nested spans."""
        children = [[] for _ in spans]
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                children[rec[3]].append(i)
        out = []
        for i, rec in enumerate(spans):
            cur = rec[1]
            for c in children[i]:
                out.append((cur, spans[c][1], rec[0]))
                cur = spans[c][2]
            out.append((cur, rec[2], rec[0]))
        return out

    def summary(self, t_begin, t_end):
        """Per-function totals and per-layer self times of the round ``[t_begin, t_end]``.

        Self time is wall-clock time during which a layer's span is the
        innermost one. Pool threads run while the main thread waits inside
        the span that started the pool, so an interval covered by pool-thread
        spans goes to them (shared equally when several run at once), and the
        main thread keeps only what they leave. The part of the round no span
        covers is the benchmark's own time, ``bench.self_s``; the layer self
        times and ``bench.self_s`` add up to the round's wall time.
        """
        totals = {}
        main_segs, pool_segs = [], []
        rhs_in_integrate = 0
        for _, is_main, spans in self._threads:
            in_integrate = [False] * len(spans)   # parents precede their children
            for i, rec in enumerate(spans):
                entry = totals.setdefault(rec[0], {"calls": 0, "s": 0.0})
                entry["calls"] += 1
                entry["s"] += rec[2] - rec[1]
                for key, val in (rec[4] or {}).items():
                    entry[key] = entry.get(key, 0) + val
                parent = rec[3]
                if parent >= 0:
                    in_integrate[i] = in_integrate[parent] or spans[parent][0] == "ring.integrate"
                    rhs_in_integrate += in_integrate[i] and rec[0] == "ring.rhs"
            (main_segs if is_main else pool_segs).extend(self._segments(spans))

        layer_self = {layer: 0.0 for layer in LAYERS}
        pool = np.array([(a, b) for a, b, _ in pool_segs], dtype=float).reshape(-1, 2)
        bounds = np.unique(pool.ravel())
        if len(bounds) > 1:
            i0 = np.searchsorted(bounds, pool[:, 0])
            i1 = np.searchsorted(bounds, pool[:, 1])
            active = np.zeros(len(bounds))
            np.add.at(active, i0, 1.0)
            np.add.at(active, i1, -1.0)
            active = np.cumsum(active)[:-1]
            dt = np.diff(bounds)
            share = np.where(active > 0, dt / np.maximum(active, 1), 0.0)
            shared = np.concatenate([[0.0], np.cumsum(share)])
            covered = np.concatenate([[0.0], np.cumsum(np.where(active > 0, dt, 0.0))])
            for (_, _, name), s in zip(pool_segs, shared[i1] - shared[i0]):
                layer_self[name.split(".")[0]] += s

            def covered_until(t):
                j = np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(bounds) - 2)
                inside = np.where(active[j] > 0, np.clip(t - bounds[j], 0.0, dt[j]), 0.0)
                return np.where(t <= bounds[0], 0.0, covered[j] + inside)
        else:
            covered_until = lambda t: np.zeros_like(t)

        main = np.array([(a, b) for a, b, _ in main_segs], dtype=float).reshape(-1, 2)
        if len(main):
            own = (main[:, 1] - main[:, 0]) - (covered_until(main[:, 1]) - covered_until(main[:, 0]))
            for (_, _, name), s in zip(main_segs, own):
                layer_self[name.split(".")[0]] += float(s)
        if "ring.integrate" in totals:
            totals["ring.integrate"]["rhs_calls"] = rhs_in_integrate
        wall = t_end - t_begin
        return totals, layer_self, wall - sum(layer_self.values())

    def write(self, path, t_begin):
        """Write every span, times relative to the round start, as JSON."""
        names = sorted({rec[0] for _, _, spans in self._threads for rec in spans})
        ids = {n: i for i, n in enumerate(names)}
        threads = [{"thread": tname, "main": is_main,
                    "spans": [[ids[r[0]], round(r[1] - t_begin, 7), round(r[2] - t_begin, 7), r[3]]
                              for r in spans]}
                   for tname, is_main, spans in self._threads]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "names": names, "threads": threads}, fh, separators=(",", ":"))
