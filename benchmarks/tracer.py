"""Layer timing from outside the program: wrap chl functions, keep spans in memory.

Every wrapped call is a span of one layer (a module of ``src/chl``).  A
span's self time is its duration minus the time covered by the spans that
ran inside it, so self times of all layers add up to the traced time without
double counting.  ``covered`` holds the total duration of closed spans; a
span reads it on entry and on exit to find how much of its interval its
children used, then replaces that part by its own duration for its parent.

``chl`` modules bind each other's functions with ``from .x import f``, so a
wrapper must be installed in the namespace of every module that calls the
function (``chl.render.cyl_slit``, ``chl.verify.adaptive_quadrature``, ...),
not only where it is defined.  Nothing in ``chl`` is edited: wrappers are
set on the imported modules of one benchmark process and die with it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layers in the order of src/chl; the key of every self time.
LAYERS = ("cli", "conformal", "rng", "process", "quadrature", "verify", "render")

# Fixed by the quadrature's signature; a result with this many panels hit the cap.
_DEFAULT_MAX_PANELS = 10_000

_EVAL_FUNCS = (
    "eval_forward_chl",
    "eval_backward_chl",
    "eval_forward_shl",
    "eval_backward_shl",
    "eval_disk_hl",
    "backward_chl_trajectory",
)


class Tracer:
    """In-memory spans and counters for one traced workload run."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._covered = [0.0]
        self._leaves: dict[str, list] = {}

    def span(self, layer: str, key: str, fn, after=None):
        """Wrap ``fn`` as a span of ``layer``; ``after(result, args, kwargs)`` counts work."""
        covered = self._covered
        clock = time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def wrapper(*args, **kwargs):
            mark = covered[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - (covered[0] - mark)
                covered[0] = mark + elapsed
                total_s[key] += elapsed
                calls[key] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def leaf(self, layer: str, key: str, fn):
        """Lean span for the kernel functions, which call no traced function."""
        acc = self._leaves.setdefault(key, [layer, 0, 0.0])
        covered = self._covered
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            elapsed = clock() - t0
            acc[1] += 1
            acc[2] += elapsed
            covered[0] += elapsed
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Self time per layer, calls and inclusive time per function, counters."""
        self_s = dict(self.self_s)
        total_s = dict(self.total_s)
        calls = dict(self.calls)
        for key, (layer, n, seconds) in self._leaves.items():
            self_s[layer] += seconds
            total_s[key] = seconds
            calls[key] = n
        return {"self_s": self_s, "total_s": total_s, "calls": calls, "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap the functions of every chl layer in every module that calls them."""
        import chl.cli
        import chl.conformal as conformal
        import chl.process as process
        import chl.quadrature as quadrature
        import chl.render as render
        import chl.verify as verify

        for name in ("cyl_slit", "halfplane_slit", "cyl_slit_deriv"):
            _patch(getattr(conformal, name), self.leaf("conformal", name, getattr(conformal, name)),
                   skip=(conformal,))
        # disk-hl composes the disk-coordinate origin map directly; inside
        # chl.conformal the same function is part of cyl_slit, already timed
        _patch(conformal._disk_slit_origin,
               self.leaf("conformal", "_disk_slit_origin", conformal._disk_slit_origin),
               skip=(conformal,))

        counts = self.counts

        def count_events(log, args, kwargs):
            counts["events_sampled"] += len(log)

        _patch(process.sample_events,
               self.span("rng", "sample_events", process.sample_events, count_events))
        _patch(process.restrict_log, self.span("process", "restrict_log", process.restrict_log))
        for name in _EVAL_FUNCS:
            fn = getattr(process, name)
            wrapped = self.span("process", name, fn)
            _patch(fn, wrapped)
            for kind, evaluator in list(process._EVALUATORS.items()):
                if evaluator is fn:
                    process._EVALUATORS[kind] = wrapped
        log_cls = process.EventLog
        log_cls.to_jsonl = self.span("process", "to_jsonl", log_cls.to_jsonl)
        log_cls.from_jsonl = classmethod(
            self.span("process", "from_jsonl", log_cls.from_jsonl.__func__))

        _patch(quadrature.adaptive_quadrature, self._quadrature(quadrature.adaptive_quadrature))

        def count_replicas(result, args, kwargs):
            counts["mc_replicas"] += len(result)

        _patch(verify._run_replicas,
               self.span("verify", "mc", verify._run_replicas, count_replicas))
        for name, check in list(verify.CHECK_NAMES.items()):
            verify.CHECK_NAMES[name] = self.span("verify", "check." + name, check)
        # entry points called from outside a check, so their own time is verify's
        for name in ("run_suite", "quad_mean_shift", "quad_squared_shift", "quad_squared_deriv",
                     "slit_convergence_rate", "coupling_sup_distances"):
            fn = getattr(verify, name)
            _patch(fn, self.span("verify", name, fn))

        _patch(render.trace_cluster, self.span("render", "trace_cluster", render.trace_cluster))
        for name in ("export_svg", "export_csv"):
            fn = getattr(render, name)
            _patch(fn, self.span("render", name, fn))

    def _quadrature(self, adaptive_quadrature):
        """Span for the quadrature that also counts integrand evaluations and panels."""
        counts = self.counts

        def counted(f, *args, **kwargs):
            def integrand(x):
                counts["integrand_evals"] += 1
                return f(x)

            return adaptive_quadrature(integrand, *args, **kwargs)

        def after(result, args, kwargs):
            max_panels = kwargs.get("max_panels", args[4] if len(args) > 4 else _DEFAULT_MAX_PANELS)
            counts["panels"] += result.subdivisions
            counts["capped"] += result.subdivisions >= max_panels

        return self.span("quadrature", "adaptive_quadrature", counted, after)


def _patch(original, wrapper, skip=()) -> None:
    """Replace ``original`` by ``wrapper`` in every loaded chl module bound to it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or module in skip:
            continue
        if mod_name != "chl" and not mod_name.startswith("chl."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values (name -> value) from one run's trace snapshot."""
    self_s, total_s, calls, counts = (trace[k] for k in ("self_s", "total_s", "calls", "counts"))

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    events = counts.get("events_sampled", 0)
    sample_s = total_s.get("sample_events", 0.0)
    evals = counts.get("integrand_evals", 0)
    quad_s = total_s.get("adaptive_quadrature", 0.0)
    replicas = counts.get("mc_replicas", 0)
    mc_s = total_s.get("mc", 0.0)
    out = {
        "conformal.cyl_slit_calls": calls.get("cyl_slit", 0),
        "conformal.halfplane_slit_calls": calls.get("halfplane_slit", 0),
        "conformal.cyl_slit_deriv_calls": calls.get("cyl_slit_deriv", 0),
        "conformal.kernel_s": self_s["conformal"],
        "rng.events_sampled": events,
        "rng.sample_s": sample_s,
        "rng.events_per_s": rate(events, sample_s),
        "process.restrict_s": total_s.get("restrict_log", 0.0),
        "process.eval_calls": sum(calls.get(k, 0) for k in _EVAL_FUNCS),
        "process.eval_s": sum(total_s.get(k, 0.0) for k in _EVAL_FUNCS),
        "process.jsonl_s": total_s.get("to_jsonl", 0.0) + total_s.get("from_jsonl", 0.0),
        "quadrature.calls": calls.get("adaptive_quadrature", 0),
        "quadrature.integrand_evals": evals,
        "quadrature.panels": counts.get("panels", 0),
        "quadrature.capped": counts.get("capped", 0),
        "quadrature.s": quad_s,
        "quadrature.evals_per_s": rate(evals, quad_s),
        "verify.mc_replicas": replicas,
        "verify.mc_s": mc_s,
        "verify.mc_replicas_per_s": rate(replicas, mc_s),
        "render.trace_s": total_s.get("trace_cluster", 0.0),
        "render.export_s": total_s.get("export_svg", 0.0) + total_s.get("export_csv", 0.0),
    }
    for layer in LAYERS:
        if layer != "conformal":  # its self time is conformal.kernel_s
            out[layer + ".self_s"] = self_s[layer]
    return out
