"""Spans around calls into the program's modules, recorded from outside it,
and the per-layer metrics computed from them.

`install` wraps the public functions of each layer in every module of the
package that binds them: `from .x import y` copies the name, so
`otoc.eigh`, `analysis.eigh`, `cli.eigh` and the package's own `eigh` are
separate bindings of one function. Only traced invocations import this
module; the timed ones run the program untouched.
"""

import contextvars
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PACKAGE = "lmg_otoc"

# The production path, layer by layer. spin_ops is built only through model
# and errors does no work, so neither has spans of its own.
LAYERS = {
    "model": ("build_hamiltonian", "build_postquench"),
    "eigensolver": ("eigh",),
    "otoc": ("quench_otoc", "commutator_series", "commutator_series_micro",
             "micro_fbar_all", "long_time_average"),
    "analysis": ("quench_fbar", "quench_sweep", "microcanonical_scan",
                 "scaling_mu", "scaling_gamma_lambda", "scaling_gamma_epsilon",
                 "dn_diagnostic", "fit_power_law"),
    "output": ("write_csv", "emit_line_dat", "emit_heatmap_dat",
               "write_svg_line", "write_manifest"),
    "cli": ("main",),
}

# Nominal flops of the seed algorithm per kernel entry point, from the
# dimension D and sample count S: the quench kernel does three real GEMMs of
# D x D by D x 2S, the commutator kernel four, the all-levels kernel one
# D x D by D x 2D per sample; each frame rotation is one D^3 GEMM.
KERNEL_FLOPS = {
    "quench_otoc": lambda d, s: 12 * d * d * s + 2 * d ** 3,
    "commutator_series": lambda d, s: 16 * d * d * s + 2 * d ** 3,
    "commutator_series_micro": lambda d, s: 16 * d * d * s + 2 * d ** 3,
    "micro_fbar_all": lambda d, s: 4 * d ** 3 * s + 2 * d ** 3,
}


def _kernel_attrs(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs).arguments
    params = bound["spec"].params if "spec" in bound else bound["params"]
    return {"dim": params.sector.dimension, "samples": len(bound["times"])}


def _output_attrs(signature, args, kwargs):
    path = signature.bind(*args, **kwargs).arguments["path"]
    return {"bytes": os.path.getsize(path)}


class Recorder:
    """Keeps every span of one invocation in memory.

    A span records its name, layer, start, end, parent span, thread and the
    run id shared by the whole invocation. The parent is the span open in
    the caller's context, which worker threads inherit through `install`.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def wrap(self, layer, name, fn):
        signature = inspect.signature(fn)
        if name in KERNEL_FLOPS:
            attrs = _kernel_attrs
        elif layer == "output":
            attrs = _output_attrs
        else:
            attrs = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._current.get()
            token = self._current.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                span = {"id": span_id, "parent": parent, "layer": layer,
                        "name": name, "start": start, "end": end,
                        "thread": threading.get_ident(), "run": self.run_id}
                self.spans.append(span)
            if attrs is not None:
                span.update(attrs(signature, args, kwargs))
            return result
        return traced


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans on a
    worker thread name the span that submitted them as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install(recorder):
    """Replace every binding of the layer functions, and of the thread pool,
    in the already imported modules of the package."""
    replacements = {ThreadPoolExecutor: _ContextPool}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in names:
            fn = getattr(module, name)
            replacements[fn] = recorder.wrap(layer, name, fn)
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            try:
                replacement = replacements.get(value)
            except TypeError:               # unhashable module attribute
                continue
            if replacement is not None:
                setattr(module, attr, replacement)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover.

    Children on every thread count, their intervals merged before the
    subtraction: a parent waiting on two workers at once loses that time
    once, and the workers' own spans keep it. The self times of all spans
    then add up to the time threads spent inside the program, with no
    interval counted twice on one thread.
    """
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        clipped = [(max(c["start"], lo), min(c["end"], hi))
                   for c in children.get(span["id"], ())]
        out[span["id"]] = (hi - lo) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_metrics(spans, workers, dgemm_gflops):
    """Per-layer metrics of one traced invocation.

    Metrics of work an invocation does not do (the sweep fan-out on a
    single-state run, say) read 0.
    """
    own = self_times(spans)

    def select(layer, names=None):
        return [s for s in spans
                if s["layer"] == layer and (names is None or s["name"] in names)]

    def self_sum(layer):
        return sum(own[s["id"]] for s in select(layer))

    def duration(span):
        return span["end"] - span["start"]

    kernels = [s for s in select("otoc") if s["name"] in KERNEL_FLOPS]
    flops = sum(KERNEL_FLOPS[s["name"]](s["dim"], s["samples"])
                for s in kernels if "samples" in s)
    otoc_s = self_sum("otoc")
    gflops = flops / otoc_s / 1e9 if otoc_s > 0 else 0.0
    cells = [duration(s) for s in select("analysis", ("quench_fbar",))]
    sweep_wall = sum(duration(s) for s in select("analysis", ("quench_sweep",)))
    writes = select("output")
    return {
        "model.build_calls": len(select("model")),
        "model.build_s": self_sum("model"),
        "eigensolver.eigh_calls": len(select("eigensolver")),
        "eigensolver.eigh_s": self_sum("eigensolver"),
        "otoc.self_s": otoc_s,
        "otoc.samples": sum(s.get("samples", 0) for s in kernels),
        "otoc.nominal_gflops": gflops,
        "otoc.gemm_efficiency": gflops / dgemm_gflops,
        "otoc.average_s": sum(own[s["id"]] for s in select("otoc", ("long_time_average",))),
        "analysis.self_s": self_sum("analysis"),
        "analysis.cell_s_p50": float(np.percentile(cells, 50)) if cells else 0.0,
        "analysis.cell_s_p90": float(np.percentile(cells, 90)) if cells else 0.0,
        "analysis.parallel_efficiency":
            sum(cells) / (workers * sweep_wall) if sweep_wall > 0 else 0.0,
        "output.write_s": self_sum("output"),
        "output.bytes": sum(s.get("bytes", 0) for s in writes),
        "output.files": len(writes),
        "cli.self_s": self_sum("cli"),
    }
