"""Spans around the public entry points of each cutprec layer.

The benchmark installs wrappers from outside the program: for every entry
point it finds the original object in the loaded `cutprec.*` modules and
replaces each reference to it, so names imported with `from .x import y`
are covered wherever a refactor moves them.  An entry point that no longer
exists leaves its layer unmeasured instead of reading as zero.

Spans are kept in memory: name, start, end, parent span, workload, pass
and row (the index of the latest `build_cut_info` call in the pass, so a
study row's spans share it).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

KINDS = ("SGS", "BlockExact", "BlockDiagSGS", "BlockMGSGS")
ROOT_SPAN = "workload"


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _cut_counts(args, kwargs, info):
    return {"n_cut": int(info.n_cut),
            "n_volume_qp": int(info.vw1.size + info.vw2.size)}


def _layout_counts(args, kwargs, layout):
    # build_index_sets shares the layer and returns no dimensions
    if hasattr(layout, "N0"):
        return {"N0": int(layout.N0), "N1": int(layout.N1)}
    return {}


def _transform_counts(args, kwargs, result):
    if hasattr(result, "Ahat"):
        return {"nnz_Ahat": int(result.Ahat.nnz)}
    return {}


def _pcg_name(args, kwargs):
    kind = getattr(_arg(args, kwargs, 2, "precond"), "kind", "custom")
    return f"solver.pcg.{kind}"


def _pcg_counts(args, kwargs, result):
    report = result[1]
    return {"iterations": int(report.iterations),
            "converged": bool(report.converged)}


def _cond_name(args, kwargs):
    pencil = _arg(args, kwargs, 1, "B") is not None
    return "solver.cond_pencil" if pencil else "solver.cond"


def _cond_counts(args, kwargs, est):
    return {"method": est.method, "converged": bool(est.converged),
            "kappa": float(est.kappa)}


# layer span -> (entry points, span name from the call, counts from the
# result).  "Class.method" names are patched on the class.
ENTRY_POINTS = {
    "mesh.build": (("MeshHierarchy.build",), None,
                   lambda a, k, h: {"n_tets": int(h.levels[-1].n_tets)}),
    "geometry.cut_info": (("build_cut_info",), None, _cut_counts),
    "geometry.classify": (("classify",), None, None),
    "space.layout": (("build_index_sets", "build_dof_layout"), None,
                     _layout_counts),
    "assembly.assemble": (("assemble_interface", "assemble_fd"), None, None),
    "assembly.transform": (("build_L", "build_L_fd", "transform"), None,
                           _transform_counts),
    "solver.precond_setup": (
        ("make_preconditioner",),
        lambda a, k: f"solver.precond_setup.{_arg(a, k, 0, 'kind')}", None),
    "solver.lu": (("DirectSolve.__init__",), None,
                  lambda a, k, r: {"n": int(_arg(a, k, 1, "M").shape[0])}),
    "solver.pcg": (("pcg",), _pcg_name, _pcg_counts),
    "solver.cond": (("estimate_condition",), _cond_name, _cond_counts),
    "experiments.error_norms": (("error_norms",), None, None),
    "experiments.write_tables": (("write_tables",), None, None),
}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []
        self.pass_index = None
        self.row = None

    def _open(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, "pass": self.pass_index,
                "row": self.row, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def run_pass(self, index, fn, *args):
        """Run fn(*args) as the root span of one pass."""
        self.pass_index, self.row = index, None
        span = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.pass_index = None

    def pass_spans(self, index) -> list:
        return [s for s in self.spans if s["pass"] == index]

    def wrap(self, layer, fn, name_of, counts_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.pass_index is None:  # outside a traced pass
                return fn(*args, **kwargs)
            if layer == "geometry.cut_info":
                tracer.row = 0 if tracer.row is None else tracer.row + 1
            span = tracer._open(name_of(args, kwargs) if name_of else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts_of is not None:
                span.update(counts_of(args, kwargs, result))
            return result

        return traced


def _cutprec_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "cutprec" or n.startswith("cutprec.")) and m is not None]


def install(tracer: Tracer) -> dict:
    """Wrap every entry point found in the loaded cutprec modules.

    Returns {layer: [entry points not found]}; a layer whose entry points
    are all missing is unmeasured.
    """
    modules = _cutprec_modules()
    missing = {}
    for layer, (names, name_of, counts_of) in ENTRY_POINTS.items():
        missing[layer] = []
        for name in names:
            if not _patch(modules, name,
                          lambda fn: tracer.wrap(layer, fn, name_of,
                                                 counts_of)):
                missing[layer].append(name)
    return missing


def _patch(modules, name, make_wrapper) -> bool:
    owner_name, _, attr = name.rpartition(".")
    if owner_name:  # a method: patch it once on its class
        for mod in modules:
            cls = vars(mod).get(owner_name)
            if isinstance(cls, type) and attr in vars(cls):
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
                else:
                    setattr(cls, attr, make_wrapper(raw))
                return True
        return False
    original = next((vars(m)[attr] for m in modules
                     if callable(vars(m).get(attr))
                     and getattr(vars(m)[attr], "__module__", "")
                     .startswith("cutprec")), None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover.

    Calls are single threaded and nested, so children never overlap and
    their durations add up.
    """
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    return [s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans]


def pass_metrics(spans, unmeasured) -> dict:
    """Per-layer self times and counts of one traced pass.

    A layer whose entry points are all gone is left out: unmeasured, not 0.
    """
    gone = {layer for layer, names in unmeasured.items()
            if len(names) == len(ENTRY_POINTS[layer][0])}
    selfs, sums, calls = {}, {}, {}
    for s, dt in zip(spans, self_times(spans)):
        name = s["name"]
        selfs[name] = selfs.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        for key in ("n_tets", "n_cut", "n_volume_qp", "N0", "N1",
                    "nnz_Ahat", "iterations", "converged"):
            if key in s:
                sums[key, name] = sums.get((key, name), 0) + s[key]
    m = {}

    def put(metric, layer, value):
        if layer not in gone:
            m[metric] = value

    def self_s(name):
        return selfs.get(name, 0.0)

    for layer, metric, count in (
            ("mesh.build", "mesh.n_tets", "n_tets"),
            ("geometry.cut_info", "geometry.n_cut", "n_cut"),
            ("geometry.cut_info", "geometry.n_volume_qp", "n_volume_qp"),
            ("space.layout", "space.N0", "N0"),
            ("space.layout", "space.N1", "N1"),
            ("assembly.transform", "assembly.nnz_Ahat", "nnz_Ahat")):
        put(metric, layer, sums.get((count, layer), 0))
    for layer in ("mesh.build", "geometry.cut_info", "geometry.classify",
                  "space.layout", "assembly.assemble", "assembly.transform",
                  "solver.lu", "solver.cond", "solver.cond_pencil",
                  "experiments.error_norms", "experiments.write_tables"):
        # the pencil estimate is a span of the solver.cond entry point
        owner = "solver.cond" if layer == "solver.cond_pencil" else layer
        put(layer + "_s", owner, self_s(layer))
    put("solver.n_lu", "solver.lu", calls.get("solver.lu", 0))
    n_cond = calls.get("solver.cond", 0) + calls.get("solver.cond_pencil", 0)
    put("solver.n_cond", "solver.cond", n_cond)
    # converged share of the κ estimates; 1.0 when none was attempted
    converged = sums.get(("converged", "solver.cond"), 0) \
        + sums.get(("converged", "solver.cond_pencil"), 0)
    put("solver.cond_converged", "solver.cond",
        converged / n_cond if n_cond else 1.0)
    put("experiments.self_s", ROOT_SPAN, self_s(ROOT_SPAN))
    total_its = 0
    for kind in KINDS:
        pcg = f"solver.pcg.{kind}"
        its = sums.get(("iterations", pcg), 0)
        total_its += its
        put(f"solver.precond_setup_s.{kind}", "solver.precond_setup",
            self_s(f"solver.precond_setup.{kind}"))
        put(f"solver.pcg_s.{kind}", "solver.pcg", self_s(pcg))
        put(f"solver.pcg_iterations.{kind}", "solver.pcg", its)
        put(f"solver.ms_per_iteration.{kind}", "solver.pcg",
            1e3 * self_s(pcg) / its if its else 0.0)
    put("solver.pcg_iterations", "solver.pcg", total_its)
    return m


def median_metrics(per_pass: list) -> dict:
    keys = per_pass[0].keys() if per_pass else ()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
