"""Run one `gpd` CLI call with per-layer spans and counters.

Usage: python trace_child.py TRACE_OUT.json -- <gpd argv...>

The child wraps the public functions of every `gpd` module (and a few
methods) before calling `gpd.cli.main(argv)`, so stdout and the exit
code are those of an untraced call.  Each wrapper is a span: its time
goes to the function's own total and, minus the spans nested in it, to
its module's self time.  The hottest leaves are counted, not timed, and
`Mat.__getitem__` is left alone.  The aggregate is written to
TRACE_OUT.json when the call returns.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("exact", "matrix", "homology", "categories", "pmodule", "diagram",
          "grothendieck", "metrics", "serialize", "cli")

# Called hundreds of thousands of times per call: a span would cost more
# than the work, so these only count.
COUNT_ONLY = {
    "grothendieck.add", "grothendieck.leq", "grothendieck.sub", "grothendieck.neg",
    "grothendieck.zero_elem", "grothendieck.a_class", "grothendieck.b_class",
    "pmodule.evaluate", "matrix.frac", "categories.obj_ngens", "categories.make_obj",
    "categories.identity_mor", "categories.iso_union", "categories.ab_relations",
}

# Methods wrapped on their class; Mat.__getitem__ and the field scalar
# operations are deliberately absent.
METHODS = {
    "matrix": {"Mat": ("mul",)},
    "exact": {"LatticeQuotient": ("__init__", "coords")},
}

calls: dict = {}
span_ns: dict = {}
self_ns = {layer: 0 for layer in LAYERS}
extra = {
    "exact.smith_normal_form_max_rows": 0, "exact.smith_normal_form_max_cols": 0,
    "exact.smith_normal_form_entries": 0, "exact.field_rref_entries": 0,
    "matrix.Mat.mul_mults": 0, "metrics.candidates_total": 0,
    "metrics.candidates_evaluated": 0,
}
# stack of [start_ns, ns spent in nested spans]
_stack: list = []


def _note(name, args, result):
    """Work counters read off arguments and results of a few spans."""
    if name == "exact.smith_normal_form":
        M = args[0]
        extra["exact.smith_normal_form_max_rows"] = max(extra["exact.smith_normal_form_max_rows"], M.rows)
        extra["exact.smith_normal_form_max_cols"] = max(extra["exact.smith_normal_form_max_cols"], M.cols)
        extra["exact.smith_normal_form_entries"] += M.rows * M.cols
    elif name == "exact.field_rref":
        M = args[1]
        extra["exact.field_rref_entries"] += M.rows * M.cols
    elif name == "matrix.Mat.mul":
        a, b = args[0], args[1]
        extra["matrix.Mat.mul_mults"] += a.rows * a.cols * b.cols
    elif name == "metrics.erosion_candidates":
        extra["metrics.candidates_total"] += len(result)
    elif name == "metrics.erosion_distance":
        extra["metrics.candidates_evaluated"] += len(result.table)


NOTED = {"exact.smith_normal_form", "exact.field_rref", "matrix.Mat.mul",
         "metrics.erosion_candidates", "metrics.erosion_distance"}


def _span(name, layer, fn):
    noted = name in NOTED
    calls[name] = 0
    span_ns[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        frame = [perf_counter_ns(), 0]
        _stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - frame[0]
            _stack.pop()
            span_ns[name] += dur
            self_ns[layer] += dur - frame[1]
            if _stack:
                _stack[-1][1] += dur
        if noted:
            _note(name, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counter(name, fn):
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def install():
    """Wrap every public function of each layer and patch every module
    namespace that imported it by name."""
    modules = {layer: importlib.import_module(f"gpd.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replaced[obj] = _counter(name, obj) if name in COUNT_ONLY else _span(name, layer, obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                setattr(cls, meth, _span(f"{layer}.{label}", layer, getattr(cls, meth)))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def main() -> int:
    out_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py TRACE_OUT.json -- <gpd argv...>")
    install()
    cli = sys.modules["gpd.cli"]
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"calls": calls,
                       "span_s": {k: v / 1e9 for k, v in span_ns.items()},
                       "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                       "extra": extra}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
