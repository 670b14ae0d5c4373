"""Spans around the calls each library module makes into another module.

`install` rewires, at run time, the names one module holds for another
module's public functions and classes, so that every cross-module call
records a span: a numeric id, its parent span, its name, the line it belongs
to, start, end and whether an exception left it.  Nothing under `src/`
changes.  Calls inside one module, and method calls on another module's
instances, are not spans: their time counts to the caller.

Spans stay in memory as flat doubles (7 per span) and are written out once,
after the replay.  `analyse` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import types
from array import array
from time import monotonic

LAYERS = ("cli", "parser", "sets", "chains", "field", "ordinals", "surreal", "labtree")
PKG = "numerosity"
FIELDS = 7  # id, parent, name, line, start, end, error


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.buf = array("d")
        self.stack = [-1.0]
        self.line = [-1.0]
        self.counters = {"tokens": 0, "terms": 0, "numexprs": 0, "nf_cmp": 0, "nf_cmp_unknown": 0}
        self._ids = itertools.count()

    # -- wrapping ---------------------------------------------------------

    def span(self, fn, name: str, post=None):
        nid = float(len(self.names))
        self.names.append(name)
        buf, stack, line, ids = self.buf, self.stack, self.line, self._ids

        def traced(*args, **kwargs):
            sid = float(next(ids))
            parent = stack[-1]
            stack.append(sid)
            err = 0.0
            t0 = monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                err = 1.0
                raise
            finally:
                t1 = monotonic()
                stack.pop()
                buf.extend((sid, parent, nid, line[0], t0, t1, err))
            if post is not None:
                post(result)
            return result

        return traced

    def root(self, fn, name: str):
        """Span for the benchmark's own call into the library, one per line."""
        inner = self.span(fn, name)
        line = self.line

        def run(index: int, *args):
            line[0] = float(index)
            return inner(*args)

        return run

    def _post_for(self, name: str):
        c = self.counters
        if name == "parser.TokenStream":
            def post(ts):
                c["tokens"] += len(ts.tokens)
            return post
        if name == "field.nf_cmp":
            def post(r):
                c["nf_cmp"] += 1
                c["nf_cmp_unknown"] += r.kind == "unknown"
            return post
        if name.startswith("field."):
            numexpr = sys.modules[f"{PKG}.field"].NumExpr

            def post(r):
                if type(r) is numexpr:
                    c["terms"] += len(r.num) + len(r.den)
                    c["numexprs"] += 1
            return post
        return None

    def _wrap(self, obj, layer: str, name: str):
        """Traced stand-in for a public function or class of `layer`, or obj."""
        if name.startswith("_") or getattr(obj, "__module__", None) != f"{PKG}.{layer}":
            return obj
        qual = f"{layer}.{name}"
        if isinstance(obj, type):
            if issubclass(obj, BaseException) or hasattr(obj, "__members__"):
                return obj  # exceptions and enums are matched on, not called
            return _ClassProxy(self, obj, qual)
        if callable(obj):
            return self.span(obj, qual, self._post_for(qual))
        return obj

    def install(self) -> None:
        mods = {layer: sys.modules[f"{PKG}.{layer}"] for layer in LAYERS}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType):
                    callee = obj.__name__.rpartition(".")[2]
                    if obj.__name__.startswith(PKG + ".") and callee in mods and callee != layer:
                        setattr(mod, name, self._module_view(obj, callee))
                    continue
                owner = getattr(obj, "__module__", "") or ""
                callee = owner.rpartition(".")[2]
                if owner.startswith(PKG + ".") and callee in mods and callee != layer:
                    setattr(mod, name, self._wrap(obj, callee, name))

    def _module_view(self, mod: types.ModuleType, layer: str) -> types.SimpleNamespace:
        return types.SimpleNamespace(**{
            name: self._wrap(obj, layer, name) for name, obj in vars(mod).items()
        })

    # -- output -----------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        with open(path + ".bin", "wb") as fh:
            self.buf.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters, **extra}, fh)


class _ClassProxy:
    """Calls and public static methods of a class become spans; isinstance works."""

    def __init__(self, tracer: Tracer, cls: type, qual: str):
        self._cls = cls
        self._tracer = tracer
        self._qual = qual
        self._new = tracer.span(cls, qual, tracer._post_for(qual))
        self._attrs: dict = {}

    def __call__(self, *args, **kwargs):
        return self._new(*args, **kwargs)

    def __getattr__(self, name: str):
        attr = getattr(self._cls, name)
        if name.startswith("_") or not callable(attr) or isinstance(attr, type):
            return attr
        if name not in self._attrs:
            self._attrs[name] = self._tracer.span(attr, f"{self._qual}.{name}")
        return self._attrs[name]

    def __instancecheck__(self, obj) -> bool:
        return isinstance(obj, self._cls)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def load(path: str) -> tuple[array, dict]:
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    buf = array("d")
    with open(path + ".bin", "rb") as fh:
        buf.frombytes(fh.read())
    return buf, meta


def analyse(buf: array, meta: dict) -> dict:
    """Per-layer metrics of one traced replay (times in seconds)."""
    names = meta["names"]
    layer_of = [n.partition(".")[0] for n in names]
    n = len(buf) // FIELDS
    child: dict[float, float] = {}
    for k in range(n):
        o = k * FIELDS
        parent = buf[o + 1]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (buf[o + 5] - buf[o + 4])
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    root_s = threshold_s = 0.0
    add_ms: list[float] = []
    mul_ms: list[float] = []
    labtree_by_line: dict[float, float] = {}
    for k in range(n):
        o = k * FIELDS
        sid, parent, nid, line, t0, t1, err = buf[o:o + FIELDS]
        name = names[int(nid)]
        layer = layer_of[int(nid)]
        dur = t1 - t0
        calls[layer] += 1
        self_s[layer] += dur - child.get(sid, 0.0)
        errors[layer] += int(err)
        if parent < 0:
            root_s += dur
        if name in ("chains.threshold_divides", "chains.threshold_card_at_least"):
            threshold_s += dur
        elif name in ("surreal.s_add", "surreal.s_sub"):
            add_ms.append(dur * 1e3)
        elif name == "surreal.s_mul":
            mul_ms.append(dur * 1e3)
        if layer == "labtree":
            labtree_by_line[line] = labtree_by_line.get(line, 0.0) + dur
    c = meta["counters"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = self_s[layer] / root_s if root_s else 0.0
        out[f"{layer}.errors"] = errors[layer]
    out["parser.tokens_per_s"] = c["tokens"] / self_s["parser"] if self_s["parser"] else 0.0
    out["field.terms_mean"] = c["terms"] / c["numexprs"] if c["numexprs"] else 0.0
    out["field.cmp_unknown_share"] = c["nf_cmp_unknown"] / c["nf_cmp"] if c["nf_cmp"] else 0.0
    out["chains.threshold_s"] = threshold_s
    out["surreal.add_ms_p50"] = statistics.median(add_ms) if add_ms else 0.0
    out["surreal.mul_ms_p50"] = statistics.median(mul_ms) if mul_ms else 0.0
    out["labtree.check_ms_p50"] = (
        statistics.median(labtree_by_line.values()) * 1e3 if labtree_by_line else 0.0
    )
    out["trace.root_s"] = root_s
    out["trace.spans"] = n
    return out
