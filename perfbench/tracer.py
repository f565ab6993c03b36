"""Per-layer tracing for the benchmark's traced passes.

Spans are recorded by wrappers that the benchmark installs around public
functions of the `bingcheck` package; nothing inside the package changes.
Every span has a layer name, a start, an end and a parent span, and all
spans stay in memory until the pass ends.  A layer's self time is the
duration of its spans minus the time their direct child spans cover.

LAYERS is also the benchmark's layer -> metric -> workload map: for each
wrapped function it names the end-to-end metric it should move, the
workloads that move it, and the workloads whose passes must call it.
"""

import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

ALL = ("bing", "presentations")


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    `target` is "module:attribute path"; `reach` lists the workloads whose
    passes must call it, and with `exclusive` no other workload may.
    `repeat` adds a repeat_ratio metric keyed on the first argument, `cache`
    a hit_ratio read from the function's lru_cache.
    """

    name: str
    target: str
    moves: str
    reach: tuple
    repeat: bool = False
    cache: bool = False
    exclusive: bool = False


LAYERS = (
    Layer("matrices.det", "bingcheck.matrices:ExactMatrix.det",
          "wall_s on bing, presentations",
          ALL, repeat=True),
    Layer("laurent.mul", "bingcheck.laurent:LaurentPoly.__mul__",
          "wall_s on bing, presentations", ALL),
    Layer("laurent.exact_div", "bingcheck.laurent:LaurentPoly.exact_div",
          "wall_s on bing, presentations", ALL),
    Layer("factor.factor_rational", "bingcheck.factor:factor_rational",
          "wall_s on bing, presentations", ALL, repeat=True),
    Layer("intpoly.sturm_isolate", "bingcheck.intpoly:sturm_isolate",
          "wall_s on presentations, bing", ALL),
    Layer("intpoly.refine", "bingcheck.intpoly:RootInterval.refine",
          "wall_s on presentations, bing", ALL),
    Layer("intpoly.cyclotomic", "bingcheck.intpoly:cyclotomic",
          "wall_s on presentations, bing", ALL, cache=True),
    Layer("fields.evaluated_hermitian_signature",
          "bingcheck.fields:evaluated_hermitian_signature",
          "wall_s on presentations", ALL),
    Layer("fields.rank_over_factor", "bingcheck.fields:rank_over_factor",
          "wall_s on presentations", ALL),
    Layer("fields.field_mul", "bingcheck.fields:PolyQuotientField.mul",
          "wall_s on presentations", ALL),
    Layer("fields.field_inv", "bingcheck.fields:PolyQuotientField.inv",
          "wall_s on presentations", ALL),
    Layer("fields.real_sign", "bingcheck.fields:CyclotomicField.real_sign",
          "wall_s on presentations", ALL),
    Layer("fields.cos_enclosure", "bingcheck.fields:cos_enclosure",
          "wall_s on presentations", ALL, cache=True),
    Layer("fields.cyclotomic_field", "bingcheck.fields:cyclotomic_field",
          "wall_s on presentations", ALL, cache=True),
    Layer("sigfunc.signature_function_of_matrix",
          "bingcheck.sigfunc:signature_function_of_matrix",
          "wall_s on presentations", ALL),
    # only the telescoping step of the Bing verdict compares step functions
    Layer("sigfunc.same_step_function", "bingcheck.sigfunc:same_step_function",
          "wall_s on bing", ("bing",)),
    Layer("sigfunc.circle_jump_factors", "bingcheck.sigfunc:circle_jump_factors",
          "wall_s on presentations", ALL),
    Layer("seifert.alexander", "bingcheck.seifert:alexander",
          "wall_s on bing, presentations (alexander runs 3x per battery)", ALL, repeat=True),
    Layer("seifert.fox_milnor", "bingcheck.seifert:fox_milnor",
          "wall_s on bing, presentations", ALL),
    Layer("witt.WittPresentation", "bingcheck.witt:WittPresentation.__init__",
          "wall_s on bing, presentations", ALL),
    Layer("witt.order", "bingcheck.witt:WittPresentation.order",
          "wall_s on bing, presentations", ALL),
    Layer("witt.cyclotomic_factors", "bingcheck.witt:cyclotomic_factors",
          "wall_s on bing, presentations", ALL),
    Layer("witt.presentation_battery", "bingcheck.witt:presentation_battery",
          "wall_s on bing, presentations", ALL),
    Layer("witt.obstruction_battery", "bingcheck.witt:obstruction_battery",
          "wall_s on bing, presentations", ALL),
    Layer("witt.bing_double_verdict", "bingcheck.witt:bing_double_verdict",
          "wall_s on bing", ("bing",), exclusive=True),
    Layer("cover.covering_seifert_matrix", "bingcheck.cover:covering_seifert_matrix",
          "wall_s on presentations", ("presentations",), exclusive=True),
    Layer("cover.branched_cover_homology_order",
          "bingcheck.cover:branched_cover_homology_order",
          "wall_s on presentations", ("presentations",), exclusive=True),
    Layer("catalog.parse_seifert", "bingcheck.catalog:parse_seifert",
          "wall_s on bing, presentations", ALL),
    Layer("catalog.format_report", "bingcheck.catalog:format_report",
          "wall_s on bing, presentations", ALL),
)


def _resolve(target):
    modname, path = target.split(":")
    obj = sys.modules[modname]
    for part in path.split("."):
        # class __dict__ lookup keeps the plain function behind a method
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _package_namespaces():
    """Every module of the package and every class defined in it."""
    seen = set()
    for modname, mod in list(sys.modules.items()):
        if modname != "bingcheck" and not modname.startswith("bingcheck."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if (isinstance(value, type) and value.__module__.startswith("bingcheck")
                    and id(value) not in seen):
                seen.add(id(value))
                yield value


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.layer_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.originals = {}
        self.repeats = [0] * len(LAYERS)
        self.seen = [set() for _ in LAYERS]
        self.arcs = self.jumps = self.q_max = 0

    def install(self):
        """Wrap every binding of every layer's function in the package; a
        function also imported into other modules (factor_rational into
        sigfunc and seifert, cyclotomic into fields, sigfunc and witt) is
        wrapped there too, since a missed binding would read as 0 calls."""
        for index, layer in enumerate(LAYERS):
            original = _resolve(layer.target)
            self.originals[layer.name] = original
            wrapper = self._wrap(index, layer, original)
            bound = 0
            for namespace in _package_namespaces():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError("no binding of %s found" % layer.target)

    def _wrap(self, index, layer, fn):
        layer_of, parent_of, start, end = (
            self.layer_of, self.parent_of, self.start, self.end)
        stack = self.stack
        seen = self.seen[index] if layer.repeat else None
        observe = (self._observe_sigfunc
                   if layer.name == "sigfunc.signature_function_of_matrix" else None)

        def wrapper(*args, **kwargs):
            span = len(layer_of)
            layer_of.append(index)
            parent_of.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                start[span] = t0
                stack.pop()
            if seen is not None:
                key = args[0]
                if key in seen:
                    self.repeats[index] += 1
                else:
                    seen.add(key)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_sigfunc(self, sf):
        self.arcs += len(sf.arcs)
        self.jumps += len(sf.jumps)
        for arc in sf.arcs:
            self.q_max = max(self.q_max, arc.sample_angle.denominator)

    def begin_op(self):
        """Open the root span of one op; repeats are counted within an op."""
        for s in self.seen:
            s.clear()
        span = len(self.layer_of)
        self.layer_of.append(-1)
        self.parent_of.append(-1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(span)

    def end_op(self):
        self.end[self.stack.pop()] = perf_counter()

    def metrics(self):
        """Per-layer metrics of the pass: calls, self time, ratios."""
        n = len(self.layer_of)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent_of[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            k = self.layer_of[i]
            if k >= 0:
                calls[k] += 1
                self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        for k, layer in enumerate(LAYERS):
            out[layer.name + ".calls"] = calls[k]
            out[layer.name + ".self_s"] = self_s[k]
            if layer.repeat:
                out[layer.name + ".repeat_ratio"] = (
                    self.repeats[k] / calls[k] if calls[k] else 0.0)
            if layer.cache:
                info = self.originals[layer.name].cache_info()
                lookups = info.hits + info.misses
                out[layer.name + ".hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["sigfunc.arcs"] = self.arcs
        out["sigfunc.jumps"] = self.jumps
        out["sigfunc.sample_q_max"] = self.q_max
        return out
