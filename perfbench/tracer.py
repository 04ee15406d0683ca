"""Per-layer spans and counters recorded from outside the library.

``Tracer.install()`` replaces every public function of every
``simphom.*`` module, wherever a module attribute (or a value of a
module-level dict, such as the CLI's command table) is the same object,
with a wrapper that records a span: layer, name, parent span, start and
end.  A few class methods are wrapped too, because the work of some
layers lives in methods.  ``uninstall()`` puts every original back, so
traced and untraced passes run the same library code in one process.

Layers are the module names; ``simplex`` word arithmetic counts as
``sset``.  Hot leaf helpers are not spanned, because a span per call
would cost more than the call: ``SimplicialSet.face`` is only counted,
and the word arithmetic of ``simplex`` and generator functions (whose
work happens while the caller iterates) are left alone, so their time
is the self time of the layer that called them.  Work the tracer itself
does after a call (counting matrix non-zeros, say) is recorded as a
child span of layer ``trace``, so it is not charged to any layer.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "simphom"
LAYER_OF_MODULE = {"simplex": "sset"}
UNSPANNED_MODULES = {"simplex"}

# Span records are lists: [layer, name, parent index, start, end, job]
LAYER, NAME, PARENT, START, END, JOB = range(6)


def _layer(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return LAYER_OF_MODULE.get(short, short)


def _count_groups(result) -> int:
    """Groups a homology-layer call hands back to its caller."""
    if hasattr(result, "groups") and isinstance(result.groups, dict):
        return len(result.groups)                      # exact-sequence reports
    if hasattr(result, "homology_sides"):
        return len(result.homology_sides) + len(result.cohomology_sides)
    if hasattr(result, "group") and hasattr(result, "torsion_orders"):
        return 1                                       # a Subquotient
    if isinstance(result, (list, tuple)):
        return sum(1 for x in result if type(x).__name__ == "AbelianGroup")
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._hooks = {
            "snf.smith_normal_form": self._on_snf,
            "snf.Subquotient.__init__": lambda a, r: self.counts.update(["snf.subquotients"]),
            "snf.Subquotient.reduce": lambda a, r: self.counts.update(["snf.reduce_calls"]),
            "intmatrix.IntegerMatrix.__mul__": self._on_mul,
            "intmatrix.IntegerMatrix.apply": self._on_apply,
            "homology.exact_at": lambda a, r: self.counts.update(["homology.exact_checks"]),
            "chains.ChainComplex.__init__": self._on_chain_complex,
            "io.parse_space": lambda a, r: self._add("io.bytes", len(a[0])),
            "io.print_space": lambda a, r: self._add("io.bytes", len(r)),
            "io.parse_matrix": lambda a, r: self._add("io.bytes", len(a[0])),
            "io.print_matrix": lambda a, r: self._add("io.bytes", len(r)),
            "io.parse_group": lambda a, r: self._add("io.bytes", len(a[0])),
            "io.print_group": lambda a, r: self._add("io.bytes", len(r)),
            "sset.SimplicialSet.__init__": lambda a, r: self._add(
                "sset.gens_built", sum(len(row) for row in a[0].generators)),
            "kan.kan_check": self._on_kan,
            "pi1.tietze_simplify": lambda a, r: self._add("pi1.tietze_steps", r.steps_used),
            "covers.build_cover": lambda a, r: self._add("covers.cover_gens", sum(r.space.counts())),
        }

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if short in UNSPANNED_MODULES:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fn.__name__.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[id(fn)] = self._span(fn, _layer(mod.__name__), f"{short}.{fn.__name__}")
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patch(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers and inspect.isfunction(item):
                            self._patch(val, key, wrappers[id(item)], item=True)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        methods = {
            "intmatrix": ("IntegerMatrix", ["__mul__", "__rmul__", "apply"]),
            "snf": ("Subquotient", ["__init__", "reduce"]),
            "chains": ("ChainComplex", ["__init__", "verify_dd_zero"]),
            "sset": ("SimplicialSet", ["__init__"]),
            "abgroup": ("AbelianGroup", ["__post_init__", "from_cyclics", "direct_sum", "tensor",
                                         "tor", "hom", "ext", "parse", "__str__"]),
        }
        for short, (cls_name, names) in methods.items():
            cls = getattr(by_name[short], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                key = f"{short}.{cls_name}.{'__mul__' if name == '__rmul__' else name}"
                wrapped = self._span(fn, _layer(short), key)
                self._patch(cls, name, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        face = by_name["sset"].SimplicialSet.__dict__["face"]
        self._patch(by_name["sset"].SimplicialSet, "face", self._counter(face, "sset.face_calls"))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, item = self._patches.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _patch(self, owner, key, new, item: bool = False) -> None:
        original = owner[key] if item else (
            owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key))
        self._patches.append((owner, key, original, item))
        if item:
            owner[key] = new
        else:
            setattr(owner, key, new)

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, layer: str, name: str):
        tracer = self
        hook = self._hooks.get(name)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, name, parent, 0.0, 0.0, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None or layer == "homology":
                t0 = perf_counter()
                if hook is not None:
                    hook(args, result)
                if layer == "homology" and (parent < 0 or spans[parent][LAYER] != "homology"):
                    tracer._add("homology.groups", _count_groups(result))
                spans.append(["trace", name, parent, t0, perf_counter(), tracer.job])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters -------------------------------------------------------------

    def _add(self, key: str, n) -> None:
        self.counts[key] += n

    def _on_snf(self, args, result) -> None:
        m = args[0]
        self.counts["snf.entries"] += m.rows * m.cols
        self.counts["snf.max_side"] = max(self.counts["snf.max_side"], m.rows, m.cols)

    def _on_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        self.counts["intmatrix.mul_calls"] += 1
        self.counts["intmatrix.mul_ops"] += a.rows * a.cols * (1 if isinstance(b, int) else b.cols)

    def _on_apply(self, args, result) -> None:
        self.counts["intmatrix.apply_calls"] += 1
        self.counts["intmatrix.apply_ops"] += args[0].rows * args[0].cols

    def _on_chain_complex(self, args, result) -> None:
        for m in args[0].boundaries.values():
            self.counts["chains.boundary_entries"] += m.rows * m.cols
            self.counts["chains.boundary_nnz"] += sum(1 for row in m.data for v in row if v)

    def _on_kan(self, args, report) -> None:
        self.counts["kan.horns"] += report.horns_checked
        self.counts["kan.unfillable"] += len(report.failures)

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer (self time: the span minus the
        time covered by its child spans)."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        totals: dict[str, dict[str, float]] = {}
        for k, rec in enumerate(self.spans):
            t = totals.setdefault(rec[LAYER], {"calls": 0, "self_s": 0.0})
            t["self_s"] += rec[END] - rec[START] - child_time[k]
            if rec[LAYER] != "trace":
                t["calls"] += 1
        return totals
