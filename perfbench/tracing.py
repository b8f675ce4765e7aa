"""Span tracing of mstquery's layers, applied from outside the package.

`Tracer.install()` replaces each traced function by a wrapper, both in the
module that defines it and in every other loaded `mstquery` module (or the
package namespace) that imported the same object, so calls between modules
are traced too.  Methods are replaced on their class.  `uninstall()` puts
the originals back.  Spans (name, start, end, parent) are kept in memory;
`summary()` turns them into call counts, self time (span time minus the time
of its child spans) and inclusive time.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

# (span name, module, attribute).  Per-element helpers such as
# errormetrics.relation, limittrees.lower_key/upper_key and the rational
# parsers are left out: they run millions of times per batch, and a span
# each would make the traced run measure the tracer.
TRACED = [
    ("graphcore.reveal", "mstquery.graphcore", "QueryRun.reveal"),
    ("graphcore.fork", "mstquery.graphcore", "QueryRun.fork"),
    ("graphcore.contract", "mstquery.graphcore", "QueryRun.contract"),
    ("graphcore.delete", "mstquery.graphcore", "QueryRun.delete"),
    ("limittrees.lower_limit_tree", "mstquery.limittrees", "lower_limit_tree"),
    ("limittrees.upper_limit_tree", "mstquery.limittrees", "upper_limit_tree"),
    ("limittrees.reduce_once", "mstquery.limittrees", "reduce_once"),
    ("limittrees.ensure_unique_limit_trees", "mstquery.limittrees", "ensure_unique_limit_trees"),
    ("limittrees.compute_limit_trees", "mstquery.limittrees", "compute_limit_trees"),
    # the one private function traced: the tie scan that families-scale
    # spends its time in, behind ensure_unique/compute_limit_trees
    ("limittrees.uniqueness_gap", "mstquery.limittrees", "_uniqueness_gap"),
    ("limittrees.tree_cut", "mstquery.limittrees", "tree_cut"),
    ("limittrees.tree_cycle", "mstquery.limittrees", "tree_cycle"),
    ("limittrees.is_solved", "mstquery.limittrees", "is_solved"),
    ("oracle.opt_brute_force", "mstquery.oracle", "opt_brute_force"),
    ("oracle.mandatory_edges", "mstquery.oracle", "mandatory_edges"),
    ("oracle.prediction_mandatory_edges", "mstquery.oracle", "prediction_mandatory_edges"),
    ("strategies.make_prediction_mandatory_free", "mstquery.strategies", "make_prediction_mandatory_free"),
    ("strategies.phase2_tradeoff", "mstquery.strategies", "phase2_tradeoff"),
    ("strategies.phase2_error_sensitive", "mstquery.strategies", "phase2_error_sensitive"),
    ("strategies.run_baseline", "mstquery.strategies", "run_baseline"),
    ("strategies.build_vc_instance", "mstquery.strategies", "build_vc_instance"),
    ("strategies.run_combined", "mstquery.strategies", "run_combined"),
    ("strategies.randomized_gamma", "mstquery.strategies", "randomized_gamma"),
    ("errormetrics.hop_distance", "mstquery.errormetrics", "hop_distance"),
    ("learner.erm_train", "mstquery.learner", "erm_train"),
    ("learner.discretize", "mstquery.learner", "discretize"),
    ("learner.sample", "mstquery.learner", "RealizationSampler.sample"),
    ("factory.gen", "mstquery.factory", "gen_random"),
    ("factory.gen", "mstquery.factory", "gen_vc_flip"),
    ("factory.gen", "mstquery.factory", "gen_path_parallel"),
    ("factory.gen", "mstquery.factory", "gen_triangle_chain"),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hooks(self) -> dict[str, Callable]:
        def reduce_result(changed):
            self._count("limittrees.reduce_once.hits", int(bool(changed)))

        def grid_result(grid):
            self._count("learner.candidates", sum(len(v) for v in grid.per_edge.values()))

        return {"limittrees.reduce_once": reduce_result, "learner.discretize": grid_result}

    def install(self) -> None:
        hooks = self._hooks()
        packages = [m for n, m in list(sys.modules.items()) if n == "mstquery" or n.startswith("mstquery.")]
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hooks.get(name))
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, "__dict__", {}).get(key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name and per layer: calls, self seconds, inclusive seconds
        (spans with no ancestor of the same name, or layer)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for start_end in spans:
            if start_end[3] >= 0:
                child[start_end[3]] += start_end[2] - start_end[1]
        by_name: dict[str, dict] = {}
        by_layer: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            layer = layer_of(name)
            outer_name = outer_layer = True
            p = parent
            while p >= 0 and (outer_name or outer_layer):
                pname = spans[p][0]
                if pname == name:
                    outer_name = False
                if layer_of(pname) == layer:
                    outer_layer = False
                p = spans[p][3]
            n = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            n["calls"] += 1
            n["self_s"] += dur - child[i]
            if outer_name:
                n["incl_s"] += dur
            lay = by_layer.setdefault(layer, {"self_s": 0.0, "incl_s": 0.0})
            lay["self_s"] += dur - child[i]
            if outer_layer:
                lay["incl_s"] += dur
        return {"names": by_name, "layers": by_layer, "counters": dict(self.counters)}

    def nested_count(self, outer: str, inner: str) -> int:
        """Spans named `inner` that have an ancestor named `outer`."""
        spans = self.spans
        count = 0
        for name, _, _, parent in spans:
            if name != inner:
                continue
            p = parent
            while p >= 0:
                if spans[p][0] == outer:
                    count += 1
                    break
                p = spans[p][3]
        return count
