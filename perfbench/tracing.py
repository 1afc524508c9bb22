"""Spans at mpart's module boundaries, installed from outside the program.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every name in the ``mpart`` modules that refers to one of them
(``from .radix import to_base`` copies included); methods are wrapped on
their class.  ``uninstall`` puts the originals back, so untraced runs pay
nothing.

Each call opens a span with its name, start, end and parent span.  Spans
are folded into per-name totals as they close, so memory stays flat on
runs with millions of calls: a span's self time is its duration minus the
durations of the spans it directly caused, and (parent, child) edges keep
the call structure.  Counters record work done at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "radix": ("to_base",),
    "polysum": ("IntPolynomial.eval", "IntPolynomial.compose_affine",
                "IntPolynomial.prefix_sum", "IntPolynomial.sum_range"),
    "counting": ("count_b_poly", "count_c_poly", "count_b_nested", "count_c_nested",
                 "recurrence_table", "count_b_gf"),
    "kernels": ("nested_sum_b", "nested_sum_c", "walk_partitions", "walk_gapfree"),
    "partitions": ("enumerate_b", "enumerate_c"),
    "bijection": ("phi", "phi_inv", "is_member", "enumerate_members"),
    "congruence": ("b_mod_product", "c_mod_formula", "churchhouse_check"),
    "cli": ("main",),
}

_CALLS = ("polysum.eval", "polysum.compose_affine", "polysum.prefix_sum", "polysum.sum_range",
          "radix.to_base", "bijection.phi", "bijection.phi_inv", "bijection.is_member",
          "bijection.enumerate_members")
_SELF = _CALLS + (
    "counting.count_b_poly", "counting.count_c_poly", "counting.count_b_nested",
    "counting.count_c_nested", "counting.recurrence_table", "counting.count_b_gf",
    "kernels.nested_sum_b", "kernels.nested_sum_c", "kernels.walk_partitions",
    "kernels.walk_gapfree", "partitions.enumerate_b", "partitions.enumerate_c",
    "congruence.b_mod_product", "congruence.c_mod_formula", "congruence.churchhouse_check",
)

# Every per-layer metric: name -> (unit, better).  BENCHMARK.json lists the same.
PER_LAYER = {
    **{f"{s}.calls": ("count", "lower") for s in _CALLS},
    **{f"{s}.self_s": ("s", "lower") for s in _SELF},
    "cli.self_s": ("s", "lower"),
    "polysum.max_degree": ("count", "lower"),
    "polysum.max_coeff_bits": ("bit", "lower"),
    "radix.to_base.hit_ratio": ("ratio", "higher"),
    "counting.recurrence_table.entries": ("count", "lower"),
    "counting.nested_refusals": ("ratio", "lower"),
    "kernels.steps": ("count", "lower"),
    "partitions.objects": ("count", "lower"),
    "bijection.objects": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (parent, child) -> [calls, total_s]
        self.counters = {"max_degree": 0, "max_coeff_bits": 0, "table_entries": 0,
                         "nested_attempts": 0, "nested_refusals": 0, "steps": 0,
                         "partitions": 0, "bijection": 0, "to_base_hits": 0}
        self.missing: list[str] = []
        self._stack: list[list] = [[None, 0.0]]  # open spans: [name, child_s]
        self._patches: list[tuple] = []
        self._budget_exceeded = getattr(sys.modules.get("mpart.budgets"), "BudgetExceeded", ())

    # -- counters fed by span results ---------------------------------------

    def _poly(self, result, exc) -> None:
        if exc is None:
            c = self.counters
            c["max_degree"] = max(c["max_degree"], result.degree)
            c["max_coeff_bits"] = max(c["max_coeff_bits"], *(abs(x).bit_length() for x in result.coeffs))

    def _observer(self, name: str, fn):
        c = self.counters

        def add(key, amount):
            c[key] += amount

        if name == "radix.to_base" and hasattr(fn, "cache_info"):
            last = [fn.cache_info().hits]

            def lookup(r, exc):  # a call that raised the hit count was a hit
                hits = fn.cache_info().hits
                add("to_base_hits", hits > last[0])
                last[0] = hits
            return lookup
        if name in ("polysum.prefix_sum", "polysum.compose_affine"):
            return self._poly
        if name == "counting.recurrence_table":
            return lambda r, exc: exc is None and add("table_entries", len(r))
        if name in ("counting.count_b_nested", "counting.count_c_nested"):
            def nested(r, exc):
                add("nested_attempts", 1)
                if isinstance(exc, self._budget_exceeded):
                    add("nested_refusals", 1)
            return nested
        if name.startswith("kernels."):
            return lambda r, exc: exc is None and add("steps", max(r, 0))
        if name.startswith("partitions.enumerate"):
            return lambda r, exc: exc is None and add("partitions", len(r))
        if name == "bijection.enumerate_members":
            return lambda r, exc: exc is None and add("bijection", len(r))
        if name in ("bijection.phi", "bijection.phi_inv"):
            return lambda r, exc: exc is None and add("bijection", 1)
        return None

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        stack = self._stack
        observe = self._observer(name, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            exc = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration
                if observe is not None:
                    observe(result, exc)
        return span

    def install(self) -> Tracer:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "mpart" or k.startswith("mpart."))]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"mpart.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{qualname}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for target in ([owner] if owner_name else modules):
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            self._patches.append((target, key, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        def total(name, i):
            return self.totals.get(name, [0, 0.0, 0.0])[i]

        out: dict[str, float] = {}
        for s in _CALLS:
            out[f"{s}.calls"] = total(s, 0)
        for s in _SELF:
            out[f"{s}.self_s"] = total(s, 2)
        out["cli.self_s"] = total("cli.main", 2)
        c = self.counters
        out["polysum.max_degree"] = c["max_degree"]
        out["polysum.max_coeff_bits"] = c["max_coeff_bits"]
        lookups = total("radix.to_base", 0)
        out["radix.to_base.hit_ratio"] = c["to_base_hits"] / lookups if lookups else 0.0
        out["counting.recurrence_table.entries"] = c["table_entries"]
        out["counting.nested_refusals"] = (
            c["nested_refusals"] / c["nested_attempts"] if c["nested_attempts"] else 0.0)
        out["kernels.steps"] = c["steps"]
        out["partitions.objects"] = c["partitions"]
        out["bijection.objects"] = c["bijection"]
        out["trace.overhead_s"] = overhead_s
        assert out.keys() == PER_LAYER.keys()
        return out

    def edge_report(self) -> list[dict]:
        rows = [{"parent": p or "-", "child": ch, "calls": v[0], "total_s": round(v[1], 6)}
                for (p, ch), v in self.edges.items()]
        return sorted(rows, key=lambda r: -r["total_s"])
