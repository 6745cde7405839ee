"""Spans and counters around the public functions of each greenring module.

The tracer replaces a function wherever callers look its name up: in its
defining module and in every greenring module that imported it by name (for
example `multiply` in oracle, powers and cli).  Each wrapper records a span
(name, start, end, parent span, op id) in memory and updates the counters that
belong to that boundary.  `uninstall` puts every original object back.

A layer's self time is the time of its spans minus the time covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name); attributes may be "Class.method"
SPECS = (
    ("cli", "main", "cli.main"),
    ("core", "GreenElement.__add__", "core.add"),
    ("adams", "adams", "adams.adams"),
    ("adams", "adams_basis", "adams.basis"),
    ("adams", "spread", "adams.spread"),
    ("powers", "exterior_sequence", "powers.sequence"),
    ("powers", "symmetric_sequence", "powers.sequence"),
    ("powers", "exterior_power", "powers.power"),
    ("powers", "symmetric_power", "powers.power"),
    ("oracle", "multiply", "oracle.multiply"),
    ("oracle", "pair_product", "oracle.pair_product"),
    ("oracle", "tensor", "oracle.build"),
    ("oracle", "wedge", "oracle.build"),
    ("oracle", "sym", "oracle.build"),
    ("oracle", "decompose", "oracle.decompose"),
    ("gfp", "column_basis", "gfp.column_basis"),
    ("gfp", "rank_profile", "gfp.rank_profile"),
    ("gfp", "smith_chain_valuations", "gfp.smith"),
)

# per-layer metrics: name -> unit
METRICS = {
    "cli.self_s": "s",
    "core.elements_built": "count",
    "core.coeff_slots_built": "count",
    "core.add_calls": "count",
    "core.add_s": "s",
    "adams.adams_calls": "count",
    "adams.basis_calls": "count",
    "adams.spread_calls": "count",
    "adams.spread_s": "s",
    "adams.self_s": "s",
    "powers.sequence_calls": "count",
    "powers.newton_products": "count",
    "powers.self_s": "s",
    "oracle.multiply_calls": "count",
    "oracle.multiply_s": "s",
    "oracle.basis_pairs_requested": "count",
    "oracle.pair_product_calls": "count",
    "oracle.pair_hit_ratio": "ratio",
    "oracle.pair_product_s": "s",
    "oracle.build_s": "s",
    "oracle.build_entries": "count",
    "oracle.decompose_calls": "count",
    "oracle.decompose_s": "s",
    "oracle.decompose_dim_sum": "count",
    "oracle.decompose_dim_max": "count",
    "gfp.column_basis_calls": "count",
    "gfp.column_basis_s": "s",
    "gfp.pivots": "count",
    "gfp.rank_profile_s": "s",
    "gfp.smith_calls": "count",
    "gfp.smith_s": "s",
    "gfp.smith_cells": "count",
}


def greenring_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "greenring" or name.startswith("greenring."))
    }


def snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded greenring module and of GreenElement."""
    snap = {}
    for name, mod in greenring_modules().items():
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
    element = sys.modules["greenring.core"].GreenElement
    for attr, value in vars(element).items():
        snap[("GreenElement", attr)] = value
    return snap


def same_snapshot(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, span: str, site: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = _HOOKS.get(span, (None, None))
        newton = span == "oracle.multiply" and site == "greenring.powers"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            if newton:
                counts["powers.newton_products"] += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (span, t0, t1, parent, self.op_id)
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def _init_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def __init__(obj, ctx, *args, **kwargs):
            counts["core.elements_built"] += 1
            counts["core.coeff_slots_built"] += ctx.order
            return fn(obj, ctx, *args, **kwargs)

        return __init__

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        modules = greenring_modules()
        element = modules["greenring.core"].GreenElement
        self._patch(element, "__init__", self._init_wrapper(vars(element)["__init__"]))
        for mod_name, attr, span in SPECS:
            home = modules.get(f"greenring.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._patch(cls, meth, self._span_wrapper(vars(cls)[meth], span, cls_name))
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            for site, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, self._span_wrapper(original, span, site))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        misses = 0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_ns[name.split(".")[0]] += t1 - t0 - child[i]
            if name == "oracle.pair_product" and self._under(i, "oracle.multiply"):
                misses += 1
        c = self.counts
        requested = c["oracle.basis_pairs_requested"]
        values = {
            "cli.self_s": self_ns["cli"] / 1e9,
            "core.elements_built": c["core.elements_built"],
            "core.coeff_slots_built": c["core.coeff_slots_built"],
            "core.add_calls": calls["core.add"],
            "core.add_s": total["core.add"] / 1e9,
            "adams.adams_calls": calls["adams.adams"],
            "adams.basis_calls": calls["adams.basis"],
            "adams.spread_calls": calls["adams.spread"],
            "adams.spread_s": total["adams.spread"] / 1e9,
            "adams.self_s": self_ns["adams"] / 1e9,
            "powers.sequence_calls": calls["powers.sequence"],
            "powers.newton_products": c["powers.newton_products"],
            "powers.self_s": self_ns["powers"] / 1e9,
            "oracle.multiply_calls": calls["oracle.multiply"],
            "oracle.multiply_s": total["oracle.multiply"] / 1e9,
            "oracle.basis_pairs_requested": requested,
            "oracle.pair_product_calls": calls["oracle.pair_product"],
            "oracle.pair_hit_ratio": (requested - misses) / requested if requested else 0.0,
            "oracle.pair_product_s": total["oracle.pair_product"] / 1e9,
            "oracle.build_s": total["oracle.build"] / 1e9,
            "oracle.build_entries": c["oracle.build_entries"],
            "oracle.decompose_calls": calls["oracle.decompose"],
            "oracle.decompose_s": total["oracle.decompose"] / 1e9,
            "oracle.decompose_dim_sum": c["oracle.decompose_dim_sum"],
            "oracle.decompose_dim_max": c["oracle.decompose_dim_max"],
            "gfp.column_basis_calls": calls["gfp.column_basis"],
            "gfp.column_basis_s": total["gfp.column_basis"] / 1e9,
            "gfp.pivots": c["gfp.pivots"],
            "gfp.rank_profile_s": total["gfp.rank_profile"] / 1e9,
            "gfp.smith_calls": calls["gfp.smith"],
            "gfp.smith_s": total["gfp.smith"] / 1e9,
            "gfp.smith_cells": c["gfp.smith_cells"],
        }
        assert values.keys() == METRICS.keys()
        return values

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0}\t{t1}\t{parent}\t{op}\n")


def _count_pairs(counts, args):
    x, y = args[0], args[1]
    counts["oracle.basis_pairs_requested"] += len(x.support()) * len(y.support())


def _count_decompose(counts, args):
    d = args[1].shape[0]
    counts["oracle.decompose_dim_sum"] += d
    counts["oracle.decompose_dim_max"] = max(counts["oracle.decompose_dim_max"], d)


def _count_smith(counts, args):
    m1, m2, b = args[0].shape
    counts["gfp.smith_cells"] += m1 * m2 * b


def _count_build(counts, result):
    counts["oracle.build_entries"] += result.shape[0] * result.shape[1]


def _count_pivots(counts, result):
    counts["gfp.pivots"] += len(result[1])


# span name -> (hook on the arguments, hook on the result)
_HOOKS = {
    "oracle.multiply": (_count_pairs, None),
    "oracle.decompose": (_count_decompose, None),
    "gfp.smith": (_count_smith, None),
    "oracle.build": (None, _count_build),
    "gfp.column_basis": (None, _count_pivots),
}
