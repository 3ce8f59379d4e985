"""Spans around ultratop's public functions, installed from the benchmark.

``Tracer.install`` replaces each public function listed in ``WRAPPED`` in
every ultratop module namespace that binds it (the package, the defining
module, ``ultratop.cli``, ``ultratop.rings`` ...) and the listed class
methods on their classes; ``Tracer.remove`` puts the originals back.
Functions called in tight loops, such as ``is_prime``, are not wrapped.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> {public name: metric the span's inclusive time goes to, or None}
WRAPPED = {
    "topology": {
        "FinSpace.from_json": "validate", "FinSpace.from_closed": "validate",
        "FinSpace.closed_sets": "closed_sets", "is_spectral": "spectral", "patch_topology": "patch",
        "from_subbasis": "subbasis", "ultra_topology": "ultra",
        "specialization_order": "order", "hasse_dot": "order",
        "generic_closure": None, "is_continuous": None, "poset_to_space": None,
        "space_to_poset": None, "ultra_transport": None,
    },
    "core": {
        "family_transforms": "family_transforms", "fip_check": "fip_check", "atoms": "atoms",
        "stable_closure": "closure", "is_stable": "closure", "limit_set": "closure",
        "SetFamily.from_json": None,
    },
    "specz": {
        "z_fip_check": "fip", "v_of": "factor", "d_of": "factor", "prime_factors": "factor",
        "ZConstructible.from_json": None, "patch_closure": None, "zariski_closure": None,
        "is_ultra_closed": None,
    },
    "rings": {
        "FiniteRing.from_json": "build", "zmod": "build", "gf": "build", "product": "build",
        "spec_space": "spec", "intermediate_rings": "intermediate", "overring_space": "intermediate",
        "overring_family": "intermediate", "all_ideals": None, "prime_ideals": None,
        "spec_functor": None,
    },
    "cli": {"main": None},
}

GROUP = {
    f"{layer}.{name}": (f"{layer}.{group}_ms" if group else None)
    for layer, names in WRAPPED.items()
    for name, group in names.items()
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: object = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ultratop" or n.startswith("ultratop.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"ultratop.{layer}"]
            for qual in names:
                span = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    else:
                        new = self._wrap(span, raw)
                    setattr(cls, attr, new)
                    self._undo.append((cls, attr, raw))
                    continue
                fn = getattr(home, qual)
                traced = self._wrap(span, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)
                            self._undo.append((module, attr, fn))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_times(spans: list[list], keep) -> dict[str, float]:
    """Per-layer call counts, self time and grouped inclusive time (ms) over
    the spans whose op id satisfies ``keep``.

    Self time is a span's duration minus the durations of its direct child
    spans.  A grouped time counts only the outermost span of its group, so
    ``FinSpace.from_json`` calling ``from_closed`` is not counted twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, op_id) in enumerate(spans):
        if not keep(op_id):
            continue
        layer = name.split(".", 1)[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += (end - start - child_ns[i]) / 1e6
        group = GROUP[name]
        if group is None:
            continue
        p = parent
        while p >= 0 and GROUP[spans[p][0]] != group:
            p = spans[p][3]
        if p < 0:
            out[group] += (end - start) / 1e6
    return out
