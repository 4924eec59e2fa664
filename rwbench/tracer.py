"""Call tracer for the ramwedge benchmark.

The tracer works from outside the package: it rebinds ramwedge functions to
wrappers defined here.  Calls into the span layers (exterior, lattices,
chart, drivers, cli) are recorded as spans with a name, start, end, parent
span and job id.  Hot arithmetic in fields, scalars, rings and indexsets only
bumps call counters, so tracing costs little where calls are cheapest.

Modules bind names at import (``from .exterior import basis_wedge``), so a
function is rebound in every ramwedge namespace that holds it, not only in
the module that defines it.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

SPAN_MODULES = ("exterior", "lattices", "chart", "drivers", "cli")
ALL_MODULES = ("fields", "scalars", "indexsets", "exterior", "rings",
               "lattices", "chart", "drivers", "cli")

# Driver entry points and the result id of the certificate each produces.
DRIVER_IDS = {
    "verify_sign_lemma": "sign-lemma",
    "verify_worst_term_tables": "worst-terms",
    "verify_refined_basis": "refined-basis",
    "verify_spin_structure": "spin-structure",
    "run_counterexample": "counterexample",
    "verify_x1_zero": "x1-zero",
    "verify_operator_identities": "operator-identities",
    "check_point_implications": "implications",
    "verify_implications": "implications",
}

FRAME_BUILDERS = ("lambda_frame", "standard_e_frame", "chart_frame", "g_frame",
                  "f_frame", "build_frame")

# Metric group -> the span names it covers.  A group's calls and seconds
# count only its outermost spans, so nested calls are not counted twice.
SPAN_GROUPS = {
    "exterior.frame": {f"exterior.{f}" for f in FRAME_BUILDERS},
    "exterior.basis_wedge": {"exterior.basis_wedge"},
    "exterior.change_wedge_basis": {"exterior.change_wedge_basis"},
    "exterior.wedge_columns_masks": {"exterior.wedge_columns_masks"},
    "exterior.reindex_wedge_terms": {"exterior.reindex_wedge_terms"},
    "exterior.apply_wedge_power_operator": {"exterior.apply_wedge_power_operator"},
    "lattices.spanning_set": {"lattices.spanning_set"},
    "lattices.echelon": {"lattices.pi_adic_column_echelon"},
    "lattices.reduce_mod_pi": {"lattices.reduce_mod_pi"},
    "lattices.annihilators": {"lattices.annihilators"},
    "lattices.membership": {"lattices.membership_over_R"},
    "lattices.lattice_contains": {"lattices.lattice_contains"},
    "lattices.residue_rank": {"lattices.residue_rank"},
    "chart.full_report": {"chart.full_report"},
    "chart.check_kottwitz": {"chart.check_kottwitz"},
    "chart.check_spin": {"chart.check_spin"},
    "chart.check_refined": {"chart.check_refined"},
    "chart.check_kl": {"chart.check_kl"},
    "cli": {"cli.main"},
}
for _fn, _rid in DRIVER_IDS.items():
    SPAN_GROUPS.setdefault(f"drivers.{_rid}", set()).add(f"drivers.{_fn}")

ANNIHILATOR_CACHES = ("spin_annihilators", "refined_annihilators",
                      "kl_annihilators")


def _modules():
    return {name: importlib.import_module(f"ramwedge.{name}") for name in ALL_MODULES}


def annihilator_cache_stats() -> dict:
    """Summed hits and misses of the chart module's annihilator caches."""
    chart = importlib.import_module("ramwedge.chart")
    hits = misses = 0
    for name in ANNIHILATOR_CACHES:
        info = getattr(chart, name).cache_info()
        hits += info.hits
        misses += info.misses
    return {"hits": hits, "misses": misses}


class Tracer:
    """Spans and counters for one process.  Spans are kept in memory as
    ``[name, start, end, parent, job]`` lists and written out by the caller
    when the run ends."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.job = "setup"
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, note=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if note is not None:
                note(counters, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement, namespaces):
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = replacement
                    self._restore.append((ns, key, original))

    def _set_class_attr(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        mods = _modules()
        namespaces = [vars(m) for m in mods.values()]
        namespaces.append(vars(importlib.import_module("ramwedge")))
        notes = {
            "lattices.spanning_set": lambda c, a, r: c.update(
                {"lattices.spanning_set.generators": len(r)}),
            "lattices.pi_adic_column_echelon": lambda c, a, r: c.update(
                {"lattices.echelon.columns_in": len(a[0]),
                 "lattices.echelon.rank": len(r)}),
            "lattices.membership_over_R": lambda c, a, r: c.update(
                {"lattices.membership.rejected": 0 if r.ok else 1}),
        }
        for short in SPAN_MODULES:
            mod = mods[short]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{short}.{attr}"
                self._rebind(obj, self._span(name, obj, notes.get(name)), namespaces)

        fields, scalars, rings = mods["fields"], mods["scalars"], mods["rings"]
        for cls in (fields.PrimeField, fields.Rationals):
            for op in ("mul", "inv"):
                self._set_class_attr(cls, op, self._count(f"fields.{op}.calls",
                                                          cls.__dict__[op]))
        for attr, name in (("_mul", "scalars.mul.calls"),
                           ("_add", "scalars.add.calls"),
                           ("truncated_inverse", "scalars.truncated_inverse.calls")):
            original = getattr(scalars, attr)
            self._rebind(original, self._count(name, original), namespaces)
        for cls in (rings.FieldRing, rings.DualNumbers, rings.PolyRing):
            self._set_class_attr(cls, "mul", self._count(
                f"rings.{cls.kind}.mul.calls", cls.__dict__["mul"]))
        index_set = mods["indexsets"].IndexSet
        self._set_class_attr(index_set, "of", staticmethod(self._count(
            "indexsets.of.calls", index_set.__dict__["of"].__func__)))
        self._set_class_attr(index_set, "members", property(self._count(
            "indexsets.members.calls", index_set.__dict__["members"].fget)))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# Derived metrics


def span_metrics(spans: list, counters: Counter, cache: dict) -> dict:
    """Per-layer metrics from merged spans and counters.

    spans: ``[name, start, end, parent, job]`` with ``parent`` an index into
    the same list (or -1); spans of different processes must already have
    their parent indices rebased.
    """
    durations = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += durations[i]

    out = {}
    member_of = {}
    for group, members in SPAN_GROUPS.items():
        out[f"{group}.calls"] = 0
        out[f"{group}.s"] = 0.0
        for m in members:
            member_of.setdefault(m, []).append(group)

    def has_ancestor(i, test):
        p = parents[i]
        while p >= 0:
            if test(names[p]):
                return True
            p = parents[p]
        return False

    layer_self = {f"{m}.self_s": 0.0 for m in SPAN_MODULES}
    report_self = 0.0
    folds_in_reports = 0
    for i, name in enumerate(names):
        self_time = durations[i] - child_time[i]
        layer_self[f"{name.split('.', 1)[0]}.self_s"] += self_time
        for group in member_of.get(name, ()):
            if not has_ancestor(i, SPAN_GROUPS[group].__contains__):
                out[f"{group}.calls"] += 1
                out[f"{group}.s"] += durations[i]
        if name == "chart.full_report":
            report_self += self_time
        elif (name == "exterior.wedge_columns_masks" and parents[i] >= 0
              and names[parents[i]].startswith("chart.")
              and has_ancestor(i, "chart.full_report".__eq__)):
            # the fold of a chart point's own columns, not of a lattice
            # generator built inside the first report
            folds_in_reports += 1
    out.update(layer_self)
    out["chart.full_report.self_s"] = report_self
    reports = out["chart.full_report.calls"]
    out["chart.wedge_folds_per_report"] = folds_in_reports / reports if reports else 0.0
    def in_drivers(name):
        return name.startswith("drivers.")
    out["drivers.s"] = sum(durations[i] for i, n in enumerate(names)
                           if in_drivers(n) and not has_ancestor(i, in_drivers))
    for key in ("fields.mul.calls", "fields.inv.calls", "scalars.mul.calls",
                "scalars.add.calls", "scalars.truncated_inverse.calls",
                "indexsets.of.calls", "indexsets.members.calls",
                "rings.field.mul.calls", "rings.dual.mul.calls",
                "rings.poly.mul.calls", "lattices.spanning_set.generators",
                "lattices.echelon.columns_in", "lattices.echelon.rank"):
        out[key] = counters.get(key, 0)
    calls = out["lattices.membership.calls"]
    out["lattices.membership.rejected_ratio"] = (
        counters.get("lattices.membership.rejected", 0) / calls if calls else 0.0)
    lookups = cache["hits"] + cache["misses"]
    out["chart.annihilator_cache.misses"] = cache["misses"]
    out["chart.annihilator_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["trace.spans"] = len(spans)
    return out
