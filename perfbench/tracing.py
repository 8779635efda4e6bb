"""Spans around calls into locsemi's public functions, for the traced run.

The tracer wraps every public function of the seven layer modules (the
module a function is defined in is its layer) and records one span per
call: name, start, end, parent span and op id.  A wrapper replaces the
function wherever locsemi binds it (the defining module, the package, and
every module that imported it by name), so calls the library makes from one
public function to another are seen as well.  Construction of a
``FinitePartialMagma`` (its validation in ``__post_init__``) is spanned as
``magma.FinitePartialMagma``.  Nothing under ``src/`` changes;
``uninstall`` restores every binding.

Two calls are not plain spans:

* ``checks.classify`` is replaced by the public checkers called one by one
  (``is_*``, ``find_identities``, ``find_zeros``) and assembled into the
  same ``ClassReport``, so its time splits per axiom.  The run compares the
  traced outputs with the untraced ones, which pins the substitution.
* ``predicates.gcd`` runs once per relation test of a predicate structure;
  a span each would cost more than the scan.  Instead the predicate
  structures built by ``coprime_magma``, ``coprime_with_zero`` and
  ``natural_multiplication`` get counting, timing wrappers on their
  ``related`` and ``product`` callables.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "magma", "checks", "enumeration", "constructions", "quiver", "predicates")
UNSPANNED = frozenset({"predicates.gcd", "cli.main"})
VERDICT_CHECKERS = ("is_locality_semigroup", "is_strong_locality_semigroup",
                    "is_refined_locality_semigroup", "is_partial_semigroup", "is_transitive")
FACTORIES = ("coprime_magma", "coprime_with_zero", "natural_multiplication")
FREE_EXT = frozenset({"quiver.free_extension", "quiver.verify_free_property"})
SETUP = -1  # op id of spans recorded while the workload sets up
CALLBACK_SAMPLE = 1009  # predicate callbacks: one call in this many is timed

# Per-layer times reported in layer_report: metric -> span names whose durations it sums.
SPAN_TIMES = {
    "enumeration.scan_s": ("enumeration.scan_flags",),
    "enumeration.decode_s": ("enumeration.decode_magma",),
    "checks.locality_s": ("checks.is_locality_semigroup",),
    "checks.strong_s": ("checks.is_strong_locality_semigroup",),
    "checks.refined_s": ("checks.is_refined_locality_semigroup",),
    "checks.partial_s": ("checks.is_partial_semigroup",),
    "checks.transitive_s": ("checks.is_transitive",),
    "checks.sided_s": ("checks.find_identities", "checks.find_zeros"),
    "magma.parse_s": ("magma.parse_magma",),
    "magma.serialize_s": ("magma.serialize_magma",),
    "constructions.adjoin_s": ("constructions.adjoin_identity", "constructions.adjoin_zero"),
    "constructions.complete_s": ("constructions.complete_to_semigroup_with_zero",),
    "constructions.strong_zero_s": ("constructions.is_strong_semigroup_with_zero",),
    "predicates.scan_s": ("predicates.sampled_classify",),
    "predicates.totient_s": ("predicates.totient_hom_check",),
}


class Tracer:
    """Installs span wrappers on an ``api`` namespace from ``loader.load``."""

    def __init__(self, api):
        self.api = api
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.ops: list[tuple[str, float, float]] = []  # op id -> (name, start, end)
        self.op = SETUP
        self.active = False
        self.counts: Counter = Counter()
        self.callback_s = 0.0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._clock_cost = statistics.median(-perf_counter() + perf_counter() for _ in range(1001))
        self._call_counters: list[tuple[str, itertools.count]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self.op = len(self.ops)

    def end_op(self, name: str, start: float, end: float) -> None:
        self.ops.append((name, start, end))
        self.op = SETUP

    # -- wrappers --------------------------------------------------------

    def _wrap(self, qual: str, fn, after=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return (yield from fn(*args, **kwargs))
                idx = tracer._open(qual)
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    tracer._close(idx)
                    tracer.counts[qual + ".items"] += items
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(qual)
            try:
                result = fn(*args, **kwargs)
            except tracer.api.NotAssociative:
                tracer.counts[qual + ".not_associative"] += 1
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                tracer.active = False
                try:
                    result = after(args, result)
                finally:
                    tracer.active = True
            return result
        return wrapper

    def _classify(self, original):
        tracer, api = self, self.api

        @functools.wraps(original)
        def classify(m):
            if not tracer.active:
                return original(m)
            idx = tracer._open("checks.classify")
            try:
                verdicts = (api.is_locality_semigroup(m), api.is_strong_locality_semigroup(m),
                            api.is_refined_locality_semigroup(m), api.is_partial_semigroup(m),
                            api.is_transitive(m))
                sided = api.find_identities(m) + api.find_zeros(m)
                report = api.ClassReport(*verdicts, *(tuple(str(x) for x in s) for s in sided))
            finally:
                tracer._close(idx)
            tracer.counts["checks.triples_bound"] += 5 * len(m.elements) ** 3
            return report
        return classify

    def _counted(self, fn, key: str):
        """Count every call of ``fn``; time one call in CALLBACK_SAMPLE and scale up.

        Timing every call would make the traced scan several times slower
        than the untraced one.  The period is prime so that it does not
        line up with the scan's loops over a slice; the clock's median cost
        is taken off each timed call.  What remains of the timing's own
        cost still inflates the estimate, by about a fifth on the sizing
        machine.
        """
        tracer = self
        calls = itertools.count(1)
        self._call_counters.append((key, calls))
        clock_cost = self._clock_cost

        def counted(*args):
            if next(calls) % CALLBACK_SAMPLE:
                return fn(*args)
            t0 = perf_counter()
            result = fn(*args)
            tracer.callback_s += (perf_counter() - t0 - clock_cost) * CALLBACK_SAMPLE
            return result
        return counted

    def _after_hooks(self) -> dict:
        api, c = self.api, self.counts

        def parse(args, result):
            c["magma.parse_bytes"] += len(args[0].encode("utf-8"))
            return result

        def materialize(args, result):
            c["quiver.paths"] += len(result[0].elements)
            return result

        def find(args, result):
            n = args[1]
            c["enumeration.find_tables_scanned"] += (
                api.search_space_size(n) if result is None else api.encode_magma(result) + 1)
            return result

        def verdict(args, result):
            c["checks.verdicts"] += 1
            c["checks.verdicts_failed"] += not result.ok
            return result

        def sampled(args, result):
            p, bound = args[0], args[1]
            flags = result.flags()
            c["checks.verdicts"] += len(flags)
            c["checks.verdicts_failed"] += flags.count(False)
            c["checks.triples_bound"] += 5 * len(p.slice_elements(bound)) ** 3
            return result

        def bounded(args, result):
            c["predicates.escapes"] += len(result.escapes)
            c["predicates.related_pairs"] += len(result.table) + len(result.escapes)
            return result

        def factory(args, result):
            return dataclasses.replace(
                result,
                related=self._counted(result.related, "predicates.related_calls"),
                product=self._counted(result.product, "predicates.product_calls"))

        hooks = {
            "magma.parse_magma": parse,
            "quiver.materialize_path_magma": materialize,
            "enumeration.find_witness": find,
            "predicates.sampled_classify": sampled,
            "predicates.bounded_magma": bounded,
        }
        hooks.update({f"checks.{n}": verdict for n in VERDICT_CHECKERS})
        hooks.update({f"predicates.{n}": factory for n in FACTORIES})
        return hooks

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        api = self.api
        hooks = self._after_hooks()
        replacement = {}
        for layer in LAYERS:
            mod = getattr(api, layer)
            for name, obj in vars(mod).items():
                qual = f"{layer}.{name}"
                if (name.startswith("_") or qual in UNSPANNED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = (self._classify(obj) if qual == "checks.classify"
                           else self._wrap(qual, obj, hooks.get(qual)))
                replacement[id(obj)] = (obj, wrapped)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "locsemi" or n.startswith("locsemi.")] + [api]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                entry = replacement.get(id(obj))
                if entry is not None and entry[0] is obj and not name.startswith("_"):
                    self._bindings.append((ns, name, obj))
                    setattr(ns, name, entry[1])
        cls = api.FinitePartialMagma
        self._bindings.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap("magma.FinitePartialMagma", cls.__post_init__)

    def uninstall(self) -> None:
        while self._bindings:
            ns, name, obj = self._bindings.pop()
            setattr(ns, name, obj)

    # -- results ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start_s, end_s, parent, op id, op name."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                op_name = "setup" if op == SETUP else self.ops[op][0]
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op, op_name]) + "\n")

    def layer_report(self, passes: int, untraced_op_s: float, traced_op_s: float,
                     normalise) -> dict:
        """Per-layer figures per traced pass; setup spans feed only quiver.materialize_s.

        The two op-time totals are speed-normalised and give the overhead.
        ``normalise(seconds, start, end)`` also scales the census and scan
        spans, whose differences and ratios compare ops run at different
        moments; other span times and shares are wall times.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent is not None:
                child[parent] += end - start
        dur = Counter()
        self_s = Counter()
        setup_dur = Counter()
        census_by_op = Counter()
        classify_self = top_level = free_ext = scan_norm = 0.0
        for i, (name, start, end, parent, op) in enumerate(spans):
            d = end - start
            if op == SETUP:
                setup_dur[name] += d
                continue
            dur[name] += d
            self_s[name.split(".", 1)[0]] += d - child[i]
            if parent is None:
                top_level += d
            if name == "checks.classify":
                classify_self += d - child[i]
            elif name == "enumeration.census":
                census_by_op[self.ops[op][0]] += normalise(d, start, end)
            elif name == "enumeration.scan_flags":
                scan_norm += normalise(d, start, end)
            if name in FREE_EXT and (parent is None or spans[parent][0] not in FREE_EXT):
                free_ext += d
        op_s = sum(end - start for _, start, end in self.ops)
        per = 1.0 / passes
        c = Counter(self.counts)
        for key, calls in self._call_counters:
            c[key] += next(calls) - 1
        scan_s = dur["enumeration.scan_flags"]
        raw, raw2, dedup = (census_by_op[k] for k in ("census-raw-j1", "census-raw-j2", "census-dedup"))
        layers = {f"{layer}.self_s": self_s[layer] * per for layer in LAYERS}
        layers["bench.self_s"] = (op_s - top_level) * per
        report = dict(layers)
        report.update({f"{layer}.self_frac": _ratio(self_s[layer], op_s) for layer in LAYERS})
        report["bench.self_frac"] = _ratio(op_s - top_level, op_s)
        report.update({metric: sum(dur[n] for n in names) * per for metric, names in SPAN_TIMES.items()})
        report.update({
            "enumeration.tables_per_s": _ratio(c["enumeration.scan_flags.items"], scan_s),
            "enumeration.tally_s": (raw - scan_norm) * per if raw and scan_norm else 0.0,
            "enumeration.dedup_extra_s": (dedup - raw) * per if raw and dedup else 0.0,
            "enumeration.parallel_speedup": _ratio(raw, raw2),
            "enumeration.find_tables_scanned": c["enumeration.find_tables_scanned"] * per,
            "checks.verdicts": c["checks.verdicts"] * per,
            "checks.verdicts_failed": c["checks.verdicts_failed"] * per,
            "checks.triples_bound": c["checks.triples_bound"] * per,
            "checks.classify_unaccounted_frac": _ratio(classify_self, dur["checks.classify"]),
            "magma.parse_bytes": c["magma.parse_bytes"] * per,
            "constructions.not_associative":
                c["constructions.complete_to_semigroup_with_zero.not_associative"] * per,
            "quiver.materialize_s": setup_dur["quiver.materialize_path_magma"]
                                    + dur["quiver.materialize_path_magma"] * per,
            "quiver.paths": c["quiver.paths"],
            "quiver.free_ext_s": free_ext * per,
            "predicates.related_calls": c["predicates.related_calls"] * per,
            "predicates.product_calls": c["predicates.product_calls"] * per,
            "predicates.callback_s": self.callback_s * per,
            "predicates.escape_frac": _ratio(c["predicates.escapes"], c["predicates.related_pairs"]),
            "trace.op_s": op_s * per,
            "trace.overhead_s": (traced_op_s - untraced_op_s) * per,
            "trace.overhead_frac": _ratio(traced_op_s - untraced_op_s, untraced_op_s),
            "trace.spans": len(spans),
            "trace.passes": passes,
        })
        return report


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
