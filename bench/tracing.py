"""Outside-in tracer: spans around calls into ringlab's layers.

The tracer replaces a fixed set of ringlab functions and methods with
wrappers, at every place the name is bound: the defining module and every
module that took it with ``from ... import``. Each call records a span
(name, parent span, start, end, one integer "subject") in per-thread
buffers, so a sweep with ``jobs`` above 1 keeps each thread's spans apart. Nothing is
written until the workload is over; then the spans are turned into the
per-layer metrics of ``LAYER_METRICS`` and dumped raw for inspection.

Span times are the calling thread's CPU time (``time.thread_time_ns``), so a
pool thread waiting for the interpreter lock is not charged for the wait.
A span's self time is its duration minus the durations of its child spans.
Functions that are not traced count toward the traced caller's self time.
"""

from __future__ import annotations

import importlib
import pickle
import sys
import threading
import time
from array import array
from typing import Callable, Optional

KERNELS = (
    ("ideals", "prime_check"),
    ("ideals", "maximal_check"),
    ("ideals", "primary_check"),
    ("predicates", "delta_primary_check"),
    ("predicates", "delta_semiprimary_check"),
    ("predicates", "one_absorbing_delta_primary_check"),
    ("predicates", "one_absorbing_prime_check"),
    ("predicates", "one_absorbing_primary_check"),
    ("predicates", "two_absorbing_check"),
    ("predicates", "two_absorbing_delta_primary_check"),
    ("predicates", "idealwise_one_absorbing_check"),
)

# The four kernels with the most self time on the check workloads; they get
# a cost per call for each ring-order bucket.
COSTLIEST = (
    "one_absorbing_delta_primary_check",
    "delta_primary_check",
    "two_absorbing_delta_primary_check",
    "one_absorbing_prime_check",
)

# Ring order buckets for the per-call cost: up to 16, and 17 to 64 (the
# default catalog's largest rings have order 64).
ORDER_BUCKETS = (("o16", 16), ("o64", None))

ARITH = ("radical", "colon", "ideal_colon", "ideal_product", "ideal_intersection",
         "is_prime_element")
INDUCED = ("induced_product", "induced_quotient", "induced_localization",
           "induced_trivial_extension")
SIDE_CONDITIONS = ("satisfies_star", "preserves_jacobson", "scaling_check",
                   "commutes_with_scaling", "is_intersection_preserving", "is_idempotent_at",
                   "is_prime_expansion", "delta_gamma_hom_check", "is_delta_gamma_hom",
                   "localization_compatibility")
CONSTRUCTIONS = (("product", "make_product"), ("quotient", "make_quotient"),
                 ("trivial_extension", "make_trivial_extension"), ("localization", "localize"))
FAMILIES = ("bases", "products", "quotients", "trivial_extensions", "localizations")

# (module, attribute) pairs that get a span. "Class.method" names patch the class.
TRACED = (
    ("rings", "FiniteRing._validate"),
    ("rings", "RingHom._validate"),
    *(("constructions", fn) for _, fn in CONSTRUCTIONS),
    ("ideals", "all_ideals"),
    ("ideals", "span"),
    *(("ideals", fn) for fn in ARITH),
    ("expansions", "ExpansionFunction.__init__"),
    *(("expansions", fn) for fn in INDUCED),
    *(("expansions", fn) for fn in SIDE_CONDITIONS),
    *KERNELS,
    ("predicates", "classify"),
    ("catalog", "build_catalog"),
    ("catalog", "base_rings"),
    ("verifier", "verify"),
    ("specparse", "parse_ring"),
    ("specparse", "parse_expansion"),
    ("cli", "_run_classify"),
    ("cli", "_run_check"),
    ("cli", "_emit"),
)

THEOREM_IDS = (
    "T-DEF-EQ", "T-CHAIN", "T-MONO", "T-2ABS", "T-SEMI", "T-LOCAL", "T-XM", "T-COLON",
    "T-M2", "T-CHAINED", "T-ARITH", "T-PMAX", "T-SQRT", "T-IDEM", "T-INTER", "T-PRINC",
    "T-CHAR", "T-CHAR-COR", "T-SPEC", "T-HOM", "T-QUOT", "T-LOC", "T-PROD", "T-PROD-EX",
    "T-TRIV", "T-TRIV-COR",
)


def _kernel_metric(fn: str) -> str:
    return "predicates." + fn[: -len("_check")]


# Every per-layer metric: name -> (unit, better, the end-to-end metric and
# workload the layer should move).
SETUP = "setup_s on check-default; latency_p50_ms on classify-sample"
CONSTRUCT = "setup_s and instances_per_s on check-default"
LATTICE = "setup_s on check-default; requests_per_s on classify-sample"
SWEEP = "instances_per_s on check-default"
KERNEL = "instances_per_s on check-default; latency_p95_ms on classify-sample"
REQUEST = "latency_p50_ms on classify-sample"
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "rings.validate_s": ("s", "lower", SETUP),
    "rings.validate_calls": ("count", "lower", SETUP),
    **{f"constructions.{c}{suffix}": (unit, "lower", CONSTRUCT)
       for c, _ in CONSTRUCTIONS for suffix, unit in (("_s", "s"), ("_calls", "count"))},
    "ideals.lattice_s": ("s", "lower", LATTICE),
    "ideals.lattice_calls": ("count", "lower", LATTICE),
    "ideals.span_s": ("s", "lower", LATTICE),
    "ideals.span_calls": ("count", "lower", LATTICE),
    "ideals.lattice_size_total": ("count", "lower", LATTICE),
    "ideals.arith_s": ("s", "lower", SWEEP),
    "expansions.validate_s": ("s", "lower", CONSTRUCT),
    "expansions.induced_s": ("s", "lower", CONSTRUCT),
    "expansions.side_conditions_s": ("s", "lower", SWEEP),
    "expansions.built": ("count", "lower", "setup_s on check-default"),
    "expansions.kept": ("count", "higher", "setup_s on check-default"),
    "expansions.dedup_ratio": ("ratio", "higher", "setup_s on check-default"),
    **{_kernel_metric(fn) + suffix: (unit, "lower", KERNEL)
       for _, fn in KERNELS for suffix, unit in ((".calls", "count"), (".self_s", "s"))},
    **{f"{_kernel_metric(fn)}.ns_per_call.{bucket}": ("ns", "lower", KERNEL)
       for fn in COSTLIEST for bucket, _ in ORDER_BUCKETS},
    "predicates.memo_entries": ("count", "lower", SWEEP),
    "predicates.memo_hit_ratio": ("ratio", "higher",
                                  SWEEP + "; stays near 0 on classify-sample"),
    **{f"catalog.{family}_s": ("s", "lower", "setup_s on check-default") for family in FAMILIES},
    "catalog.rings": ("count", "higher", "setup_s on check-default"),
    "catalog.expansions": ("count", "higher", "setup_s on check-default"),
    **{f"verifier.{tid}_s": ("s", "lower", SWEEP) for tid in THEOREM_IDS},
    "verifier.warm_sweep_s": ("s", "lower", SWEEP),
    "specparse.ring_s": ("s", "lower", REQUEST),
    "specparse.expansion_s": ("s", "lower", REQUEST),
    "cli.render_s": ("s", "lower", REQUEST),
    "trace.overhead_s": ("s", "lower", "none; the cost of tracing itself"),
}


def order_bucket(order: int) -> str:
    for name, limit in ORDER_BUCKETS:
        if limit is None or order <= limit:
            return name
    raise AssertionError("unreachable: the last bucket has no limit")


class _Buffer:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    __slots__ = ("stack", "names", "parents", "starts", "ends", "subjects", "families",
                 "build", "memo")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.subjects = array("i")
        self.families: dict[int, int] = {}  # direct children of build_catalog only
        self.build = -1  # index of the open build_catalog span, -1 when none
        self.memo = [0, 0]  # predicate memo lookups, and the misses among them


class Tracer:
    """Installs span wrappers into loaded ringlab modules and removes them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._family_of: Optional[Callable[[tuple, object], int]] = None

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self.buffers.append(buf)
        return buf

    def _current(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        return buf if buf is not None else self._buffer()

    def _span(self, fn: Callable, name: str, subject: Optional[Callable], is_build: bool):
        nid = len(self.names)
        self.names.append(name)
        current = self._current
        clock = time.thread_time_ns
        family_of = self._family_of

        def traced(*args, **kwargs):
            b = current()
            stack = b.stack
            idx = len(b.names)
            parent = stack[-1] if stack else -1
            b.names.append(nid)
            b.parents.append(parent)
            b.subjects.append(0)
            b.ends.append(0)
            stack.append(idx)
            if is_build:
                outer_build = b.build
                b.build = idx
            b.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                b.ends[idx] = clock()
                stack.pop()
                if is_build:
                    b.build = outer_build
            if subject is not None:
                b.subjects[idx] = subject(args, result)
            if parent >= 0 and parent == b.build:
                b.families[idx] = family_of(args, result)
            return result

        return traced

    def _memo_counter(self, fn: Callable):
        current = self._current

        def counted_memo(I, delta, name, compute):
            memo = current().memo
            memo[0] += 1

            def miss():
                memo[1] += 1
                return compute()

            return fn(I, delta, name, miss)

        return counted_memo

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function wherever a ringlab module binds it."""
        from ringlab import constructions
        from ringlab.rings import FiniteRing

        family_codes = {
            None: 0,
            constructions.ProductOf: 1,
            constructions.QuotientOf: 2,
            constructions.TrivialExtensionOf: 3,
            constructions.LocalizationOf: 4,
        }

        def family_of(args: tuple, result: object) -> int:
            for obj in (result, *args):
                ring = obj if isinstance(obj, FiniteRing) else getattr(obj, "ring", None)
                if isinstance(ring, FiniteRing):
                    return family_codes.get(type(ring.construction), 0)
            return 0

        self._family_of = family_of
        for modname, _ in TRACED:
            importlib.import_module("ringlab." + modname)
        mods = [m for key, m in sorted(sys.modules.items())
                if key == "ringlab" or key.startswith("ringlab.")]
        kernel_names = {fn for _, fn in KERNELS}
        for modname, attr in TRACED:
            module = sys.modules["ringlab." + modname]
            short = attr.rsplit(".", 1)[-1]
            subject = None
            if short in kernel_names:
                subject = _ring_order
            elif attr == "all_ideals":
                subject = _result_length
            elif attr == "verify":
                subject = _theorem_index
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[meth]
                self._replace(cls, meth, self._span(orig, f"{modname}.{attr}", subject, False))
                continue
            orig = getattr(module, attr)
            wrapper = self._span(orig, f"{modname}.{attr}", subject, attr == "build_catalog")
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, key, wrapper)
        predicates = sys.modules["ringlab.predicates"]
        self._replace(predicates, "_memo", self._memo_counter(predicates._memo))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        """Write the raw spans: the span names, and per thread the span arrays.

        A span's subject is the ring order for a kernel, the lattice size for
        ``all_ideals``, the statement's index in ``THEOREM_IDS`` for
        ``verify``, and 0 otherwise. ``families`` maps each direct child of
        ``build_catalog`` to its index in ``FAMILIES``.
        """
        threads = [
            {"names": b.names, "parents": b.parents, "starts": b.starts, "ends": b.ends,
             "subjects": b.subjects, "families": b.families}
            for b in self.buffers
        ]
        with open(path, "wb") as fh:
            pickle.dump({"names": self.names, "clock": "thread_time_ns", "threads": threads}, fh)


def _ring_order(args: tuple, result: object) -> int:
    return args[0].ring.order


def _result_length(args: tuple, result: object) -> int:
    return len(result)


def _theorem_index(args: tuple, result: object) -> int:
    return THEOREM_IDS.index(args[0])


def self_times(parents, starts, ends) -> tuple[list[int], list[int]]:
    """Duration and self time of each span of one thread.

    Children always follow their parent, so one pass that charges each
    span's duration to its parent suffices.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    child = [0] * len(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += durations[i]
    return durations, [d - c for d, c in zip(durations, child)]


def layer_metrics(names: list[str], buffers, catalog=None) -> dict[str, float]:
    """The per-layer metrics that come from spans: all but verifier.* and trace.*."""
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    kernel_ids = {names.index(f"{m}.{fn}"): fn for m, fn in KERNELS}
    bucket_calls: dict[tuple[str, str], int] = {}
    bucket_ns: dict[tuple[str, str], int] = {}
    family_ns = [0] * len(FAMILIES)
    lattice_id = names.index("ideals.all_ideals")
    build_id = names.index("catalog.build_catalog")
    expansion_id = names.index("expansions.ExpansionFunction.__init__")
    lattice_size = 0
    built = 0
    memo_calls = memo_misses = 0
    for b in buffers:
        durations, selfs = self_times(b.parents, b.starts, b.ends)
        in_build = [False] * len(durations)
        for i, nid in enumerate(b.names):
            calls[nid] += 1
            self_ns[nid] += selfs[i]
            p = b.parents[i]
            in_build[i] = p >= 0 and (b.names[p] == build_id or in_build[p])
            if nid in kernel_ids:
                key = (kernel_ids[nid], order_bucket(b.subjects[i]))
                bucket_calls[key] = bucket_calls.get(key, 0) + 1
                bucket_ns[key] = bucket_ns.get(key, 0) + selfs[i]
            elif nid == lattice_id:
                lattice_size += b.subjects[i]
            elif nid == expansion_id and in_build[i]:
                built += 1
        for i, family in b.families.items():
            family_ns[family] += durations[i]
        memo_calls += b.memo[0]
        memo_misses += b.memo[1]

    def group(*span_names: str) -> tuple[int, float]:
        ids = [names.index(n) for n in span_names]
        return sum(calls[i] for i in ids), sum(self_ns[i] for i in ids) / 1e9

    out: dict[str, float] = {}
    out["rings.validate_calls"], out["rings.validate_s"] = group(
        "rings.FiniteRing._validate", "rings.RingHom._validate")
    for c, fn in CONSTRUCTIONS:
        out[f"constructions.{c}_calls"], out[f"constructions.{c}_s"] = group(f"constructions.{fn}")
    out["ideals.lattice_calls"], out["ideals.lattice_s"] = group("ideals.all_ideals")
    out["ideals.span_calls"], out["ideals.span_s"] = group("ideals.span")
    out["ideals.lattice_size_total"] = lattice_size
    out["ideals.arith_s"] = group(*(f"ideals.{fn}" for fn in ARITH))[1]
    out["expansions.validate_s"] = group("expansions.ExpansionFunction.__init__")[1]
    out["expansions.induced_s"] = group(*(f"expansions.{fn}" for fn in INDUCED))[1]
    out["expansions.side_conditions_s"] = group(*(f"expansions.{fn}" for fn in SIDE_CONDITIONS))[1]
    kept = sum(len(e.expansions) for e in catalog) if catalog is not None else 0
    out["expansions.built"] = built
    out["expansions.kept"] = kept
    out["expansions.dedup_ratio"] = kept / built if built else 0.0
    for m, fn in KERNELS:
        out[_kernel_metric(fn) + ".calls"], out[_kernel_metric(fn) + ".self_s"] = group(f"{m}.{fn}")
    for fn in COSTLIEST:
        for bucket, _ in ORDER_BUCKETS:
            n = bucket_calls.get((fn, bucket), 0)
            out[f"{_kernel_metric(fn)}.ns_per_call.{bucket}"] = (
                bucket_ns[(fn, bucket)] / n if n else 0.0)
    out["predicates.memo_entries"] = memo_misses
    out["predicates.memo_hit_ratio"] = 1 - memo_misses / memo_calls if memo_calls else 0.0
    for family, ns in zip(FAMILIES, family_ns):
        out[f"catalog.{family}_s"] = ns / 1e9
    out["catalog.rings"] = len(catalog) if catalog is not None else 0
    out["catalog.expansions"] = kept
    out["specparse.ring_s"] = group("specparse.parse_ring")[1]
    out["specparse.expansion_s"] = group("specparse.parse_expansion")[1]
    out["cli.render_s"] = group("cli._run_classify", "cli._run_check", "cli._emit")[1]
    return out
