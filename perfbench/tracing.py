"""Per-layer tracing for the traced run, from outside the program.

The tracer replaces public functions of ``pathrep`` modules and classes
with wrappers that record one span per call (name, start, end, parent) in
flat arrays, and restores the originals afterwards.  Untraced runs never
build a tracer.  ``MultiPoly.__mul__`` runs millions of times a round, so
it is counted instead of spanned; its time lies inside the
``PolyMatrix.__matmul__`` spans.  The interpreter's cyclic garbage
collector is timed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import gzip
import time
from array import array
from collections import Counter

# (module, attribute path, span name).  A name bound in several modules is
# wrapped in each, because the program calls it through those bindings.
SPANNED = (
    ("cli", "parse_quiver", "quiver.parse_quiver"),
    ("quiver", "sccs", "quiver.sccs"),
    ("dimension", "sccs", "quiver.sccs"),
    ("paths", "sccs", "quiver.sccs"),
    ("dimension", "length_profile", "quiver.length_profile"),
    ("oracle", "length_profile", "quiver.length_profile"),
    ("cli", "report", "dimension.report"),
    ("cli", "effdim_path", "dimension.effdim_path"),
    ("cli", "effdim_truncated", "dimension.effdim_truncated"),
    ("cli", "stabilization", "dimension.stabilization"),
    ("cli", "line_quiver_effdim", "dimension.line_quiver_effdim"),
    ("repbuild", "classify_path", "dimension.classify_path"),
    ("repbuild", "k_profile", "dimension.k_profile"),
    ("cli", "build_path_rep", "repbuild.build_path_rep"),
    ("cli", "build_truncated_rep", "repbuild.build_truncated_rep"),
    ("repbuild", "allocate_primes", "repbuild.allocate_primes"),
    ("repbuild", "SymbolicRep.to_json", "repbuild.to_json"),
    ("repbuild", "GradedRep.to_json", "repbuild.to_json"),
    ("repbuild", "SymbolicRep.from_json", "repbuild.from_json"),
    ("repbuild", "GradedRep.from_json", "repbuild.from_json"),
    ("polyring", "PolyMatrix.__matmul__", "polyring.matmul"),
    ("polyring", "PolyMatrix.key", "polyring.key"),
    ("cli", "verify_path_rep", "oracle.verify_path_rep"),
    ("cli", "verify_truncated", "oracle.verify_truncated"),
)
COUNTED = (("polyring", "MultiPoly.__mul__", "polyring.poly_mul"),)

# Work counts read off return values: span name -> (counter, function).
RESULT_COUNTS = {
    "repbuild.allocate_primes": ("primes_allocated", len),
    "oracle.verify_path_rep": ("elements_checked", lambda r: r.checked),
    "oracle.verify_truncated": ("elements_checked", lambda r: r.checked),
}


class Tracer:
    """Spans and counts recorded in memory until :meth:`write`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.gc_ns = 0
        self.gc_collections = 0
        self.gc_collected = 0
        self._gc_t0 = 0
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's own call sites."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name):
        nid = self._id(name)
        result_count = RESULT_COUNTS.get(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if result_count is not None:
                counts[result_count[0]] += result_count[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self, modules: dict):
        """Wrap every listed binding that exists in ``modules`` (name -> module)."""
        for table, make in ((SPANNED, self._wrap), (COUNTED, self._counted)):
            for module, path, name in table:
                owner = modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(make(original.__func__, name))
                else:
                    replacement = make(original, name)
                setattr(owner, attr, replacement)
                self._undo.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _on_gc(self, phase, info):
        if len(self._stack) == 1:
            return  # outside every span: the benchmark's own collection between instances
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_t0
            self.gc_collections += 1
            self.gc_collected += info["collected"]

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total self time in ns, and the number of calls."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            self_ns[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_ns, calls

    def write(self, path: str):
        """All spans as gzip'd tab-separated lines: name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as ``{name: (value, unit)}``.

    Every ``_s`` value is self time: the span's duration minus the time its
    wrapped children cover.  ``dimension.*`` sums every dimension function.
    """
    self_ns, calls = tracer.self_times()
    counts = tracer.counts

    def sec(name):
        return self_ns[name] / 1e9

    dim = [n for n in self_ns if n.startswith("dimension.")]
    elements = counts["elements_checked"]
    return {
        "cli.self_s": (sec("cli.main"), "s"),
        "cli.commands": (calls["cli.main"], "count"),
        "quiver.parse_quiver_s": (sec("quiver.parse_quiver"), "s"),
        "quiver.parse_quiver_calls": (calls["quiver.parse_quiver"], "count"),
        "quiver.sccs_s": (sec("quiver.sccs"), "s"),
        "quiver.sccs_calls": (calls["quiver.sccs"], "count"),
        "quiver.length_profile_s": (sec("quiver.length_profile"), "s"),
        "quiver.length_profile_calls": (calls["quiver.length_profile"], "count"),
        "dimension.self_s": (sum(self_ns[n] for n in dim) / 1e9, "s"),
        "dimension.calls": (sum(calls[n] for n in dim), "count"),
        "repbuild.build_path_rep_s": (sec("repbuild.build_path_rep"), "s"),
        "repbuild.build_truncated_rep_s": (sec("repbuild.build_truncated_rep"), "s"),
        "repbuild.allocate_primes_s": (sec("repbuild.allocate_primes"), "s"),
        "repbuild.primes_allocated": (counts["primes_allocated"], "count"),
        "repbuild.to_json_s": (sec("repbuild.to_json"), "s"),
        "repbuild.from_json_s": (sec("repbuild.from_json"), "s"),
        "polyring.matmul_calls": (calls["polyring.matmul"], "count"),
        "polyring.matmul_s": (sec("polyring.matmul"), "s"),
        "polyring.poly_mul_calls": (counts["polyring.poly_mul"], "count"),
        "polyring.key_s": (sec("polyring.key"), "s"),
        "oracle.verify_path_rep_s": (sec("oracle.verify_path_rep"), "s"),
        "oracle.verify_truncated_s": (sec("oracle.verify_truncated"), "s"),
        "oracle.elements_checked": (elements, "count"),
        "oracle.products_per_element": (
            calls["polyring.matmul"] / elements if elements else 0.0, "ratio"),
        "python.gc_s": (tracer.gc_ns / 1e9, "s"),
        "python.gc_collections": (tracer.gc_collections, "count"),
        "python.gc_collected": (tracer.gc_collected, "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
