"""Finite quivers: text-format parsing, validation, strongly connected
structure, and extremal path lengths with a saturating infinity."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

# Extended length value: a non-negative int, or INF.  math.inf already
# saturates under addition/subtraction of finite values and compares
# totally with ints, so min/max/+ work without a sentinel wrapper.
INF = math.inf
ExtLen = int | float

_LINE_RE = re.compile(
    r"vertex\s+([A-Za-z0-9_]+)|arrow\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)"
)
_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class QuiverError(ValueError):
    """Malformed quiver text or structurally invalid quiver data.

    ``decl`` is the rejected declaration as ``("vertex" | "arrow",
    position)``, or None when no single declaration is at fault.
    """

    def __init__(self, message: str, decl: tuple[str, int] | None = None):
        super().__init__(message)
        self.decl = decl


class Arrow(NamedTuple):
    """An arrow; tail and head are vertex indices into the owning quiver."""

    name: str
    tail: int
    head: int


class Quiver:
    """A finite directed multigraph with named vertices and arrows.

    Declaration order of vertices and arrows is canonical: it fixes the
    index order used by enumeration, variable and prime allocation, and
    every JSON output.  Parallel arrows and self-loops are permitted, the
    vertex set must be nonempty.  Instances are immutable after
    construction, so ``sccs``, ``length_profile`` and ``move_table`` compute
    once per instance and keep their read-only results on it.
    """

    def __init__(self, vertices, arrows=()):
        is_id = _ID_RE.match
        vindex: dict[str, int] = {}
        for v in vertices:
            if not isinstance(v, str) or not is_id(v):
                raise QuiverError(f"bad vertex id {v!r}", ("vertex", len(vindex)))
            if v in vindex:
                raise QuiverError(f"duplicate vertex id {v!r}", ("vertex", len(vindex)))
            vindex[v] = len(vindex)
        built: list[Arrow] = []
        aindex: dict[str, int] = {}
        out_: list[list[int]] = [[] for _ in vindex]
        in_: list[list[int]] = [[] for _ in vindex]
        for i, entry in enumerate(arrows):
            try:
                name, tail, head = entry
            except (TypeError, ValueError):
                raise QuiverError(f"bad arrow declaration {entry!r}", ("arrow", i)) from None
            if not isinstance(name, str) or not is_id(name):
                raise QuiverError(f"bad arrow id {name!r}", ("arrow", i))
            if name in aindex:
                raise QuiverError(f"duplicate arrow id {name!r}", ("arrow", i))
            t = vindex.get(tail) if isinstance(tail, str) else None
            h = vindex.get(head) if isinstance(head, str) else None
            if t is None or h is None:
                bad = tail if t is None else head
                raise QuiverError(f"arrow {name!r} uses undeclared vertex {bad!r}", ("arrow", i))
            aindex[name] = i
            built.append(Arrow(name, t, h))
            out_[t].append(i)
            in_[h].append(i)
        if not vindex:  # after the arrows, so a stray arrow names its line
            raise QuiverError("no vertices declared")
        self.vertices: tuple[str, ...] = tuple(vindex)
        self.vertex_index: dict[str, int] = vindex
        self.arrows: tuple[Arrow, ...] = tuple(built)
        self.arrow_index: dict[str, int] = aindex
        self.out_arrows: tuple[tuple[int, ...], ...] = tuple(map(tuple, out_))
        self.in_arrows: tuple[tuple[int, ...], ...] = tuple(map(tuple, in_))
        self._sccs: SccPartition | None = None
        self._profile: MappingProxyType | None = None
        self._moves: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_of(self, vid: str) -> int:
        try:
            return self.vertex_index[vid]
        except KeyError:
            raise QuiverError(f"unknown vertex {vid!r}") from None

    def arrow_of(self, name: str) -> int:
        try:
            return self.arrow_index[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def arrow_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __getstate__(self):  # copies and pickles recompute the analysis
        return {**self.__dict__, "_sccs": None, "_profile": None, "_moves": None}

    def __repr__(self):
        return f"Quiver({self.n} vertices, {len(self.arrows)} arrows)"


def parse_quiver(text: str) -> Quiver:
    """Parse the line-based quiver format.

    Lines are ``vertex <id>`` or ``arrow <id>: <tail> -> <head>``; ``#``
    starts a comment, blank lines are ignored, ids match ``[A-Za-z0-9_]+``.
    Arrows may reference vertices declared later in the file.  The
    structural checks are ``Quiver``'s; every error names the offending
    line, except an empty vertex set.
    """
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    linenos: dict[str, list[int]] = {"vertex": [], "arrow": []}
    match = _LINE_RE.fullmatch
    for lineno, line in enumerate(text.splitlines(), 1):
        line = (line[: line.index("#")] if "#" in line else line).strip()
        if not line:
            continue
        m = match(line)
        if m is None:
            raise QuiverError(f"line {lineno}: cannot parse {line!r}")
        vertex, name, tail, head = m.groups()
        if vertex:
            vertices.append(vertex)
            linenos["vertex"].append(lineno)
        else:
            arrows.append((name, tail, head))
            linenos["arrow"].append(lineno)
    try:
        return Quiver(vertices, arrows)
    except QuiverError as exc:
        if exc.decl is None:
            raise
        kind, pos = exc.decl
        raise QuiverError(f"line {linenos[kind][pos]}: {exc}") from None


@dataclass(frozen=True)
class SccComponent:
    vertices: tuple[str, ...]
    has_cycle: bool
    is_simple_cycle: bool


@dataclass(frozen=True)
class SccPartition:
    """Mutual-reachability classes with cycle flags and the condensation DAG.

    Components are listed in the order Tarjan's algorithm completes them,
    i.e. every successor component precedes its predecessors; condensation
    edges are deduplicated pairs of component indices in arrow order.
    """

    component_of: MappingProxyType  # vertex id -> component index
    components: tuple[SccComponent, ...]
    condensation: tuple[tuple[int, int], ...]


def move_table(q: Quiver) -> tuple:
    """For each vertex index, the ``(arrow index, head)`` pairs of the
    arrows out of it, in ``out_arrows`` order: the steps a path ending there
    can take."""
    if q._moves is None:
        q._moves = tuple(tuple((ai, q.arrows[ai].head) for ai in out) for out in q.out_arrows)
    return q._moves


def sccs(q: Quiver) -> SccPartition:
    """Partition the vertices into strongly connected components.

    Two vertices fall in one component when each is reachable from the
    other; a component "has a cycle" when it spans more than one vertex or
    contains a self-loop, and it is a simple cycle exactly when its internal
    arrow count equals its vertex count.
    """
    if q._sccs is None:
        q._sccs = _compute_sccs(q)
    return q._sccs


def _compute_sccs(q: Quiver) -> SccPartition:
    n = q.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        call_stack = [(root, iter(q.out_arrows[root]))]
        while call_stack:
            v, it = call_stack[-1]
            advanced = False
            for ai in it:
                w = q.arrows[ai].head
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    call_stack.append((w, iter(q.out_arrows[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                u = call_stack[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                comps.append(comp)

    k = len(comps)
    internal = [0] * k
    loop_inside = [False] * k
    cond: list[tuple[int, int]] = []
    cond_seen: set[tuple[int, int]] = set()
    for a in q.arrows:
        ct, ch = comp_of[a.tail], comp_of[a.head]
        if ct == ch:
            internal[ct] += 1
            if a.tail == a.head:
                loop_inside[ct] = True
        else:
            edge = (ct, ch)
            if edge not in cond_seen:
                cond_seen.add(edge)
                cond.append(edge)
    components = []
    for c, members in enumerate(comps):
        has_cycle = len(members) > 1 or loop_inside[c]
        simple = has_cycle and internal[c] == len(members)
        components.append(
            SccComponent(tuple(q.vertices[v] for v in members), has_cycle, simple)
        )
    component_of = {q.vertices[v]: comp_of[v] for v in range(n)}
    return SccPartition(MappingProxyType(component_of), tuple(components), tuple(cond))


def length_profile(q: Quiver) -> MappingProxyType:
    """Per vertex, the supremum of lengths of paths ending / starting there.

    The supremum is INF exactly when some cyclic component can feed into
    (resp. be reached from) the vertex; otherwise it is a longest-path value
    over the condensation, which is finite and at most n - 1 because any
    longer path would contain a subcycle.  The result is a read-only map
    from vertex id to (l-, l+).
    """
    if q._profile is None:
        q._profile = _compute_length_profile(q)
    return q._profile


def _compute_length_profile(q: Quiver) -> MappingProxyType:
    part = sccs(q)
    comp_of = [part.component_of[v] for v in q.vertices]
    cyclic = [part.components[c].has_cycle for c in comp_of]
    # Component order: an arrow out of an acyclic vertex leads to a smaller
    # index, so one sweep each way settles both sides, and 1 + INF carries
    # INF from every cyclic vertex along the arrows.
    n = q.n
    l_plus: list[ExtLen] = [0] * n
    l_minus: list[ExtLen] = [0] * n
    order = sorted(range(n), key=lambda v: comp_of[v])
    for v in order:  # successors first
        if cyclic[v]:
            l_plus[v] = INF
            continue
        best = 0
        for ai in q.out_arrows[v]:
            best = max(best, 1 + l_plus[q.arrows[ai].head])
        l_plus[v] = best
    for v in reversed(order):  # predecessors first
        if cyclic[v]:
            l_minus[v] = INF
            continue
        best = 0
        for ai in q.in_arrows[v]:
            best = max(best, 1 + l_minus[q.arrows[ai].tail])
        l_minus[v] = best
    return MappingProxyType({q.vertices[v]: (l_minus[v], l_plus[v]) for v in range(n)})


def ext_to_json(value: ExtLen):
    """An extended length as JSON: ints stay ints, INF becomes "inf"."""
    return "inf" if value == INF else int(value)
