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
    vertex set must be nonempty.  ``out_arrows[v]`` holds the ``(arrow
    index, head)`` pairs of the arrows out of vertex v, in declaration
    order: the steps a path ending at v can take.  Instances are immutable
    after construction, so ``sccs`` and ``length_profile`` compute once per
    instance and keep their read-only results on it.
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
        out_: list[list[tuple[int, int]]] = [[] for _ in vindex]
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
            out_[t].append((i, h))
        if not vindex:  # after the arrows, so a stray arrow names its line
            raise QuiverError("no vertices declared")
        self.vertices: tuple[str, ...] = tuple(vindex)
        self.vertex_index: dict[str, int] = vindex
        self.arrows: tuple[Arrow, ...] = tuple(built)
        self.arrow_index: dict[str, int] = aindex
        self.out_arrows: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, out_))
        self._sccs: SccPartition | None = None
        self._profile: MappingProxyType | None = None

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
        return {**self.__dict__, "_sccs": None, "_profile": None}

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
    """Mutual-reachability classes with their cycle flags.

    Components are listed in the order Tarjan's algorithm completes them,
    i.e. every successor component precedes its predecessors.
    """

    component_of: MappingProxyType  # vertex id -> component index
    components: tuple[SccComponent, ...]


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
            for _, w in it:
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

    # A component has a cycle exactly when it holds an arrow: a self-loop,
    # or at least one arrow per vertex when it spans several.
    internal = [0] * len(comps)
    for a in q.arrows:
        if comp_of[a.tail] == comp_of[a.head]:
            internal[comp_of[a.tail]] += 1
    components = [
        SccComponent(tuple(q.vertices[v] for v in members), internal[c] > 0, internal[c] == len(members))
        for c, members in enumerate(comps)
    ]
    component_of = {q.vertices[v]: comp_of[v] for v in range(n)}
    return SccPartition(MappingProxyType(component_of), tuple(components))


def length_profile(q: Quiver) -> MappingProxyType:
    """Per vertex, the supremum of lengths of paths ending / starting there.

    The supremum is INF exactly when some cycle leads into (resp. can be
    reached from) the vertex; otherwise it is the longest such path, which
    is at most n - 1 because any longer path would contain a subcycle.  Both
    sides are ``longest_walks``: on the arrows, and on the arrows reversed.
    The result is a read-only map from vertex id to (l-, l+).
    """
    if q._profile is None:
        q._profile = _compute_length_profile(q)
    return q._profile


def _compute_length_profile(q: Quiver) -> MappingProxyType:
    succ: list[list[int]] = [[] for _ in q.vertices]
    pred: list[list[int]] = [[] for _ in q.vertices]
    for _, t, h in q.arrows:
        succ[t].append(h)
        pred[h].append(t)
    return MappingProxyType(dict(zip(q.vertices, zip(longest_walks(succ), longest_walks(pred)))))


def longest_walks(succ) -> list[ExtLen]:
    """For each node of the graph with an edge i -> j for every j in
    ``succ[i]``, the most edges of a walk ending there, or INF when a cycle
    leads to it (a cycle has walks of every length).  Kahn's order settles
    the nodes level by level, so the last predecessor of a node to settle
    is a deepest one; the nodes it leaves with in-degree are exactly those
    a cycle leads to."""
    indegree = [0] * len(succ)
    for nexts in succ:
        for j in nexts:
            indegree[j] += 1
    depth: list[ExtLen] = [0] * len(succ)
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:  # grows as it is read
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                depth[j] = depth[i] + 1
                order.append(j)
    return [INF if left else d for d, left in zip(depth, indegree)]


def ext_to_json(value: ExtLen):
    """An extended length as JSON: ints stay ints, INF becomes "inf"."""
    return "inf" if value == INF else int(value)
