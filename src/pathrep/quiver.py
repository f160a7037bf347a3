"""Finite quivers: text-format parsing, validation, strongly connected
structure, and extremal path lengths with a saturating infinity."""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import eq, itemgetter
from types import MappingProxyType
from typing import NamedTuple

# Extended length value: a non-negative int, or INF.  math.inf already
# saturates under addition/subtraction of finite values and compares
# totally with ints, so min/max/+ work without a sentinel wrapper.
INF = math.inf
ExtLen = int | float

_ID = "[A-Za-z0-9_]+"
_ID_RE = re.compile(_ID + r"\Z")
# One declaration on the line after a "\n"; [^\S\n] is \s within a line.
_VERTEX_RE = re.compile(rf"\nvertex[^\S\n]+({_ID})$", re.M)
_ARROW_RE = re.compile(rf"\narrow[^\S\n]+({_ID})[^\S\n]*:[^\S\n]*({_ID})[^\S\n]*->[^\S\n]*({_ID})$", re.M)


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
    vertex set must be nonempty.  A quiver keeps its declarations (the
    vertex ids with their index map, and the arrows' names, tail indices
    and head indices) and one successor table, the head of each arrow out
    of each vertex, which the analysis reads.  The arrow views are built
    the first time each is read and then kept: ``arrows`` (``Arrow``
    tuples), ``arrow_index`` (arrow id -> index) and ``out_arrows``, where
    ``out_arrows[v]`` holds the ``(arrow index, head)`` pairs of the arrows
    out of vertex v, in declaration order: the steps a path ending at v
    can take.  Instances are immutable after construction, so the analysis
    (``component_arrays``) is kept on the instance; ``sccs`` and
    ``length_profile`` are views built from it.
    """

    def __init__(self, vertices, arrows=()):
        self._index(*_checked_one_by_one(list(vertices), list(arrows)))

    def _index(self, vindex: dict[str, int], names: tuple[str, ...], tails, heads) -> None:
        """Build the quiver from valid declarations: each vertex id mapped to
        its index, and the tuples of the arrows' names, tail indices and
        head indices."""
        if not vindex:  # after the arrows, so a stray arrow names its line
            raise QuiverError("no vertices declared")
        succ: list[list[int]] = [[] for _ in vindex]
        deque(map(list.append, map(succ.__getitem__, tails), heads), 0)
        self.vertices: tuple[str, ...] = tuple(vindex)
        self.vertex_index: dict[str, int] = vindex
        self._names, self._tails, self._heads, self._succ = names, tails, heads, succ
        self._arrows = self._arrow_index = self._out_arrows = None
        self._components: tuple | None = None

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        if self._arrows is None:
            self._arrows = tuple(map(tuple.__new__, repeat(Arrow), zip(self._names, self._tails, self._heads)))
        return self._arrows

    @property
    def arrow_index(self) -> dict[str, int]:
        if self._arrow_index is None:
            self._arrow_index = dict(zip(self._names, range(len(self._names))))
        return self._arrow_index

    @property
    def out_arrows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        if self._out_arrows is None:
            out_: list[list[tuple[int, int]]] = [[] for _ in self._succ]
            deque(map(list.append, map(out_.__getitem__, self._tails), enumerate(self._heads)), 0)
            self._out_arrows = tuple(map(tuple, out_))
        return self._out_arrows

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
        return self._names

    def _declarations(self) -> tuple:
        return self.vertices, self._names, self._tails, self._heads

    def __eq__(self, other):
        return isinstance(other, Quiver) and self._declarations() == other._declarations()

    def __hash__(self):
        return hash(self._declarations())

    def __getstate__(self):  # copies and pickles recompute the analysis
        return {**self.__dict__, "_components": None}

    def __repr__(self):
        return f"Quiver({self.n} vertices, {len(self._names)} arrows)"


def _checked_one_by_one(vertices: list, arrows: list):
    """``(vertex index, arrow names, tails, heads)``, checking one declaration
    at a time in order: vertices before arrows, an arrow's id before its
    tail before its head.  Raises the QuiverError of the first bad
    declaration."""
    is_id = _ID_RE.match
    vindex: dict[str, int] = {}
    for v in vertices:
        if not isinstance(v, str) or not is_id(v):
            raise QuiverError(f"bad vertex id {v!r}", ("vertex", len(vindex)))
        if v in vindex:
            raise QuiverError(f"duplicate vertex id {v!r}", ("vertex", len(vindex)))
        vindex[v] = len(vindex)
    aindex: dict[str, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    for i, entry in enumerate(arrows):
        if not isinstance(entry, (tuple, list)) or len(entry) != 3:
            raise QuiverError(f"bad arrow declaration {entry!r}", ("arrow", i))
        name, tail, head = entry
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
        tails.append(t)
        heads.append(h)
    return vindex, tuple(aindex), tuple(tails), tuple(heads)


def _numbered_lines(text: str):
    """``(line number, line)`` of each line that is not blank once its
    comment and surrounding whitespace are cut."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].strip()
        if line:
            yield lineno, line


def parse_quiver(text: str) -> Quiver:
    """Parse the line-based quiver format.

    Lines are ``vertex <id>`` or ``arrow <id>: <tail> -> <head>``; ``#``
    starts a comment, blank lines are ignored, ids match ``[A-Za-z0-9_]+``.
    Arrows may reference vertices declared later in the file.  Every error
    names the offending line, except an empty vertex set.  The nonblank
    lines, each after a newline, are read by one pass per declaration kind:
    the matches fall short of the lines exactly when a line does not parse.
    The patterns prove every id, so names are resolved over whole lists;
    only a repeated id or an undeclared end leaves the quiver to ``Quiver``,
    whose in-order check names the first bad declaration.  Line numbers are
    counted only for an error.  The stripped lines are dropped once joined,
    and the joined text once matched: an error reads ``text`` again.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    lines = list(filter(None, map(str.strip, lines)))
    count, body = len(lines), "\n" + "\n".join(lines)
    del lines
    vertices, arrows = _VERTEX_RE.findall(body), _ARROW_RE.findall(body)
    del body
    if len(vertices) + len(arrows) < count:
        for lineno, line in _numbered_lines(text):
            if not (_VERTEX_RE.match("\n" + line) or _ARROW_RE.match("\n" + line)):
                raise QuiverError(f"line {lineno}: cannot parse {line!r}")
    names, tails, heads = zip(*arrows) if arrows else ((), (), ())
    vindex = dict(zip(vertices, range(len(vertices))))
    tails, heads = tuple(map(vindex.get, tails)), tuple(map(vindex.get, heads))
    try:
        if len(vindex) < len(vertices) or len(set(names)) < len(names) or None in tails or None in heads:
            return Quiver(vertices, arrows)  # raises the first bad declaration's error
        q = Quiver.__new__(Quiver)
        q._index(vindex, names, tails, heads)
        return q
    except QuiverError as exc:
        if exc.decl is None:
            raise
        kind, pos = exc.decl
        lineno = [n for n, line in _numbered_lines(text) if line.startswith(kind)][pos]
        raise QuiverError(f"line {lineno}: {exc}") from None


class SccComponent(NamedTuple):
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
    comp_of, members, internal, _, _ = component_arrays(q)
    names = map(tuple, map(map, repeat(q.vertices.__getitem__), members))
    components = zip(names, map(bool, internal), map(eq, internal, map(len, members)))
    return SccPartition(MappingProxyType(dict(zip(q.vertices, comp_of))),
                        tuple(map(tuple.__new__, repeat(SccComponent), components)))


def length_profile(q: Quiver) -> MappingProxyType:
    """Per vertex, the supremum of lengths of paths ending / starting there.

    The supremum is INF exactly when some cycle leads into (resp. can be
    reached from) the vertex; otherwise it is the longest such path, which
    is at most n - 1 because any longer path would contain a subcycle.  Both
    are read off the components, whose members share them: INF on a cyclic
    one.  The result is a read-only map from vertex id to (l-, l+).
    """
    comp_of, _, _, lminus, lplus = component_arrays(q)
    pairs = list(zip(lminus, lplus))
    return MappingProxyType(dict(zip(q.vertices, map(pairs.__getitem__, comp_of))))


def component_arrays(q: Quiver) -> tuple[list[int], list[list[int]], list[int], list[ExtLen], list[ExtLen]]:
    """``(comp_of, members, internal, l-, l+)``, computed once per quiver and
    not to be changed: the component of each vertex index, and per component
    (in Tarjan completion order) its sorted vertex indices, internal arrow
    count and the (l-, l+) its members share."""
    return q._components or _analyse(q)


def _analyse(q: Quiver) -> tuple:
    """``analyse_graph`` of the quiver's successor table, stored on ``q``."""
    q._components = analyse_graph(q._succ)
    return q._components


def analyse_graph(out) -> tuple:
    """``(comp_of, members, internal, l-, l+)`` of the graph with an edge
    v -> w for each node w in the successor list ``out[v]`` (a node listed
    twice is two parallel edges): Tarjan's components, and the profile read
    off them (``l-`` the most edges of a walk ending in a component, ``l+``
    starting there, INF past a cycle)."""
    n = len(out)
    index = [-1] * n  # visit order, n once the vertex's component is complete
    low = [0] * n
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
        call_stack = [(root, iter(out[root]), 0)]  # (vertex, its steps left, its place on stack)
        while call_stack:
            v, it, at = call_stack[-1]
            for w in it:
                iw = index[w]
                if iw == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    call_stack.append((w, iter(out[w]), len(stack)))
                    stack.append(w)
                    break
                if iw < low[v]:  # w is on the stack: complete components have index n
                    low[v] = iw
            else:
                call_stack.pop()
                lv = low[v]
                if call_stack:
                    u = call_stack[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == index[v]:
                    comp = sorted(stack[at:]) if len(stack) - at > 1 else stack[at:]
                    del stack[at:]
                    for w in comp:
                        comp_of[w] = len(comps)
                        index[w] = n
                    comps.append(comp)
    # Successor components come first: one pass in that order counts internal
    # arrows (a component has a cycle exactly when it holds one) and sets l+.
    internal, lplus = [], []  # per component
    for c, comp in enumerate(comps):
        inside, deepest = 0, -1
        for v in comp:
            for w in out[v]:
                d = comp_of[w]
                if d == c:
                    inside += 1
                elif lplus[d] > deepest:
                    deepest = lplus[d]
        internal.append(inside)
        lplus.append(INF if inside else deepest + 1)
    # Predecessors complete later: in reverse order, push l- along leaving arrows.
    lminus: list[ExtLen] = [INF if inside else 0 for inside in internal]
    for c in reversed(range(len(comps))):
        step = lminus[c] + 1
        for v in comps[c]:
            for w in out[v]:
                d = comp_of[w]
                if d != c and lminus[d] < step:
                    lminus[d] = step
    return comp_of, comps, internal, lminus, lplus


def ext_to_json(value: ExtLen):
    """An extended length as JSON: ints stay ints, INF becomes "inf"."""
    return "inf" if value == INF else int(value)
