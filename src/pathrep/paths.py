"""Paths of a quiver as semigroup elements: composition with a zero,
the level-by-level walk, bounded enumeration, first-return cycles, and free
factorization."""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import Quiver, sccs


@dataclass(frozen=True)
class Path:
    """A trivial path at a vertex, a composable arrow run, or the zero path.

    ``arrows`` holds arrow indices in traversal order (the first arrow
    walked comes first); tail and head are vertex indices.  The zero path
    is the unique instance with ``tail is None`` and has no endpoints and
    no length.
    """

    tail: int | None
    head: int | None
    arrows: tuple[int, ...] = ()

    @property
    def is_zero(self) -> bool:
        return self.tail is None

    @property
    def is_trivial(self) -> bool:
        return self.tail is not None and not self.arrows

    @property
    def length(self) -> int:
        if self.is_zero:
            raise ValueError("the zero path has no length")
        return len(self.arrows)


ZERO = Path(None, None)


def trivial(q: Quiver, vertex: str) -> Path:
    x = q.vertex_of(vertex)
    return Path(x, x)


def arrow_path(q: Quiver, name: str) -> Path:
    i = q.arrow_of(name)
    a = q.arrows[i]
    return Path(a.tail, a.head, (i,))


def make_path(q: Quiver, names) -> Path:
    """Build a path from arrow names listed in traversal order."""
    names = list(names)
    if not names:
        raise ValueError("make_path needs at least one arrow; use trivial() otherwise")
    idxs = [q.arrow_of(n) for n in names]
    for prev, nxt in zip(idxs, idxs[1:]):
        if q.arrows[prev].head != q.arrows[nxt].tail:
            raise ValueError(f"arrows {q.arrows[prev].name!r} and {q.arrows[nxt].name!r} do not compose")
    return Path(q.arrows[idxs[0]].tail, q.arrows[idxs[-1]].head, tuple(idxs))


def path_str(q: Quiver, p: Path) -> str:
    """Serialize: ``z``, ``e(<vertex>)``, or ``<arrowK>*...*<arrow1>``."""
    if p.is_zero:
        return "z"
    if p.is_trivial:
        return f"e({q.vertices[p.tail]})"
    return "*".join(q.arrows[i].name for i in reversed(p.arrows))


def compose(p: Path, q: Path) -> Path:
    """The product pq: first q, then p; zero when the endpoints mismatch.

    Trivial paths act as one-sided identities and the zero path absorbs.
    """
    if p.tail is None or q.tail is None:
        return ZERO
    if q.head != p.tail:
        return ZERO
    return Path(q.tail, p.head, q.arrows + p.arrows)


def walk(q: Quiver, max_len: int, start, step):
    """Yield ``(length, level)`` for lengths 0..max_len; a level yields
    ``(tail, head, arrows, value)`` tuples.

    Level 0 holds the trivial paths in vertex declaration order, valued
    ``start(vertex_index)``.  Each later level extends every path of the one
    before, in its order, by each arrow out of its head, in ``out_arrows``
    order, and values the extension ``step(arrow_index, prefix_value)``; so
    every path costs one step, taken as the level is read.  Read each level
    to its end before the next, or stop.  The walk stops at the first empty
    level."""
    moves = [[(ai, q.arrows[ai].head) for ai in q.out_arrows[v]] for v in range(q.n)]

    def extend(prev, append):
        for tail, head, arrows, value in prev:
            for ai, h in moves[head]:
                path = (tail, h, arrows + (ai,), step(ai, value))
                append(path)
                yield path

    level = [(v, v, (), start(v)) for v in range(q.n)]
    yield 0, level
    for length in range(1, max_len + 1):
        if not any(moves[head] for _, head, _, _ in level):
            return
        prev, level = level, []
        yield length, extend(prev, level.append)


def head_counts(q: Quiver):
    """Yield, for lengths 0, 1, 2, ..., the number of paths of that length
    ending at each vertex, as a tuple, and stop at the first length with
    none.  A path of length k + 1 ending at a vertex is a path of length k
    ending at the tail of an arrow into it, so each length costs O(E)
    integer sums and no path is built."""
    ending = (1,) * q.n
    while any(ending):
        yield ending
        counts = [0] * q.n
        for a in q.arrows:
            counts[a.head] += ending[a.tail]
        ending = tuple(counts)


def enumerate_paths(q: Quiver, max_len: int) -> list[Path]:
    """All nonzero paths of length at most ``max_len``, each exactly once.

    Output order is (length, lexicographic by arrow index); trivial paths
    come first, in vertex declaration order.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out = []
    for _, level in walk(q, max_len, lambda v: None, lambda ai, value: None):
        # extensions come out grouped by source vertex, which is not lex
        # order at length one; a sort of the nearly-sorted level is cheap
        out.extend(Path(t, h, arrows) for t, h, arrows, _ in sorted(level, key=lambda p: p[2]))
    return out


@dataclass(frozen=True)
class CycleBasis:
    """First-return cycles at a vertex, possibly truncated at a length bound.

    ``complete`` is True exactly when the listed cycles are all the
    irreducible generators of the cycle monoid at the vertex.
    """

    vertex: str
    cycles: tuple[Path, ...]
    complete: bool


def first_return_cycles(q: Quiver, vertex: str, max_len: int) -> CycleBasis:
    """Cycles at ``vertex`` of length <= max_len with no intermediate visit.

    These are exactly the irreducible generators of the cycle monoid at the
    vertex, where every cycle factors uniquely.  The walk keeps to the
    vertex's strongly connected component, which no such cycle leaves.
    Every vertex there leads back without an intermediate visit, so the
    list is complete exactly when the walk dies out within max_len steps:
    a walk still open then extends to a longer first-return cycle.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    x = q.vertex_of(vertex)
    part = sccs(q)
    inside = {q.vertex_index[v] for v in part.components[part.component_of[vertex]].vertices}
    found: list[Path] = []
    frontier: list[tuple[int, tuple[int, ...]]] = [(x, ())]
    for _ in range(max_len):
        nxt = []
        for head, seq in frontier:
            for ai in q.out_arrows[head]:
                h2 = q.arrows[ai].head
                if h2 == x:
                    found.append(Path(x, x, seq + (ai,)))
                elif h2 in inside:
                    nxt.append((h2, seq + (ai,)))
        frontier = nxt
        if not frontier:
            break
    return CycleBasis(vertex, tuple(found), not frontier)


def factorize_cycle(q: Quiver, p: Path) -> list[Path]:
    """Split a cycle at each intermediate visit to its base vertex.

    Returns the unique sequence of first-return cycles (in traversal order)
    whose concatenation is ``p``; the trivial path factors as the empty
    sequence.
    """
    if p.is_zero or p.tail != p.head:
        raise ValueError("factorize_cycle needs a nonzero cycle at a single vertex")
    x = p.tail
    factors: list[Path] = []
    begin = 0
    for i, ai in enumerate(p.arrows):
        if q.arrows[ai].head == x:
            factors.append(Path(x, x, p.arrows[begin : i + 1]))
            begin = i + 1
    return factors

