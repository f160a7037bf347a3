"""Dimension bookkeeping: commutativity classification, per-vertex grade
windows, minimal block dimensions, totals, affine stabilization, and the
closed form for orientations of line quivers."""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import INF, ExtLen, Quiver, ext_to_json, length_profile, sccs


@dataclass(frozen=True)
class PathClassification:
    """Vertices split by whether their monoid of cycles commutes."""

    noncommutative: tuple[str, ...]
    commutative: tuple[str, ...]


def classify_path(q: Quiver) -> PathClassification:
    """Noncommutative vertices are those in a non-simple cyclic component;
    the split is constant on components, so it is computed per component."""
    part = sccs(q)
    noncomm_comp = [c.has_cycle and not c.is_simple_cycle for c in part.components]
    noncomm = []
    comm = []
    for v in q.vertices:
        (noncomm if noncomm_comp[part.component_of[v]] else comm).append(v)
    return PathClassification(tuple(noncomm), tuple(comm))


def effdim_path(q: Quiver) -> int:
    """Minimal faithful matrix size for the full path semigroup:
    one dimension per vertex plus one extra per noncommutative vertex."""
    return len(classify_path(q).noncommutative) + q.n


def d_value(l_minus: ExtLen, l_plus: ExtLen, N: int) -> int:
    """Minimal block dimension at a vertex of the level-N truncation.

    Evaluates min{l- + 1, l+ + 1, N, max{l- + l+ + 2 - N, 1}} with
    saturating infinite operands; the result is always in [1, N].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return min(l_minus + 1, l_plus + 1, N, max(l_minus + l_plus + 2 - N, 1))


@dataclass(frozen=True)
class KProfile:
    """Per-vertex admissible grade windows for a truncation level N.

    ``window[x]`` is the inclusive interval [lo, hi] of grades k such that
    some path of length k ends at x and some path of length N - 1 - k
    starts at x, or None when no such grade exists.  ``graded`` lists the
    vertices with a nonempty window, ``ungraded`` the rest; ``d`` is the
    block dimension (window size, or 1 when empty).
    """

    N: int
    window: dict[str, tuple[int, int] | None]
    d: dict[str, int]
    graded: tuple[str, ...]
    ungraded: tuple[str, ...]

    def k_min(self, x: str) -> int:
        w = self.window[x]
        if w is None:
            raise ValueError(f"vertex {x!r} has an empty grade window")
        return w[0]

    def k_max(self, x: str) -> int:
        w = self.window[x]
        if w is None:
            raise ValueError(f"vertex {x!r} has an empty grade window")
        return w[1]


def k_profile(q: Quiver, N: int) -> KProfile:
    """Grade windows computed from extremal path lengths.

    The interval form [max(0, N-1-l+), min(N-1, l-)] matches the direct
    path-existence definition because every prefix/suffix of a path is a
    path, so all intermediate lengths are realized.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    prof = length_profile(q)
    window: dict[str, tuple[int, int] | None] = {}
    d: dict[str, int] = {}
    graded = []
    ungraded = []
    for x in q.vertices:
        lm, lp = prof[x]
        lo = max(0, N - 1 - lp)
        hi = min(N - 1, lm)
        if lo > hi:
            window[x] = None
            d[x] = 1
            ungraded.append(x)
        else:
            window[x] = (int(lo), int(hi))
            d[x] = int(hi - lo + 1)
            graded.append(x)
    return KProfile(N, window, d, tuple(graded), tuple(ungraded))


def effdim_truncated(q: Quiver, N: int) -> int:
    """Minimal faithful matrix size for the level-N truncated path semigroup."""
    return sum(d_value(lm, lp, N) for lm, lp in length_profile(q).values())


def effdim_table(q: Quiver, last: int) -> list[int]:
    """``effdim_truncated(q, N)`` for N = 1..last, in O(n + last) steps.

    At a vertex with a = min(l-, l+) and b = max(l-, l+), ``d_value`` is 1
    at N = 1, rises by 1 per step up to N = a + 1, stays flat up to b + 1,
    falls by 1 per step to 1 at N = l- + l+ + 1, and stays 1; one array
    sums the slope changes of every vertex.
    """
    change = [0] * (last + 1)
    for lm, lp in length_profile(q).values():
        for at, by in ((1, 1), (min(lm, lp) + 1, -1), (max(lm, lp) + 1, -1), (lm + lp + 1, 1)):
            if at < last:
                change[int(at)] += by
    table, total, slope = [], q.n, 0
    for N in range(1, last + 1):
        table.append(total)
        slope += change[N]
        total += slope
    return table


@dataclass(frozen=True)
class Stabilization:
    """Coefficients with effdim_truncated(q, N) == a*N + b for all N >= threshold."""

    a: int
    b: int
    threshold: int


def stabilization(q: Quiver) -> Stabilization:
    """Affine stabilization of the truncated dimension.

    a counts vertices with unbounded paths on both sides; b adds 1 per
    doubly-bounded vertex and min(l-, l+) + 1 per singly-bounded vertex.
    The threshold is the vertex count, past which every finite l- + l+ is
    too small to matter.
    """
    a = 0
    b = 0
    for lm, lp in length_profile(q).values():
        if lm == INF and lp == INF:
            a += 1
        elif lm < INF and lp < INF:
            b += 1
        else:
            b += int(min(lm, lp)) + 1
    return Stabilization(a, b, q.n)


def line_quiver_effdim(segments, N: int) -> int:
    """Truncated effective dimension of an orientation of a line quiver.

    ``segments`` lists the vertex counts of the maximal directed runs of
    the orientation (adjacent runs share a vertex).  Runs longer than N
    contribute N*(s + 1 - N) - 1, shorter ones s - 1, plus one for the
    shared baseline.
    """
    segments = list(segments)
    if N < 1:
        raise ValueError("N must be >= 1")
    if not segments or any(not isinstance(s, int) for s in segments):
        raise ValueError("segments must be a nonempty list of ints")
    if len(segments) == 1:
        if segments[0] < 1:
            raise ValueError("a segment needs at least one vertex")
    elif any(s < 2 for s in segments):
        raise ValueError("every segment of a multi-segment line has >= 2 vertices")
    return (
        1
        + sum(N * (s + 1 - N) - 1 for s in segments if N < s)
        + sum(s - 1 for s in segments if s <= N)
    )


def report(q: Quiver, N: int | None = None) -> dict:
    """JSON-ready per-vertex and total dimension data.

    Grade windows and block dimensions appear only when a truncation level
    is given; a window of null then means it is empty.
    """
    prof = length_profile(q)
    part = sccs(q)
    cls = classify_path(q)
    st = stabilization(q)
    commutative = set(cls.commutative)
    kp = k_profile(q, N) if N is not None else None
    vertices = {}
    for x in q.vertices:
        lm, lp = prof[x]
        entry = {
            "l_minus": ext_to_json(lm),
            "l_plus": ext_to_json(lp),
            "scc": part.component_of[x],
            "commutative": x in commutative,
        }
        if kp is not None:
            w = kp.window[x]
            entry["K"] = None if w is None else [w[0], w[1]]
            entry["d"] = kp.d[x]
        vertices[x] = entry
    totals = {"effdim_path": effdim_path(q)}
    if N is not None:
        totals["effdim_truncated"] = effdim_truncated(q, N)
    totals.update(a=st.a, b=st.b, threshold=st.threshold)
    return {"vertices": vertices, "totals": totals}
