"""Dimension bookkeeping: commutativity classification, per-vertex grade
windows, minimal block dimensions, totals, affine stabilization, and the
closed form for orientations of line quivers."""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import INF, ExtLen, Quiver, component_arrays, ext_to_json


@dataclass(frozen=True)
class PathClassification:
    """Vertices split by whether their monoid of cycles commutes."""

    noncommutative: tuple[str, ...]
    commutative: tuple[str, ...]


def classify_path(q: Quiver) -> PathClassification:
    """Noncommutative vertices are those in a non-simple cyclic component."""
    comp_of, rows, _ = analysis(q)
    commutative = [rows[c][2] for c in comp_of]
    return PathClassification(tuple(x for x, comm in zip(q.vertices, commutative) if not comm),
                              tuple(x for x, comm in zip(q.vertices, commutative) if comm))


def effdim_path(q: Quiver) -> int:
    """Minimal faithful matrix size for the full path semigroup:
    one dimension per vertex plus one extra per noncommutative vertex."""
    return analysis(q)[2]["effdim_path"]


def d_value(l_minus: ExtLen, l_plus: ExtLen, N: int) -> int:
    """Minimal block dimension at a vertex of the level-N truncation.

    Evaluates min{l- + 1, l+ + 1, N, max{l- + l+ + 2 - N, 1}} with
    saturating infinite operands; the result is always in [1, N].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    both = l_minus + l_plus + 2  # INF - N would make N a float, which fails above 1.8e308
    return min(l_minus + 1, l_plus + 1, N, both if both == INF else max(both - N, 1))


@dataclass(frozen=True)
class KProfile:
    """Per-vertex admissible grade windows for a truncation level N.

    ``window[x]`` is the inclusive interval [lo, hi] of grades k such that
    some path of length k ends at x and some path of length N - 1 - k
    starts at x, or None when no such grade exists; ``d`` is the block
    dimension (window size, or 1 when empty).
    """

    N: int
    window: dict[str, tuple[int, int] | None]
    d: dict[str, int]


def k_profile(q: Quiver, N: int) -> KProfile:
    """Grade windows and block dimensions, from ``analysis``."""
    comp_of, rows, _ = analysis(q, N)
    return KProfile(N, {x: rows[c][3] for x, c in zip(q.vertices, comp_of)},
                    {x: rows[c][4] for x, c in zip(q.vertices, comp_of)})


def effdim_truncated(q: Quiver, N: int) -> int:
    """Minimal faithful matrix size for the level-N truncated path semigroup."""
    return analysis(q, N)[2]["effdim_truncated"]


def effdim_table(q: Quiver, last: int) -> list[int]:
    """``effdim_truncated(q, N)`` for N = 1..last, in O(n + last) steps.

    At a vertex with a = min(l-, l+) and b = max(l-, l+), ``d_value`` is 1
    at N = 1, rises by 1 per step up to N = a + 1, stays flat up to b + 1,
    falls by 1 per step to 1 at N = l- + l+ + 1, and stays 1; one array
    sums the slope changes of every component, times its size.
    """
    change = [0] * (last + 1)
    _, members, _, lminus, lplus = component_arrays(q)
    for size, lm, lp in zip(map(len, members), lminus, lplus):
        for at, by in ((1, 1), (min(lm, lp) + 1, -1), (max(lm, lp) + 1, -1), (lm + lp + 1, 1)):
            if at < last:
                change[int(at)] += by * size
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
    """Affine stabilization of the truncated dimension, from ``analysis``."""
    totals = analysis(q)[2]
    return Stabilization(totals["a"], totals["b"], totals["threshold"])


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


def analysis(q: Quiver, N: int | None = None) -> tuple[list[int], list[tuple], dict]:
    """``(comp_of, rows, totals)`` in one pass over the components: vertex i
    lies in component ``comp_of[i]``, whose members share its row ``(l-, l+,
    commutative, window, d)``; ``window`` and ``d`` are those of
    ``KProfile``, or None without a truncation level.  A component is
    noncommutative when it is cyclic but not a simple cycle.  The window is
    [max(0, N-1-l+), min(N-1, l-)]: every prefix and suffix of a path is a
    path, so every grade in between is realized.  Its size is ``d_value``'s
    closed form.  Totals, sums of rows weighted by size: ``effdim_path``,
    ``effdim_truncated`` (only with N) and ``stabilization``'s ``a``, ``b``
    and ``threshold``; a counts vertices with unbounded paths on both
    sides, b adds 1 per doubly-bounded vertex and min(l-, l+) + 1 per
    singly-bounded one, and the threshold is the vertex count, past which
    every finite l- + l+ is too small to matter.  No integer meets INF in
    arithmetic, so any N works, however large.
    """
    if N is not None and N < 1:
        raise ValueError("N must be >= 1")
    comp_of, members, internal, lminus, lplus = component_arrays(q)
    rows = []
    extra = truncated = a = b = 0
    window = d = None
    for size, inside, lm, lp in zip(map(len, members), internal, lminus, lplus):
        commutative = not inside or inside == size
        extra += 0 if commutative else size
        if lm == lp == INF:
            a += size
        else:
            b += size if lm + lp < INF else (min(lm, lp) + 1) * size
        if N is not None:
            lo, hi = 0 if lp == INF else max(0, N - 1 - lp), min(N - 1, lm)
            window, d = ((lo, hi), hi - lo + 1) if lo <= hi else (None, 1)
            truncated += d * size
        rows.append((lm, lp, commutative, window, d))
    totals = {"effdim_path": q.n + extra}
    if N is not None:
        totals["effdim_truncated"] = truncated
    totals.update(a=a, b=b, threshold=q.n)
    return comp_of, rows, totals


def report(q: Quiver, N: int | None = None) -> dict:
    """JSON-ready per-vertex and total dimension data, from ``analysis``.

    Grade windows and block dimensions appear only when a truncation level
    is given; a window of null then means it is empty.
    """
    comp_of, rows, totals = analysis(q, N)
    vertices = {}
    for x, c in zip(q.vertices, comp_of):
        lm, lp, commutative, window, d = rows[c]
        entry = vertices[x] = {"l_minus": ext_to_json(lm), "l_plus": ext_to_json(lp),
                               "scc": c, "commutative": commutative}
        if N is not None:
            entry["K"] = None if window is None else list(window)
            entry["d"] = d
    return {"vertices": vertices, "totals": totals}
