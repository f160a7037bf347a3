"""Reference computations made apart from ``pathrep``.

The benchmark checks every output of the program against these, never
against a stored copy of an earlier output.  The algorithms are chosen to
differ from the program's: Kosaraju's two-pass search instead of Tarjan's,
longest paths along the component order that search yields, path counts
from powers of the adjacency matrix instead of a walk over paths, and the
sieve of Eratosthenes instead of trial division.

A quiver is a pair ``(vertices, arrows)`` of vertex ids and
``(arrow id, tail id, head id)`` triples, as in ``workloads``.
"""

from __future__ import annotations

import math
import re

INF = math.inf

_LINE = re.compile(
    r"\s*(?:vertex\s+(\w+)|arrow\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+))\s*\Z"
)


def parse_quiver(text: str):
    """The quiver-file format, read without ``pathrep``."""
    vertices, arrows = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"cannot parse {line!r}")
        if m.group(1):
            vertices.append(m.group(1))
        else:
            arrows.append((m.group(2), m.group(3), m.group(4)))
    return vertices, arrows


def _edges(quiver):
    vertices, arrows = quiver
    index = {v: i for i, v in enumerate(vertices)}
    return len(vertices), [(index[t], index[h]) for _, t, h in arrows]


def components(n: int, edges) -> list[int]:
    """Strongly connected components by Kosaraju's algorithm.

    Component numbers follow a topological order of the condensation:
    every arrow leads from a component to itself or to a higher number.
    """
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for t, h in edges:
        out[t].append(h)
        inn[h].append(t)
    seen = [False] * n
    finish = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, 0)]
        while stack:
            v, i = stack.pop()
            if i < len(out[v]):
                stack.append((v, i + 1))
                w = out[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                finish.append(v)
    comp = [-1] * n
    count = 0
    for root in reversed(finish):
        if comp[root] != -1:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for w in inn[v]:
                if comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def analysis(quiver):
    """Per vertex index: component, cyclic flag, commutativity, l- and l+.

    Returns ``(comp, commutative, l_minus, l_plus)``.  A component is cyclic
    when it has more than one vertex or a loop; its cycle monoid commutes
    unless it is cyclic and has more arrows inside than vertices.
    """
    n, edges = _edges(quiver)
    comp = components(n, edges)
    k = max(comp) + 1
    size = [0] * k
    inside = [0] * k
    looped = [False] * k
    for v in range(n):
        size[comp[v]] += 1
    for t, h in edges:
        if comp[t] == comp[h]:
            inside[comp[t]] += 1
            looped[comp[t]] |= t == h
    cyclic = [size[c] > 1 or looped[c] for c in range(k)]
    commutative = [not (cyclic[comp[v]] and inside[comp[v]] > size[comp[v]]) for v in range(n)]
    order = sorted(range(n), key=comp.__getitem__)
    into = [[] for _ in range(n)]
    outof = [[] for _ in range(n)]
    for t, h in edges:
        into[h].append(t)
        outof[t].append(h)
    l_minus = [0] * n
    for v in order:
        if cyclic[comp[v]]:
            l_minus[v] = INF
        else:
            l_minus[v] = max((l_minus[u] + 1 for u in into[v]), default=0)
    l_plus = [0] * n
    for v in reversed(order):
        if cyclic[comp[v]]:
            l_plus[v] = INF
        else:
            l_plus[v] = max((l_plus[w] + 1 for w in outof[v]), default=0)
    return comp, commutative, l_minus, l_plus


def d_value(lm, lp, N: int) -> int:
    """min{l- + 1, l+ + 1, N, max{l- + l+ + 2 - N, 1}}."""
    return int(min(lm + 1, lp + 1, N, max(lm + lp + 2 - N, 1)))


def window(lm, lp, N: int):
    """Grades k with a path of length k ending and one of N-1-k starting."""
    lo = max(0, N - 1 - lp)
    hi = min(N - 1, lm)
    return None if lo > hi else [int(lo), int(hi)]


def truncated_dims(quiver, N: int) -> dict[str, int]:
    _, _, l_minus, l_plus = analysis(quiver)
    return {v: d_value(l_minus[i], l_plus[i], N) for i, v in enumerate(quiver[0])}


def path_counts(quiver, max_len: int) -> list[int]:
    """Number of paths of each length 0..max_len: the entry sums of A^k."""
    n, edges = _edges(quiver)
    row = [1] * n  # the all-ones row vector times A^k
    counts = [n]
    for _ in range(max_len):
        nxt = [0] * n
        for t, h in edges:
            nxt[h] += row[t]
        row = nxt
        counts.append(sum(row))
    return counts


def primes(count: int) -> list[int]:
    """The first ``count`` primes, by a sieve sized with Rosser's bound
    p_n < n (ln n + ln ln n) for n >= 6."""
    if count < 6:
        limit = 14
    else:
        limit = int(count * (math.log(count) + math.log(math.log(count)))) + 1
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    found = [p for p in range(limit + 1) if sieve[p]]
    return found[:count]


def _ext(value):
    return "inf" if value == INF else int(value)


def analyze_report(quiver, N: int):
    """The expected ``analyze --truncate N --json`` output, apart from the
    component numbering, plus the reference component of each vertex.

    Returns ``(vertices, totals, comp)``; ``vertices`` maps each id to its
    ``l_minus``, ``l_plus``, ``commutative``, ``K`` and ``d``.
    """
    comp, commutative, l_minus, l_plus = analysis(quiver)
    vertices = {}
    a = b = 0
    for i, v in enumerate(quiver[0]):
        lm, lp = l_minus[i], l_plus[i]
        vertices[v] = {
            "l_minus": _ext(lm),
            "l_plus": _ext(lp),
            "commutative": commutative[i],
            "K": window(lm, lp, N),
            "d": d_value(lm, lp, N),
        }
        if lm == INF and lp == INF:
            a += 1
        elif lm == INF or lp == INF:
            b += int(min(lm, lp)) + 1
        else:
            b += 1
    n = len(quiver[0])
    totals = {
        "effdim_path": n + commutative.count(False),
        "effdim_truncated": sum(e["d"] for e in vertices.values()),
        "a": a,
        "b": b,
        "threshold": n,
    }
    return vertices, totals, comp
