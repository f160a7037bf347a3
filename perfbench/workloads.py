"""Seeded inputs for the three workloads.

A quiver here is a plain pair ``(vertices, arrows)``: a list of vertex ids
and a list of ``(arrow id, tail id, head id)`` triples, both in declaration
order.  Nothing in this module imports ``pathrep``; the program only ever
sees the text files written by :func:`write_quiver`.

Every workload's cost is meant to depend on the seed as little as possible,
so that runs with different seeds measure the same amount of work:

- the random suite is always the 200-quiver suite of acceptance criterion 3
  (``tests/helpers.py``, seed 20260810); the benchmark seed only picks a
  random isomorphic copy of each quiver (fresh ids, shuffled declaration
  order of vertices and arrows), which leaves path counts, matrix sizes and
  polynomial sizes unchanged;
- the directed lines have fixed lengths, relabelled the same way;
- the large analysis quivers are drawn afresh from the seed, but from a
  fixed recipe of part sizes and degrees, so their size and shape barely
  vary.
"""

from __future__ import annotations

import os
import random

SUITE_SEED = 20260810
SUITE_SIZE = 200
GRADED_LEVELS = (1, 2, 3, 4)
LINE_CASES = ((100, 20), (200, 20), (300, 20))  # (vertices, N)
LARGE_COUNT = 150
LARGE_VERTICES = 2000
LARGE_N_RANGE = (2, 64)


def _suite_quiver(rng, max_vertices=5, max_arrows=7):
    # Same draw sequence as tests/helpers.random_quiver, so the suite is the
    # one acceptance criterion 3 verifies.
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_arrows)
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"a{j}", rng.choice(vs), rng.choice(vs)) for j in range(m)]


def base_suite():
    rng = random.Random(SUITE_SEED)
    return [_suite_quiver(rng) for _ in range(SUITE_SIZE)]


def _fresh_ids(rng, prefix, count):
    ids = rng.sample(range(10 * count + 10), count)
    return [f"{prefix}{i}" for i in ids]


def relabel(rng, quiver):
    """A random isomorphic copy: new ids, shuffled declaration order."""
    vertices, arrows = quiver
    vmap = dict(zip(vertices, _fresh_ids(rng, "x", len(vertices))))
    names = _fresh_ids(rng, "e", len(arrows))
    new_vertices = [vmap[v] for v in vertices]
    rng.shuffle(new_vertices)
    new_arrows = [(name, vmap[t], vmap[h]) for name, (_, t, h) in zip(names, arrows)]
    rng.shuffle(new_arrows)
    return new_vertices, new_arrows


def suite(seed):
    rng = random.Random(seed)
    return [relabel(rng, q) for q in base_suite()]


def directed_line(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"a{i}", vs[i], vs[i + 1]) for i in range(n - 1)]


def lines(seed):
    rng = random.Random(seed + 1)
    return [(relabel(rng, directed_line(n)), N) for n, N in LINE_CASES]


def _dag_part(rng, ids, degree, window):
    """Arrows i -> j with i < j <= i + window: acyclic, long longest paths."""
    n = len(ids)
    tails = [i for i in range(n - 1) for _ in range(degree)]
    steps = rng.choices(range(1, window + 1), k=len(tails))
    return [(ids[i], ids[min(n - 1, i + step)]) for i, step in zip(tails, steps)]


def large_quiver(rng):
    """LARGE_VERTICES vertices and about twice as many arrows, in four parts.

    An upstream acyclic part feeds a large strongly connected core, which
    feeds a downstream acyclic part; a fourth acyclic part stands alone.
    So every quiver has vertices with l- and l+ both infinite (core), one
    of them infinite (upstream, downstream) and both finite (the isolated
    part), and its analysis work does not split into two populations.
    """
    ids = [f"x{i}" for i in range(LARGE_VERTICES)]
    q = LARGE_VERTICES // 20
    up, core, down, alone = ids[:5 * q], ids[5 * q:11 * q], ids[11 * q:16 * q], ids[16 * q:]
    cycle = core[:]
    rng.shuffle(cycle)
    pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
    pairs += zip(rng.choices(core, k=len(core)), rng.choices(core, k=len(core)))
    pairs += _dag_part(rng, up, 2, 8)
    pairs += _dag_part(rng, down, 2, 8)
    pairs += _dag_part(rng, alone, 2, 8)
    pairs += zip(rng.choices(up, k=q // 5), rng.choices(core, k=q // 5))
    pairs += zip(rng.choices(core, k=q // 5), rng.choices(down, k=q // 5))
    arrows = [(f"e{j}", t, h) for j, (t, h) in enumerate(pairs)]
    rng.shuffle(ids)
    rng.shuffle(arrows)
    return ids, arrows


def large(seed):
    """Yield (quiver, N) pairs one at a time, so that a caller who writes
    each quiver out before drawing the next holds at most one in memory."""
    rng = random.Random(seed + 2)
    lo, hi = LARGE_N_RANGE
    for _ in range(LARGE_COUNT):
        yield large_quiver(rng), rng.randint(lo, hi)


def quiver_text(quiver) -> str:
    vertices, arrows = quiver
    parts = [f"vertex {v}\n" for v in vertices]
    parts += [f"arrow {a}: {t} -> {h}\n" for a, t, h in arrows]
    return "".join(parts)


def write_quiver(directory, name, quiver) -> str:
    path = os.path.join(directory, name + ".quiver")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(quiver_text(quiver))
    return path
