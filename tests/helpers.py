"""Shared test machinery: standard quivers, a fixed-seed random suite, and
independent brute-force oracles the implementation is checked against."""

import random

from hypothesis import strategies as st

from pathrep.dimension import classify_path, k_profile
from pathrep.oracle import verify_filtration
from pathrep.paths import Path, enumerate_paths, factorize_cycle, head_counts
from pathrep.quiver import Quiver, length_profile
from pathrep.repbuild import build_path_rep, build_truncated_rep, rep_of_path

SUITE_SEED = 20260810

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
# Arbitrary JSON values, and objects that look like a representation file
# (a known kind, known field names) with arbitrary field values.
REP_FIELDS = ("vertex_dims", "variables", "arrows", "labels", "truncation", "basis_labels",
              "label_table", "prime_table", "label_variables")
REP_JSON = JSON_VALUES | st.builds(
    lambda kind, fields: {"kind": kind, **fields},
    st.sampled_from(["path", "truncated"]),
    st.dictionaries(st.sampled_from(REP_FIELDS), JSON_VALUES, max_size=len(REP_FIELDS)),
)


# ---------------------------------------------------------------- quivers

def loop():
    return Quiver(["x"], [("a", "x", "x")])


def two_loops():
    return Quiver(["x"], [("a", "x", "x"), ("b", "x", "x")])


def kronecker():
    return Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])


def a2():
    return Quiver(["x", "y"], [("a", "x", "y")])


def a_line(n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Quiver(vs, [(f"a{i}", vs[i - 1], vs[i]) for i in range(1, n)])


def three_cycle():
    return Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z"), ("c", "z", "x")])


def triangle_chord():
    return Quiver(
        ["x", "y", "z"],
        [("a", "x", "y"), ("b", "y", "z"), ("c", "z", "x"), ("d", "x", "z")],
    )


def isolated():
    return Quiver(["x"])


def loop_with_tail():
    return Quiver(["x", "y", "z"], [("l", "x", "x"), ("a", "x", "y"), ("b", "y", "z")])


# ------------------------------------------------------------ random suite

def random_quiver(rng, max_vertices=5, max_arrows=7):
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_arrows)
    vs = [f"v{i}" for i in range(n)]
    return Quiver(vs, [(f"a{j}", rng.choice(vs), rng.choice(vs)) for j in range(m)])


_suite_cache = {}


def suite(count=200, seed=SUITE_SEED, **kw):
    key = (count, seed, tuple(sorted(kw.items())))
    if key not in _suite_cache:
        rng = random.Random(seed)
        _suite_cache[key] = [random_quiver(rng, **kw) for _ in range(count)]
    return _suite_cache[key]


# ------------------------------------------------------------ line quivers

def line_quiver(dirs):
    """Line quiver on len(dirs)+1 vertices; dirs[i] True points rightward."""
    n = len(dirs) + 1
    vs = [f"v{i}" for i in range(1, n + 1)]
    ars = []
    for i, fwd in enumerate(dirs):
        if fwd:
            ars.append((f"a{i}", vs[i], vs[i + 1]))
        else:
            ars.append((f"a{i}", vs[i + 1], vs[i]))
    return Quiver(vs, ars)


def segments_of(dirs):
    """Vertex counts of the maximal directed runs of a line orientation."""
    sizes = []
    run = 1
    for prev, cur in zip(dirs, dirs[1:]):
        if cur == prev:
            run += 1
        else:
            sizes.append(run + 1)
            run = 1
    sizes.append(run + 1)
    return sizes


# ------------------------------------------------------- brute-force oracles

def naive_paths(q, max_len):
    """All (tail, head, arrows) triples of length <= max_len, trivials included."""
    out = []

    def rec(tail, head, seq):
        out.append((tail, head, seq))
        if len(seq) == max_len:
            return
        for i, a in enumerate(q.arrows):
            if a.tail == head:
                rec(tail, a.head, seq + (i,))

    for v in range(q.n):
        rec(v, v, ())
    return out


def path_counts(q, max_len):
    """Yield the number of paths of each length 0..max_len, and stop where
    ``paths.walk`` stops, at the first length with none."""
    return (sum(ending) for _, ending in zip(range(max_len + 1), head_counts(q)))


def naive_reaches(q, src):
    """Vertices reachable from src, by plain breadth-first search."""
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for a in q.arrows:
                if a.tail == v and a.head not in seen:
                    seen.add(a.head)
                    nxt.append(a.head)
        frontier = nxt
    return seen


def naive_coreaches(q, dst):
    """Vertices that reach dst, by breadth-first search on reversed arrows."""
    seen = {dst}
    frontier = [dst]
    while frontier:
        nxt = []
        for v in frontier:
            for a in q.arrows:
                if a.head == v and a.tail not in seen:
                    seen.add(a.tail)
                    nxt.append(a.tail)
        frontier = nxt
    return seen


def naive_first_return(q, x, max_len, limit=None):
    """Arrow tuples of cycles at x with no intermediate visit, length <= max_len.

    Wandering is restricted to vertices that both are reachable from x and
    reach x, which loses nothing: a cycle never leaves that set.
    """
    allowed = naive_reaches(q, x) & naive_coreaches(q, x)
    out = []

    def rec(head, seq):
        if len(seq) >= max_len:
            return
        for i, a in enumerate(q.arrows):
            if limit is not None and len(out) >= limit:
                return
            if a.tail != head:
                continue
            if a.head == x:
                out.append(seq + (i,))
            elif a.head in allowed:
                rec(a.head, seq + (i,))

    rec(x, ())
    return out


def naive_cycles_at(q, x, max_len, cap=None):
    """Arrow tuples of all cycles at x (intermediate visits allowed) of
    length <= max_len, in depth-first order, up to ``cap`` of them."""
    allowed = naive_reaches(q, x) & naive_coreaches(q, x)
    out = []

    def rec(head, seq):
        if cap is not None and len(out) >= cap:
            return
        if seq and head == x:
            out.append(seq)
        if len(seq) == max_len:
            return
        for i, a in enumerate(q.arrows):
            if a.tail == head and a.head in allowed:
                rec(a.head, seq + (i,))

    rec(x, ())
    return out


def in_out_length_sets(q, max_len):
    """Per vertex index: the sets of realized path lengths into / out of it."""
    ins = {v: set() for v in range(q.n)}
    outs = {v: set() for v in range(q.n)}
    for tail, head, seq in naive_paths(q, max_len):
        ins[head].add(len(seq))
        outs[tail].add(len(seq))
    return ins, outs


def count_factorizations(word, factors):
    """Number of ways to write ``word`` as a concatenation of ``factors``."""
    ways = [0] * (len(word) + 1)
    ways[0] = 1
    for i in range(1, len(word) + 1):
        for f in factors:
            k = len(f)
            if k <= i and word[i - k : i] == f:
                ways[i] += ways[i - k]
    return ways[len(word)]


# ---------------------------------------------------- reusable property suites

def check_freeness(q, bound=8, cap=3000):
    """Every cycle factors uniquely into first-return cycles.

    Exhaustive over all cycles of length <= bound, except that at most
    ``cap`` cycles per vertex are examined (loop-heavy draws have millions;
    the uniqueness count is still exhaustive per examined cycle).
    """
    for x in range(q.n):
        cycles = naive_cycles_at(q, x, bound, cap=cap)
        if not cycles:
            continue
        firsts = naive_first_return(q, x, bound)
        first_set = set(firsts)
        for seq in cycles:
            factors = factorize_cycle(q, Path(x, x, seq))
            assert tuple(i for f in factors for i in f.arrows) == seq
            assert all(f.arrows in first_set for f in factors)
            assert count_factorizations(seq, firsts) == 1


def check_k_windows(q, max_N=6):
    """Grade windows agree with the direct path-existence definition."""
    ins, outs = in_out_length_sets(q, max(max_N - 1, 0))
    for N in range(1, max_N + 1):
        kp = k_profile(q, N)
        for x in q.vertices:
            xi = q.vertex_index[x]
            direct = {
                k for k in range(N) if k in ins[xi] and (N - 1 - k) in outs[xi]
            }
            w = kp.window[x]
            interval = set() if w is None else set(range(w[0], w[1] + 1))
            assert interval == direct
            assert kp.d[x] == (len(interval) if interval else 1)


def check_symbolic_homogeneity(q, bound=5):
    """Nonzero entries of path images are homogeneous of the path length, and
    diagonal/above-diagonal entries between doubled vertices never vanish."""
    rep = build_path_rep(q)
    doubled = set(classify_path(q).noncommutative)
    for p in enumerate_paths(q, bound):
        m = rep_of_path(rep, p)
        for i in range(m.rows):
            for j in range(m.cols):
                e = m.entry(i, j)
                if not e.is_zero:
                    assert e.homogeneous_degree() == p.length
        if p.is_trivial:
            continue  # the identity block has a zero above the diagonal
        if q.vertices[p.tail] in doubled and q.vertices[p.head] in doubled:
            for i in range(m.rows):
                for j in range(i, m.cols):
                    assert not m.entry(i, j).is_zero


def check_grade_structure(q, N):
    """Images of a grade-k basis vector land at grade >= k + path length."""
    rep = build_truncated_rep(q, N)
    prof = length_profile(q)
    grades = {}
    for x in q.vertices:
        g = rep.grades[x]
        grades[x] = g if g is not None else (int(prof[x][0]),)
    for p in enumerate_paths(q, N):
        if p.is_trivial:
            continue
        m = rep_of_path(rep, p)
        src = grades[q.vertices[p.tail]]
        tgt = grades[q.vertices[p.head]]
        for col in range(len(src)):
            for row in range(len(tgt)):
                if m[row][col] != 0:
                    assert tgt[row] >= src[col] + p.length


def check_filtration(q, levels=(1, 2, 3, 4)):
    for N in levels:
        rep = build_truncated_rep(q, N)
        assert verify_filtration(rep, q).ok
