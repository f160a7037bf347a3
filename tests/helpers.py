"""Shared test machinery: standard quivers, a fixed-seed random suite, and
independent brute-force oracles the implementation is checked against."""

import itertools
import random
import re
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import strategies as st

from pathrep.dimension import classify_path, k_profile
from pathrep.oracle import verify_filtration
from pathrep.paths import Path, enumerate_paths, factorize_cycle, head_counts
from pathrep.polyring import PolyMatrix
from pathrep.quiver import INF, Quiver, QuiverError, length_profile
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


# ------------------------------------------------- reference quiver builds

_REF_ID = re.compile(r"[A-Za-z0-9_]+\Z")
_REF_LINE = re.compile(
    r"vertex\s+([A-Za-z0-9_]+)|arrow\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)"
)


def reference_quiver(vertices, arrows=()):
    """``Quiver(vertices, arrows)`` as its attributes, checked and built one
    declaration at a time in a single loop: raises the same
    ``QuiverError``, message and ``decl``.  An arrow
    entry must be a tuple or list of three items; a string or a dict that
    unpacks to three is no declaration."""
    vindex = {}
    for v in vertices:
        if not isinstance(v, str) or not _REF_ID.match(v):
            raise QuiverError(f"bad vertex id {v!r}", ("vertex", len(vindex)))
        if v in vindex:
            raise QuiverError(f"duplicate vertex id {v!r}", ("vertex", len(vindex)))
        vindex[v] = len(vindex)
    built, aindex = [], {}
    out_ = [[] for _ in vindex]
    for i, entry in enumerate(arrows):
        if not isinstance(entry, (tuple, list)) or len(entry) != 3:
            raise QuiverError(f"bad arrow declaration {entry!r}", ("arrow", i))
        name, tail, head = entry
        if not isinstance(name, str) or not _REF_ID.match(name):
            raise QuiverError(f"bad arrow id {name!r}", ("arrow", i))
        if name in aindex:
            raise QuiverError(f"duplicate arrow id {name!r}", ("arrow", i))
        t = vindex.get(tail) if isinstance(tail, str) else None
        h = vindex.get(head) if isinstance(head, str) else None
        if t is None or h is None:
            bad = tail if t is None else head
            raise QuiverError(f"arrow {name!r} uses undeclared vertex {bad!r}", ("arrow", i))
        aindex[name] = i
        built.append((name, t, h))
        out_[t].append((i, h))
    if not vindex:
        raise QuiverError("no vertices declared")
    return SimpleNamespace(vertices=tuple(vindex), arrows=tuple(built), out_arrows=tuple(map(tuple, out_)),
                           vertex_index=vindex, arrow_index=aindex)


def reference_parse(text):
    """``parse_quiver(text)`` as ``reference_quiver``'s attributes, one line
    at a time, as the parser did before it read whole texts."""
    vertices, arrows = [], []
    linenos = {"vertex": [], "arrow": []}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = (line[: line.index("#")] if "#" in line else line).strip()
        if not line:
            continue
        m = _REF_LINE.fullmatch(line)
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
        return reference_quiver(vertices, arrows)
    except QuiverError as exc:
        if exc.decl is None:
            raise
        kind, pos = exc.decl
        raise QuiverError(f"line {linenos[kind][pos]}: {exc}") from None


def build_outcome(build, *args):
    """What ``build(*args)`` gives: the quiver's attributes, with the type
    of each vertex id, or the ``QuiverError``'s message and ``decl``."""
    try:
        q = build(*args)
    except QuiverError as exc:
        return "error", str(exc), exc.decl
    return ("quiver", q.vertices, tuple(map(type, q.vertices)), q.arrows, q.out_arrows,
            q.vertex_index, q.arrow_index)


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


# ------------------------------------------------ unfaithful path reps

def unfaithful_variants(rep, victims, matrix=PolyMatrix):
    """Yield ``(label, rep)`` for variants of a rep that are mostly not
    faithful: each victim arrow zeroed, the first two arrows of one shape
    given the same matrix, and every nonzero entry replaced by 1.  The
    changed matrices are built by ``matrix`` from lists of rows."""
    mats = rep.matrices
    for victim in victims:
        m = mats[victim]
        zero = matrix([[0] * len(m[0])] * len(m))
        yield f"zero {victim}", replace(rep, matrices={**mats, victim: zero})
    for a, b in itertools.combinations(mats, 2):
        if (len(mats[a]), len(mats[a][0])) == (len(mats[b]), len(mats[b][0])):
            yield f"{b} as {a}", replace(rep, matrices={**mats, b: mats[a]})
            break
    yield "ones", replace(rep, matrices={
        name: matrix([[int(bool(e)) for e in row] for row in m]) for name, m in mats.items()
    })


def truncated_variants(rep):
    """``unfaithful_variants`` of a truncated rep, every arrow a victim: its
    matrices stay integer tuples of rows, or become ``PolyMatrix`` for
    symbolic labels, as a rep file reads them."""
    def matrix(rows):
        return PolyMatrix(rows) if rep.label_kind == "symbolic" else tuple(map(tuple, rows))

    return unfaithful_variants(rep, list(rep.matrices), matrix)


def label_moved_down(rep):
    """Yield ``(arrow, rep)``, one variant per arrow whose first label (in
    row order) has a row below it: the label moved one row down, so one
    grade lower, and the arrow no longer raises that vector's grade."""
    for name, m in rep.matrices.items():
        r, c = next(((r, c) for r, row in enumerate(m) for c, e in enumerate(row) if e),
                    (len(m) - 1, 0))
        if r + 1 < len(m):
            rows = [list(row) for row in m]
            rows[r + 1][c], rows[r][c] = rows[r][c], rows[r + 1][c]
            yield name, replace(rep, matrices={**rep.matrices, name: tuple(map(tuple, rows))})


# ------------------------------------------------------- brute-force oracles

def longest_walks(succ):
    """For each node of the graph with an edge i -> j for every j in
    ``succ[i]``, the most edges of a walk ending there, or INF when a cycle
    leads to it (a cycle has walks of every length).  Kahn's order settles
    the nodes level by level, so the last predecessor of a node to settle
    is a deepest one; the nodes it leaves with in-degree are exactly those
    a cycle leads to.  The reference for ``quiver.analyse_graph``'s l-,
    found without its components."""
    indegree = [0] * len(succ)
    for nexts in succ:
        for j in nexts:
            indegree[j] += 1
    depth = [0] * len(succ)
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:  # grows as it is read
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                depth[j] = depth[i] + 1
                order.append(j)
    return [INF if left else d for d, left in zip(depth, indegree)]


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


def out_arrow_ids(q):
    """Each vertex's out-arrow indices in declaration order, read off
    ``q.arrows`` rather than the quiver's own adjacency table."""
    out = [[] for _ in range(q.n)]
    for i, a in enumerate(q.arrows):
        out[a.tail].append(i)
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
