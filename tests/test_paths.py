import copy
import pickle

import pytest

import helpers
from pathrep.paths import (
    ZERO,
    Path,
    arrow_path,
    compose,
    enumerate_paths,
    factorize_cycle,
    first_return_cycles,
    make_path,
    path_str,
    trivial,
    walk,
)
from pathrep.polyring import identity, mat_mul
from pathrep.quiver import Quiver
from pathrep.repbuild import build_path_rep, build_truncated_rep, rep_of_path


def test_compose_identity_law():
    q = helpers.a2()
    a = arrow_path(q, "a")
    assert compose(trivial(q, "y"), a) == a
    assert compose(a, trivial(q, "x")) == a


def test_compose_noncomposable_is_zero():
    q = Quiver(["x", "y", "z", "w"], [("a", "x", "y"), ("b", "z", "w")])
    assert compose(arrow_path(q, "a"), arrow_path(q, "b")) == ZERO
    assert path_str(q, ZERO) == "z"


def test_compose_chain():
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z")])
    p = compose(arrow_path(q, "b"), arrow_path(q, "a"))
    assert p.length == 2
    assert path_str(q, p) == "b*a"
    assert p == make_path(q, ["a", "b"])


def test_zero_absorbs_and_has_no_length():
    q = helpers.loop()
    a = arrow_path(q, "a")
    assert compose(a, ZERO) == ZERO
    assert compose(ZERO, a) == ZERO
    with pytest.raises(ValueError):
        ZERO.length


def test_make_path_rejects_noncomposable():
    q = helpers.kronecker()
    with pytest.raises(ValueError):
        make_path(q, ["a", "b"])


def test_enumerate_loop():
    q = helpers.loop()
    assert [path_str(q, p) for p in enumerate_paths(q, 3)] == [
        "e(x)",
        "a",
        "a*a",
        "a*a*a",
    ]


def test_enumerate_a2():
    q = helpers.a2()
    assert [path_str(q, p) for p in enumerate_paths(q, 2)] == ["e(x)", "e(y)", "a"]


def test_enumerate_kronecker_order():
    q = helpers.kronecker()
    assert [path_str(q, p) for p in enumerate_paths(q, 1)] == ["e(x)", "e(y)", "a", "b"]


def test_enumerate_no_duplicates_and_ordered():
    for q in helpers.suite(30):
        paths = enumerate_paths(q, 4)
        assert len(set(paths)) == len(paths)
        keys = [(p.length, p.arrows) for p in paths]
        assert keys == sorted(keys)


def _walked(q, max_len, start=lambda v: None, step=lambda ai, value: None):
    """The walked paths as ``(length, level)`` pairs, a level the list of
    ``(Path, value)`` pairs of one length in walk order; the walk must
    yield the lengths in turn, each after the whole of the one before."""
    levels = []
    for t, h, arrows, value in walk(q, max_len, start, step):
        if len(arrows) == len(levels):
            levels.append((len(arrows), []))
        assert len(arrows) == len(levels) - 1
        levels[-1][1].append((Path(t, h, arrows), value))
    return levels


def test_walk_levels_match_enumeration_and_stop_when_empty():
    for q in helpers.suite(30):
        levels = _walked(q, 4)
        assert [length for length, _ in levels] == list(range(len(levels)))
        walked = [p for _, level in levels for p, _ in level]
        assert sorted(walked, key=lambda p: (p.length, p.arrows)) == enumerate_paths(q, 4)
        out = helpers.out_arrow_ids(q)
        assert len(levels) == 5 or not any(out[p.head] for p, _ in levels[-1][1])
    # a bound far beyond the longest path costs no pass per length
    assert len(_walked(helpers.a_line(3), 10**18)) == 3


def test_walk_order_extends_each_level_in_order():
    """Level k + 1 extends the paths of level k in their order, each by the
    arrows out of its head in declaration order; sorting each level by
    arrow index gives ``enumerate_paths`` order."""
    for q in helpers.suite(30) + [helpers.kronecker(), helpers.triangle_chord()]:
        levels = _walked(q, 4)
        out = helpers.out_arrow_ids(q)
        expected = [Path(v, v) for v in range(q.n)]
        for length, level in levels:
            assert [p for p, _ in level] == expected
            expected = [
                Path(p.tail, q.arrows[ai].head, p.arrows + (ai,))
                for p, _ in level
                for ai in out[p.head]
            ]
        in_lex_order = [
            p for _, level in levels for p in sorted((p for p, _ in level), key=lambda p: p.arrows)
        ]
        assert in_lex_order == enumerate_paths(q, 4)


def test_walk_steps_only_what_is_read():
    """A path is stepped as it is yielded: breaking off mid-level leaves the
    rest of the level unstepped."""
    q = helpers.two_loops()
    steps = []
    for _, _, arrows, _ in walk(q, 3, lambda v: (), lambda ai, value: steps.append(ai) or value + (ai,)):
        if len(arrows) == 2:
            assert arrows == (0, 0)
            break
    assert steps == [0, 1, 0]


def test_walk_steps_each_path_once_from_its_prefix():
    """Every path past the trivial ones costs one step, taken just before
    the walk yields it, on the arrow it ends with and the value of the path
    it extends; the step's result is its value."""
    for q in helpers.suite(30) + [helpers.kronecker(), helpers.triangle_chord(), helpers.loop()]:
        calls = []

        def step(ai, value):
            calls.append((ai, value))
            return value + (ai,)

        values = {}
        for tail, _, arrows, value in walk(q, 4, lambda v: (v,), step):
            assert value == (tail,) + arrows
            assert calls == ([(arrows[-1], values[tail, arrows[:-1]])] if arrows else [])
            calls.clear()
            values[tail, arrows] = value


def test_walk_of_a_copied_or_pickled_quiver_is_the_same():
    """Copies and pickles of a quiver walk the same paths."""
    for q in helpers.suite(30) + [helpers.kronecker(), helpers.loop()]:
        levels = _walked(q, 4)
        for other in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert _walked(other, 4) == levels


def _walked_images(q, max_len, start, step):
    return [(p, m) for _, level in _walked(q, max_len, start, step) for p, m in level]


def test_walk_with_products_gives_rep_of_path_images():
    modulus = (1 << 61) - 1

    def point(v):
        return 1000 + 17 * v

    def evaluated(p):
        return rep_of_path(symbolic, p).evaluate(point, modulus)

    for q in helpers.suite(30):
        for labels in ("primes", "symbolic"):
            graded = build_truncated_rep(q, 3, labels=labels)
            mats = list(graded.matrices.values())
            for p, m in _walked_images(
                q,
                4,
                lambda v: identity(graded.dims[q.vertices[v]]),
                lambda ai, m: mat_mul(mats[ai], m),
            ):
                assert m == rep_of_path(graded, p)

        symbolic = build_path_rep(q)
        values = [m.evaluate(point, modulus) for m in symbolic.matrices.values()]
        for p, m in _walked_images(
            q,
            4,
            lambda v: evaluated(Path(v, v)),
            lambda ai, m: tuple(
                tuple(e % modulus for e in row) for row in mat_mul(values[ai], m)
            ),
        ):
            assert m == evaluated(p)


def test_first_return_two_loops():
    q = helpers.two_loops()
    basis = first_return_cycles(q, "x", 1)
    assert [path_str(q, c) for c in basis.cycles] == ["a", "b"]
    assert basis.complete


def test_first_return_triangle_chord():
    q = helpers.triangle_chord()
    basis = first_return_cycles(q, "x", 3)
    assert sorted(c.length for c in basis.cycles) == [2, 3]
    assert {path_str(q, c) for c in basis.cycles} == {"c*d", "c*b*a"}
    assert basis.complete
    short = first_return_cycles(q, "x", 2)
    assert [path_str(q, c) for c in short.cycles] == ["c*d"]
    assert not short.complete


def test_first_return_acyclic():
    basis = first_return_cycles(helpers.a2(), "x", 5)
    assert basis.cycles == ()
    assert basis.complete


def test_first_return_incomplete_when_subcycle_avoids_base():
    # x -> y, loop at y, y -> x: first returns of every length exist
    q = Quiver(["x", "y"], [("a", "x", "y"), ("l", "y", "y"), ("b", "y", "x")])
    basis = first_return_cycles(q, "x", 10)
    assert not basis.complete
    assert len(basis.cycles) == 9  # a, then l^k (k <= 8), then b


def _first_return_lengths(q, x, bound):
    """The lengths <= bound of the first-return cycles at vertex index x,
    from the sets of vertices that walks from x reach without revisiting it."""
    lengths = set()
    level = {x}
    for k in range(1, bound + 1):
        heads = {a.head for a in q.arrows if a.tail in level}
        if x in heads:
            lengths.add(k)
        level = heads - {x}
    return lengths


def test_first_return_complete_matches_definition():
    # complete at L exactly when no first-return cycle has length in
    # (L, L + 2n], a window that holds one if any cycle is longer than L
    subcycle = Quiver(["x", "y"], [("a", "x", "y"), ("l", "y", "y"), ("b", "y", "x")])
    quivers = helpers.suite() + [
        helpers.loop(), helpers.two_loops(), helpers.kronecker(), helpers.a2(),
        helpers.a_line(4), helpers.three_cycle(), helpers.triangle_chord(),
        helpers.isolated(), helpers.loop_with_tail(), subcycle,
    ]
    for q in quivers:
        for v in q.vertices:
            x = q.vertex_index[v]
            for L in range(1, q.n + 3):
                lengths = _first_return_lengths(q, x, L + 2 * q.n)
                basis = first_return_cycles(q, v, L)
                assert basis.complete == all(k <= L for k in lengths)
                assert {c.length for c in basis.cycles} == {k for k in lengths if k <= L}


def test_factorize_loop_power():
    q = helpers.loop()
    p = make_path(q, ["a", "a", "a"])
    assert factorize_cycle(q, p) == [arrow_path(q, "a")] * 3


def test_factorize_two_loops_word():
    q = helpers.two_loops()
    p = make_path(q, ["a", "b", "a"])
    assert [path_str(q, f) for f in factorize_cycle(q, p)] == ["a", "b", "a"]


def test_factorize_triangle_chord_product():
    q = helpers.triangle_chord()
    long_cycle = make_path(q, ["a", "b", "c"])
    short_cycle = make_path(q, ["d", "c"])
    p = compose(long_cycle, short_cycle)  # walk the chord cycle first
    assert factorize_cycle(q, p) == [short_cycle, long_cycle]


def test_factorize_trivial_is_empty():
    q = helpers.loop()
    assert factorize_cycle(q, trivial(q, "x")) == []


def test_factorize_rejects_noncycles():
    q = helpers.a2()
    with pytest.raises(ValueError):
        factorize_cycle(q, arrow_path(q, "a"))
    with pytest.raises(ValueError):
        factorize_cycle(q, ZERO)


def test_is_commutative_examples():
    assert "x" not in helpers.commutative_split(helpers.two_loops())[1]
    assert "x" in helpers.commutative_split(helpers.loop())[1]
    assert "x" in helpers.commutative_split(helpers.a2())[1]


def test_freeness_factorization_unique():
    for q in helpers.suite(40):
        helpers.check_freeness(q)


def test_commutativity_decision_matches_enumeration():
    for q in helpers.suite(80):
        noncommutative, commutative = helpers.commutative_split(q)
        for x in q.vertices:
            xi = q.vertex_index[x]
            assert (x in noncommutative) != (x in commutative)
            if x in commutative:
                assert len(helpers.naive_first_return(q, xi, 2 * q.n)) <= 1
            else:
                assert len(helpers.naive_first_return(q, xi, 2 * q.n, limit=2)) == 2


def test_commutativity_constant_on_components():
    """Constant on each mutual-reachability class, found by brute force."""
    for q in helpers.suite(80):
        _, commutative = helpers.commutative_split(q)
        for v in range(q.n):
            members = helpers.naive_reaches(q, v) & helpers.naive_coreaches(q, v)
            flags = {q.vertices[w] in commutative for w in members}
            assert len(flags) == 1


def test_compose_associative_and_absorbing():
    for q in helpers.suite(8, max_vertices=3, max_arrows=4):
        paths = enumerate_paths(q, 3)[:30] + [ZERO]
        for p1 in paths:
            for p2 in paths:
                p12 = compose(p1, p2)
                for p3 in paths:
                    assert compose(p12, p3) == compose(p1, compose(p2, p3))


def test_path_counts_match_the_walk():
    """Per length, the count is the size of the walk's level, and both stop
    at the first empty level."""
    for q in helpers.suite()[:60] + [helpers.a_line(4), helpers.two_loops(), helpers.isolated()]:
        for max_len in range(0, 7):
            sizes = [len(level) for _, level in _walked(q, max_len)]
            assert list(helpers.path_counts(q, max_len)) == sizes
