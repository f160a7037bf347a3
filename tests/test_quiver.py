import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from pathrep.quiver import (
    INF,
    Arrow,
    Quiver,
    QuiverError,
    SccComponent,
    analyse_graph,
    length_profile,
    parse_quiver,
    sccs,
)


def test_parse_loop():
    q = parse_quiver("vertex x\narrow a: x -> x\n")
    assert q.vertices == ("x",)
    assert [(a.name, a.tail, a.head) for a in q.arrows] == [("a", 0, 0)]


def test_parse_kronecker():
    q = parse_quiver("vertex x\nvertex y\narrow a: x -> y\narrow b: x -> y\n")
    assert q.vertices == ("x", "y")
    assert [(a.name, a.tail, a.head) for a in q.arrows] == [("a", 0, 1), ("b", 0, 1)]


def test_parse_undeclared_vertex_names_line():
    with pytest.raises(QuiverError, match="line 1"):
        parse_quiver("arrow a: x -> y")


def test_parse_duplicate_vertex():
    with pytest.raises(QuiverError, match="line 2.*duplicate"):
        parse_quiver("vertex x\nvertex x\n")


def test_parse_duplicate_arrow():
    text = "vertex x\narrow a: x -> x\narrow a: x -> x\n"
    with pytest.raises(QuiverError, match="line 3.*duplicate"):
        parse_quiver(text)


def test_parse_empty_vertex_set():
    with pytest.raises(QuiverError, match="no vertices"):
        parse_quiver("# a comment\n\n")


def test_parse_malformed_line():
    with pytest.raises(QuiverError, match="line 2"):
        parse_quiver("vertex x\narrow b x -> x\n")


def test_parse_comments_blanks_and_forward_refs():
    text = "# heading\narrow a: x -> y  # inline\n\nvertex x\nvertex y\n"
    q = parse_quiver(text)
    assert q.vertices == ("x", "y")
    assert len(q.arrows) == 1


@pytest.mark.parametrize("text, message", [
    ("vertex x\nvertex y\nvertex x\n", "line 3: duplicate vertex id 'x'"),
    ("vertex x\narrow a: x -> x\narrow a: x -> x\n", "line 3: duplicate arrow id 'a'"),
    ("vertex x\narrow a: y -> x\n", "line 2: arrow 'a' uses undeclared vertex 'y'"),
    ("vertex x\narrow a: x -> y\n", "line 2: arrow 'a' uses undeclared vertex 'y'"),
    # a forward reference is fine; vertex errors come before arrow errors
    ("arrow a: x -> z\nvertex x\nvertex x\n", "line 3: duplicate vertex id 'x'"),
    ("arrow a: x -> z\nvertex x\n", "line 1: arrow 'a' uses undeclared vertex 'z'"),
    # an unparsable line comes before every structural error
    ("vertex x\nvertex x\narrow b x -> x\n", "line 3: cannot parse 'arrow b x -> x'"),
    ("arrow a: x -> x\n", "line 1: arrow 'a' uses undeclared vertex 'x'"),
    ("", "no vertices declared"),
    ("# only a comment\n\n", "no vertices declared"),
    # every str.splitlines break ends a line; whitespace within one is any \s
    *[(brk.join(["vertex x", "", "arrow a:\tx\xa0->\u3000x # loop", "vertex x y"]),
       "line 4: cannot parse 'vertex x y'")
      for brk in ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]],
])
def test_parse_error_messages(text, message):
    with pytest.raises(QuiverError) as exc:
        parse_quiver(text)
    assert str(exc.value) == message


_IDS = st.sampled_from("xyz")
_DECLS = st.lists(
    st.one_of(
        st.tuples(st.just("vertex"), _IDS),
        st.tuples(st.just("arrow"), st.sampled_from("ab"), _IDS, _IDS),
        st.sampled_from([("blank",), ("comment",), ("junk",)]),
    ),
    max_size=8,
)


@given(_DECLS)
@settings(max_examples=200, deadline=None)
def test_parse_matches_constructor_or_names_first_bad_line(decls):
    """``parse_quiver`` gives ``Quiver(declared vertices, declared arrows)``
    or an error naming the first bad line: an unparsable line, else a
    repeated vertex, else an arrow with a repeated name or an undeclared
    end, else no vertex at all."""
    render = {
        "vertex": lambda v: f"vertex {v}",
        "arrow": lambda a, t, h: f"arrow {a}: {t} -> {h}  # note",
        "blank": lambda: "",
        "comment": lambda: "# vertex w",
        "junk": lambda: "vertex x y",
    }
    text = "\n".join(render[d[0]](*d[1:]) for d in decls)
    lines = list(enumerate(decls, 1))
    vertices = [d[1] for _, d in lines if d[0] == "vertex"]
    arrows = [d[1:] for _, d in lines if d[0] == "arrow"]

    def seen(n, kind):  # ids declared as ``kind`` before line n
        return [d[1] for _, d in lines[:n - 1] if d[0] == kind]

    bad = [n for n, d in lines if d[0] == "junk"]
    bad += [n for n, d in lines if d[0] == "vertex" and d[1] in seen(n, "vertex")]
    bad += [n for n, d in lines if d[0] == "arrow"
            and (d[1] in seen(n, "arrow") or not {d[2], d[3]} <= set(vertices))]
    if bad:
        with pytest.raises(QuiverError, match=f"line {bad[0]}: "):
            parse_quiver(text)
    elif not vertices:
        with pytest.raises(QuiverError, match="no vertices declared"):
            parse_quiver(text)
    else:
        assert parse_quiver(text) == Quiver(vertices, arrows)


def test_constructor_errors_name_the_declaration_not_a_line():
    with pytest.raises(QuiverError) as exc:
        Quiver(["x", "y"], [("a", "x", "y"), ("b", "y", "z")])
    assert str(exc.value) == "arrow 'b' uses undeclared vertex 'z'"
    assert exc.value.decl == ("arrow", 1)
    with pytest.raises(QuiverError) as exc:
        Quiver([])
    assert str(exc.value) == "no vertices declared" and exc.value.decl is None


@pytest.mark.parametrize("vertices, arrows, message, decl", [
    (["x", "y z", "x"], [], "bad vertex id 'y z'", ("vertex", 1)),
    (["x", 7, "x"], [], "bad vertex id 7", ("vertex", 1)),
    (["x", "y", "x", "z z"], [], "duplicate vertex id 'x'", ("vertex", 2)),
    (["x y"], [("a b", "q", "r")], "bad vertex id 'x y'", ("vertex", 0)),
    (["x"], [("a", "x", "x"), ("b-c", "x", "x"), ("a", "x", "x")], "bad arrow id 'b-c'", ("arrow", 1)),
    (["x"], [("a", "x", "x"), ("a", "q", "r")], "duplicate arrow id 'a'", ("arrow", 1)),
    (["x"], [("a", "x", "x"), ("b", "q", "r")], "arrow 'b' uses undeclared vertex 'q'", ("arrow", 1)),
    (["x"], [("a", "x", "r"), ("b", "q", "x")], "arrow 'a' uses undeclared vertex 'r'", ("arrow", 0)),
    ([], [("a", "x", "y")], "arrow 'a' uses undeclared vertex 'x'", ("arrow", 0)),
])
def test_constructor_reports_the_first_bad_declaration(vertices, arrows, message, decl):
    """Vertices are checked before arrows, each list in order, and within an
    arrow its id before its tail before its head; an empty vertex set is
    reported only when every arrow passed."""
    with pytest.raises(QuiverError) as exc:
        Quiver(vertices, arrows)
    assert str(exc.value) == message
    assert exc.value.decl == decl


@pytest.mark.parametrize("arrows, message, decl", [
    ([("a", ["x"], "x")], "arrow 'a' uses undeclared vertex ['x']", ("arrow", 0)),
    ([("a", "x", {"x": 1})], "arrow 'a' uses undeclared vertex {'x': 1}", ("arrow", 0)),
    ([("a", "x", "x"), ("b", "x")], "bad arrow declaration ('b', 'x')", ("arrow", 1)),
    ([("a", "x", "x", "x")], "bad arrow declaration ('a', 'x', 'x', 'x')", ("arrow", 0)),
    ([5], "bad arrow declaration 5", ("arrow", 0)),
    ([None], "bad arrow declaration None", ("arrow", 0)),
    ([("a", 3, "x")], "arrow 'a' uses undeclared vertex 3", ("arrow", 0)),
    ([(["a"], "x", "x")], "bad arrow id ['a']", ("arrow", 0)),
])
def test_constructor_rejects_malformed_arrow_entries(arrows, message, decl):
    """A malformed arrow entry raises ``QuiverError`` naming the entry or its
    endpoint, never a bare ``TypeError`` or ``ValueError``."""
    with pytest.raises(QuiverError) as exc:
        Quiver(["x"], arrows)
    assert type(exc.value) is QuiverError
    assert str(exc.value) == message
    assert exc.value.decl == decl


def test_arrow_is_an_immutable_record():
    a = Arrow("a", 0, 1)
    assert (a.name, a.tail, a.head) == ("a", 0, 1)
    assert Arrow._fields == ("name", "tail", "head")
    assert repr(a) == "Arrow(name='a', tail=0, head=1)"
    assert a == Arrow("a", 0, 1) and hash(a) == hash(Arrow("a", 0, 1))
    assert a != Arrow("a", 1, 0) and a != Arrow("b", 0, 1)
    assert hash(a) == hash(("a", 0, 1))  # as the frozen dataclass hashed
    with pytest.raises(AttributeError):
        a.tail = 2
    q = Quiver(["x", "y"], [("a", "x", "y")])
    assert q.arrows == (a,) and hash(q) == hash(Quiver(["x", "y"], [("a", "x", "y")]))


class _Sub(str):
    """A str subclass: every check takes it as ``isinstance`` does."""


# Mostly valid ids, so that most inputs get past their first declarations.
_VERTEX_IDS = st.sampled_from(["x", "y", "z", "x", "y", "z", _Sub("x"), _Sub("y"), "x\ny", "y\n", "\nx", "",
                               "x y", "\xe9", "a-b", 7, None, b"x", ("x",), ["x"]])
_ARROW_IDS = st.sampled_from(["a", "b", "c", "a", "b", "c", _Sub("a"), _Sub("b")]) | _VERTEX_IDS


class _Alias:
    """Not a str, though it hashes and compares as "x"."""

    def __hash__(self):
        return hash("x")

    def __eq__(self, other):
        return other == "x"

    def __repr__(self):
        return "_Alias()"


_ENDS = _VERTEX_IDS | st.sampled_from(["x", "y", "w", {"x": 1}, {"x"}, _Alias()])
_ENTRIES = st.one_of(
    st.tuples(_ARROW_IDS, _ENDS, _ENDS),
    st.tuples(_ARROW_IDS, _ENDS, _ENDS),
    st.tuples(_ARROW_IDS, _ENDS),
    st.tuples(_ARROW_IDS, _ENDS, _ENDS, _ENDS),
    st.tuples(_ARROW_IDS, _ENDS, _ENDS).map(list),
    st.sampled_from([5, None, "abc", "ab", {"a": 1, "x": 2, "y": 3}]),
)


@given(st.integers(0, 20), st.booleans(), st.lists(_VERTEX_IDS, max_size=6), st.lists(_ENTRIES, max_size=6))
@example(0, False, [], [])
@example(0, False, [], [("a", "x", "x")])
@example(20, False, ["x\ny"], [])
@example(12, True, ["x", _Sub("y")], [(_Sub("a"), _Sub("x"), "y")])
@example(12, True, ["x"], [("a", "x", ["x"])])
@example(12, True, ["x"], [("a", "x", "x", "x")])
@example(12, True, ["x"], [("a", _Alias(), "x")])
@example(12, True, ["x"], [("a", "y", "x")])
@settings(max_examples=400, deadline=None)
def test_constructor_matches_the_one_by_one_reference(pad, pad_arrows, vertices, arrows):
    """``Quiver`` gives the quiver the reference builds one declaration at a
    time, or its error, message and ``decl`` alike, with a padding of valid
    declarations in front or without, so that a bad declaration is met
    first or after up to 20 good vertices and 20 good arrows."""
    pads = [f"p{i}" for i in range(pad)]
    vertices = pads + vertices
    arrows = [(f"q{i}", v, pads[i - 1]) for i, v in enumerate(pads) if pad_arrows] + arrows
    assert helpers.build_outcome(Quiver, vertices, arrows) == helpers.build_outcome(
        helpers.reference_quiver, vertices, arrows)


@pytest.mark.parametrize("vertices, entry", [
    (["b", "c"], "abc"),
    (["a", "b", "c"], {"x": 1, "b": 2, "c": 3}),
    (["x", "y"], iter(("b", "y", "x"))),
], ids=["str", "dict", "iterator"])
def test_constructor_rejects_entries_that_are_not_tuples_or_lists(vertices, entry):
    """An entry that unpacks to three items but is not a tuple or list is
    no ``(id, tail, head)`` triple: a 3-character string, a 3-key dict or an
    iterator gives ``bad arrow declaration``, among 3 declarations or 43,
    named at its place in the in-order check."""
    for pad in (0, 20):
        pads = [f"p{i}" for i in range(pad)]
        with pytest.raises(QuiverError) as exc:
            Quiver(pads + vertices, [(f"q{i}", p, p) for i, p in enumerate(pads)] + [entry])
        assert str(exc.value) == f"bad arrow declaration {entry!r}"
        assert exc.value.decl == ("arrow", pad)
    q = Quiver(["x", "y"], [["a", "x", "y"]] + [(f"c{i}", "x", "x") for i in range(20)])
    assert q.arrows[0] == ("a", 0, 1) and len(q.arrows) == 21  # a list is a declaration


_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = st.sampled_from([" ", "\t", "\xa0", "\u3000", "\x1f", " \t "])
_GAPS = st.sampled_from(["", " ", "\t", "\xa0", "\u3000"])
_NAMES = st.sampled_from(["x", "y", "z"])
_LINES = st.one_of(
    st.builds("{}vertex{}{}{}".format, _GAPS, _SPACES, _NAMES, _GAPS),
    st.builds("{}arrow{}{}{}:{}{}{}->{}{}{}".format, _GAPS, _SPACES, st.sampled_from("ab"), _GAPS, _GAPS,
              _NAMES, _GAPS, _GAPS, _NAMES, _GAPS),
    _GAPS,
    st.sampled_from(["# vertex w", "  #", "vertex x y", "arrow a x -> y", "vertexx", "arrow a: x ->",
                     "vertex x\x00", "vertex \u2160", "Vertex x", "vertex x # trailing"]),
)


@given(st.integers(0, 20), st.lists(st.tuples(_LINES, st.booleans(), st.sampled_from(_BREAKS)), max_size=10),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_line_by_line_reference(pad, lines, last_break):
    """``parse_quiver`` reads each ``str.splitlines`` line, comments, blank
    lines and whitespace as the line-by-line reference does, and names the
    same line in every error."""
    parts = [f"vertex p{i}\n" for i in range(pad)]
    parts += [line + ("  # note" if comment else "") + brk for line, comment, brk in lines]
    text = "".join(parts)
    if parts and not last_break:
        text = text.rstrip("".join(_BREAKS))
    assert helpers.build_outcome(parse_quiver, text) == helpers.build_outcome(helpers.reference_parse, text)


def _long_declarations(seed=23, n=2000):
    """n vertices and 2n arrows as declaration lines, vertices and arrows
    interleaved at random, so that many arrows name a vertex declared on a
    later line."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in rng.sample(range(10 * n), n)]
    decls = [("vertex", v) for v in vertices]
    decls += [("arrow", f"a{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(2 * n)]
    rng.shuffle(decls)
    return decls


def _text(decls):
    return "".join(f"vertex {d[1]}\n" if d[0] == "vertex" else "arrow {}: {} -> {}\n".format(*d[1:])
                   for d in decls)


def _fields(q):
    return (q.vertices, q.arrows, q.out_arrows, list(q.vertex_index.items()), list(q.arrow_index.items()))


def test_parse_resolves_a_long_text_as_the_constructor_does():
    """On 2,000 vertices and 4,000 arrows the parser resolves the names over
    whole lists and gives the quiver the constructor builds from the same
    lists, index maps in declaration order alike; an arrow on the first
    line into the vertex on the last still parses."""
    decls = _long_declarations()
    first = next(d for d in decls if d[0] == "vertex")
    decls.remove(first)
    decls = [("arrow", "first", first[1], first[1]), *decls, first]
    vertices = [d[1] for d in decls if d[0] == "vertex"]
    arrows = [d[1:] for d in decls if d[0] == "arrow"]
    q = parse_quiver(_text(decls))
    assert (len(vertices), len(arrows)) == (2000, 4001)
    assert _fields(q) == _fields(Quiver(vertices, arrows))
    assert q.arrows[0] == ("first", 1999, 1999)


@pytest.mark.parametrize("case", ["duplicate vertex", "duplicate arrow", "undeclared tail", "undeclared head",
                                  "no vertex"])
def test_parse_names_the_line_of_a_name_error_in_a_long_text(case):
    """Each error that only names can cause, on 6,000 declarations: the
    message and line of the line-by-line reference, which names the first
    bad declaration in order."""
    decls = _long_declarations()
    vertex = [d for d in decls if d[0] == "vertex"][1500]
    arrow = [d for d in decls if d[0] == "arrow"][1500]
    late = max(decls.index(vertex), decls.index(arrow)) + 1  # after both first declarations
    if case == "duplicate vertex":
        decls.insert(late, vertex)
        message = f"duplicate vertex id {vertex[1]!r}"
    elif case == "duplicate arrow":
        decls.insert(late, ("arrow", arrow[1], vertex[1], vertex[1]))
        message = f"duplicate arrow id {arrow[1]!r}"
    elif case == "undeclared tail":
        decls.insert(late, ("arrow", "z", "w", vertex[1]))
        message = "arrow 'z' uses undeclared vertex 'w'"
    elif case == "undeclared head":
        decls.insert(late, ("arrow", "z", vertex[1], "w"))
        message = "arrow 'z' uses undeclared vertex 'w'"
    else:
        decls = [d for d in decls if d[0] == "arrow"]
        late, arrow = 0, decls[0]
        message = f"arrow {arrow[1]!r} uses undeclared vertex {arrow[2]!r}"
    text = _text(decls)
    with pytest.raises(QuiverError) as exc:
        parse_quiver(text)
    assert str(exc.value) == f"line {late + 1}: {message}" and exc.value.decl is None
    assert helpers.build_outcome(parse_quiver, text) == helpers.build_outcome(helpers.reference_parse, text)


def test_scc_component_is_an_immutable_record():
    c = SccComponent(("x", "y", "z"), True, True)
    assert (c.vertices, c.has_cycle, c.is_simple_cycle) == (("x", "y", "z"), True, True)
    assert SccComponent._fields == ("vertices", "has_cycle", "is_simple_cycle")
    assert repr(c) == "SccComponent(vertices=('x', 'y', 'z'), has_cycle=True, is_simple_cycle=True)"
    assert c == SccComponent(("x", "y", "z"), True, True) and c != SccComponent(("x", "y", "z"), True, False)
    assert hash(c) == hash((("x", "y", "z"), True, True))  # as the frozen dataclass hashed
    with pytest.raises(AttributeError):
        c.has_cycle = False
    assert sccs(helpers.three_cycle()).components == (c,)


def test_constructor_rejects_bad_ids():
    with pytest.raises(QuiverError):
        Quiver(["x y"])
    with pytest.raises(QuiverError):
        Quiver(["x"], [("a-b", "x", "x")])
    with pytest.raises(QuiverError):
        Quiver([])


def test_sccs_loop():
    part = sccs(helpers.loop())
    assert len(part.components) == 1
    c = part.components[0]
    assert c.has_cycle and c.is_simple_cycle


def test_sccs_triangle_with_chord():
    part = sccs(helpers.triangle_chord())
    assert len(part.components) == 1
    c = part.components[0]
    assert c.vertices == ("x", "y", "z")
    assert c.has_cycle and not c.is_simple_cycle  # 4 internal arrows, 3 vertices


def test_sccs_a2():
    q = helpers.a2()
    part = sccs(q)
    assert len(part.components) == 2
    assert all(not c.has_cycle for c in part.components)
    assert part.component_of["y"] < part.component_of["x"]  # successors first


def test_length_profile_a3():
    q = helpers.a_line(3)
    prof = length_profile(q)
    assert prof == {"v1": (0, 2), "v2": (1, 1), "v3": (2, 0)}


def test_length_profile_loop():
    assert length_profile(helpers.loop()) == {"x": (INF, INF)}


def test_length_profile_isolated():
    assert length_profile(helpers.isolated()) == {"x": (0, 0)}


def test_analysis_is_computed_once_and_read_only():
    q = helpers.loop_with_tail()
    prof, part = length_profile(q), sccs(q)
    assert length_profile(q) == prof and sccs(q) == part
    expected = dict(prof)
    with pytest.raises(TypeError):
        prof["x"] = (0, 0)
    with pytest.raises(TypeError):
        part.component_of["x"] = 7
    assert length_profile(q) == expected
    assert sccs(q).component_of == sccs(helpers.loop_with_tail()).component_of


def test_analysis_cache_is_not_part_of_the_quiver():
    analysed, fresh = helpers.loop_with_tail(), helpers.loop_with_tail()
    length_profile(analysed)
    assert analysed == fresh and hash(analysed) == hash(fresh)
    assert repr(analysed) == repr(fresh)
    for twin in (copy.deepcopy(analysed), pickle.loads(pickle.dumps(analysed))):
        assert twin == analysed
        assert length_profile(twin) == length_profile(analysed)


def _assert_profile_matches_enumeration(q):
    bound = 2 * q.n
    ins, outs = helpers.in_out_length_sets(q, bound)
    for x, (lm, lp) in length_profile(q).items():
        xi = q.vertex_index[x]
        if lm == INF:
            assert set(range(bound + 1)) <= ins[xi]
        else:
            assert lm == max(ins[xi])
        if lp == INF:
            assert set(range(bound + 1)) <= outs[xi]
        else:
            assert lp == max(outs[xi])


def test_length_profile_matches_enumeration():
    for q in helpers.suite(60, max_vertices=6, max_arrows=8):
        _assert_profile_matches_enumeration(q)


def test_length_profile_carries_inf_along_acyclic_chains():
    # chains of two and three acyclic vertices lead into and out of a
    # two-cycle, declared out of order, beside a chain that meets no cycle
    q = Quiver(
        ["s2", "p1", "c1", "s1", "r1", "p2", "c2", "r2", "s3"],
        [("a", "p1", "p2"), ("b", "p2", "c1"), ("c", "c1", "c2"), ("d", "c2", "c1"),
         ("e", "c2", "s1"), ("f", "s1", "s2"), ("g", "s2", "s3"), ("h", "r1", "r2"),
         ("i", "p1", "r2")],
    )
    assert length_profile(q) == {
        "s2": (INF, 1), "p1": (0, INF), "c1": (INF, INF), "s1": (INF, 2), "r1": (0, 1),
        "p2": (1, INF), "c2": (INF, INF), "r2": (1, 0), "s3": (INF, 0),
    }
    _assert_profile_matches_enumeration(q)


def test_suffix_realizability():
    # every length up to l- is realized by some path into the vertex
    for q in helpers.suite(60, max_vertices=6, max_arrows=8):
        bound = 2 * q.n
        ins, _ = helpers.in_out_length_sets(q, bound)
        for x, (lm, _) in length_profile(q).items():
            top = int(min(lm, bound))
            assert set(range(top + 1)) <= ins[q.vertex_index[x]]


def test_simple_cycle_flag_matches_enumeration():
    for q in helpers.suite(60):
        part = sccs(q)
        out = helpers.out_arrow_ids(q)
        for comp in part.components:
            members = {q.vertex_index[v] for v in comp.vertices}
            no_branch = all(
                sum(1 for ai in out[v] if q.arrows[ai].head in members) < 2
                for v in members
            )
            for v in comp.vertices:
                cycles = helpers.naive_first_return(q, q.vertex_index[v], q.n)
                assert comp.is_simple_cycle == (len(cycles) == 1 and no_branch)


@st.composite
def digraphs(draw):
    """Successor lists of a digraph of up to 7 nodes: self-loops, parallel
    edges and isolated nodes included."""
    n = draw(st.integers(0, 7))
    succ = [[] for _ in range(n)]
    if n:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=12)):
            succ[i].append(j)
    return succ


def _level_sets(n, steps):
    """The most edges of a walk ending at each node, found by stepping the
    set of walk ends: INF where a walk of n edges ends (it repeats a node,
    so it runs round a cycle), otherwise the largest k <= n with a walk of
    k edges ending there."""
    longest, ends = [0] * n, set(range(n))
    for k in range(1, n + 1):
        ends = {j for i, j in steps if i in ends}
        for j in ends:
            longest[j] = k
    return [INF if k == n else k for k in longest]


def _profile_per_node(out):
    """``analyse_graph``'s (l-, l+) of each node, read through ``comp_of``."""
    comp_of, _, _, lminus, lplus = analyse_graph(out)
    return [(lminus[c], lplus[c]) for c in comp_of]


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_longest_walks_matches_brute_force(succ):
    """The reference in ``helpers`` against the stepped walk ends."""
    steps = [(i, j) for i, nexts in enumerate(succ) for j in nexts]
    assert helpers.longest_walks(succ) == _level_sets(len(succ), steps)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_analyse_graph_matches_brute_force(succ):
    """On graphs that are not quivers (bare nodes, successor lists), each
    node's l- and l+ equal the stepped walk ends along the edges and
    against them."""
    steps = [(i, j) for i, nexts in enumerate(succ) for j in nexts]
    n = len(succ)
    assert _profile_per_node(succ) == list(zip(_level_sets(n, steps), _level_sets(n, [(j, i) for i, j in steps])))


def test_analyse_graph_by_hand():
    def lminus(succ):
        return [lm for lm, _ in _profile_per_node(succ)]

    assert lminus([]) == []
    assert lminus([[]]) == [0]
    assert lminus([[0]]) == [INF]
    assert lminus([[1, 1], [2], []]) == [0, 1, 2]  # parallel edges
    assert lminus([[1], [0], [3], [], [2]]) == [INF, INF, 1, 2, 0]
    assert lminus([[], [1, 2], []]) == [0, INF, INF]


def _reach_closure(q):
    """``reach[v]``: the vertices a path of length >= 0 from v ends at, by
    Warshall's closure of the arrows."""
    reach = [{v} for v in range(q.n)]
    for _, t, h in q.arrows:
        reach[t].add(h)
    for k in range(q.n):
        for r in reach:
            if k in r:
                r |= reach[k]
    return reach


def test_analysis_matches_independent_references():
    """Components, cycle flags, component order and the l-/l+ profile of
    500 seeded random quivers (up to 8 vertices and 14 arrows, self-loops
    and parallel arrows included) against brute-force references, asking
    for the components first on every other quiver and for the profile
    first on the rest."""
    rng = random.Random(20261020)
    loops = parallels = 0
    for i in range(500):
        q = helpers.random_quiver(rng, max_vertices=8, max_arrows=14)
        if i % 2:
            length_profile(q)
        part, prof = sccs(q), length_profile(q)
        ends = [(t, h) for _, t, h in q.arrows]
        loops += any(t == h for t, h in ends)
        parallels += len(set(ends)) < len(ends)
        reach = _reach_closure(q)
        classes = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(q.n)}
        assert sorted(tuple(sorted(c)) for c in classes) == sorted(
            tuple(map(q.vertex_index.__getitem__, comp.vertices)) for comp in part.components)
        for c, comp in enumerate(part.components):
            assert all(part.component_of[v] == c for v in comp.vertices)
            members = set(map(q.vertex_index.__getitem__, comp.vertices))
            internal = sum(t in members and h in members for t, h in ends)
            assert comp.has_cycle == (internal > 0)
            assert comp.is_simple_cycle == (internal == len(members))
        names = q.vertices
        for t, h in ends:  # every successor component precedes its predecessors
            assert part.component_of[names[h]] <= part.component_of[names[t]]
            assert (part.component_of[names[h]] == part.component_of[names[t]]) == (t in reach[h])
        lminus, lplus = _level_sets(q.n, ends), _level_sets(q.n, [(h, t) for t, h in ends])
        assert dict(prof) == dict(zip(names, zip(lminus, lplus)))
    assert loops > 100 and parallels > 100


def _large_quiver(rng, n=2000):
    """An acyclic part feeding a strongly connected core with chords that
    feeds a second acyclic part, beside an acyclic part of its own, with
    vertices declared in shuffled order."""
    ids = [f"x{i}" for i in range(n)]
    up, core, down, alone = ids[:n // 4], ids[n // 4:n // 2], ids[n // 2:3 * n // 4], ids[3 * n // 4:]
    pairs = list(zip(core, core[1:] + core[:1]))
    pairs += zip(rng.choices(core, k=len(core)), rng.choices(core, k=len(core)))
    for part in (up, down, alone):
        pairs += [(part[i], part[min(len(part) - 1, i + rng.randint(1, 8))])
                  for i in range(len(part) - 1) for _ in range(2)]
    pairs += zip(rng.choices(up, k=20), rng.choices(core, k=20))
    pairs += zip(rng.choices(core, k=20), rng.choices(down, k=20))
    rng.shuffle(ids)
    rng.shuffle(pairs)
    return Quiver(ids, [(f"e{j}", t, h) for j, (t, h) in enumerate(pairs)])


def test_length_profile_is_longest_walks_both_ways_on_large_quivers():
    """The profile read off the components equals ``helpers.longest_walks``
    on the arrows (l-) and on the reversed arrows (l+)."""
    rng = random.Random(7)
    for _ in range(3):
        q = _large_quiver(rng)
        succ, pred = [[] for _ in range(q.n)], [[] for _ in range(q.n)]
        for _, t, h in q.arrows:
            succ[t].append(h)
            pred[h].append(t)
        prof = length_profile(q)
        assert prof == dict(zip(q.vertices, zip(helpers.longest_walks(succ), helpers.longest_walks(pred))))
        assert {lm == INF for lm, _ in prof.values()} == {True, False}
        assert {lp == INF for _, lp in prof.values()} == {True, False}
        assert max(lm for lm, _ in prof.values() if lm != INF) > 50
