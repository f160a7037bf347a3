import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pathrep.quiver import INF, Arrow, Quiver, QuiverError, length_profile, parse_quiver, sccs


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
    assert part.condensation == ()


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
    cx, cy = part.component_of["x"], part.component_of["y"]
    assert part.condensation == ((cx, cy),)


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
    assert length_profile(q) is prof and sccs(q) is part
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
        for comp in part.components:
            members = {q.vertex_index[v] for v in comp.vertices}
            no_branch = all(
                sum(1 for ai in q.out_arrows[v] if q.arrows[ai].head in members) < 2
                for v in members
            )
            for v in comp.vertices:
                cycles = helpers.naive_first_return(q, q.vertex_index[v], q.n)
                assert comp.is_simple_cycle == (len(cycles) == 1 and no_branch)
