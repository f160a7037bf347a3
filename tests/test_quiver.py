import copy
import pickle

import pytest

import helpers
from pathrep.quiver import INF, Quiver, QuiverError, length_profile, parse_quiver, sccs


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
    assert repr(analysed) == repr(fresh) and analysed.to_json() == fresh.to_json()
    for twin in (copy.deepcopy(analysed), pickle.loads(pickle.dumps(analysed))):
        assert twin == analysed
        assert length_profile(twin) == length_profile(analysed)


def test_quiver_json():
    q = helpers.kronecker()
    data = q.to_json()
    assert data["vertices"] == ["x", "y"]
    assert data["arrows"] == [
        {"id": "a", "tail": "x", "head": "y"},
        {"id": "b", "tail": "x", "head": "y"},
    ]


def test_scc_json():
    data = sccs(helpers.a2()).to_json()
    assert set(data) == {"components", "condensation"}
    assert all(
        set(c) == {"vertices", "has_cycle", "is_simple_cycle"}
        for c in data["components"]
    )


def test_length_profile_matches_enumeration():
    for q in helpers.suite(60, max_vertices=6, max_arrows=8):
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
