import itertools
import json
import random

import pytest

import helpers
from pathrep.cli import _analysis_json
from pathrep.dimension import (
    analysis,
    d_value,
    effdim_path,
    effdim_table,
    effdim_truncated,
    line_quiver_effdim,
    stabilization,
)
from pathrep.quiver import INF, Quiver, component_arrays


def _windows(q, N):
    """``({id: window}, {id: d})`` at level N, by ``analysis``'s rows."""
    comp_of, rows, _ = analysis(q, N)
    return ({x: rows[c][3] for x, c in zip(q.vertices, comp_of)},
            {x: rows[c][4] for x, c in zip(q.vertices, comp_of)})


def test_classify_two_loops():
    noncommutative, commutative = helpers.commutative_split(helpers.two_loops())
    assert noncommutative == ("x",)
    assert commutative == ()


def test_classify_acyclic():
    noncommutative, commutative = helpers.commutative_split(helpers.a_line(3))
    assert noncommutative == ()
    assert commutative == ("v1", "v2", "v3")


def test_classify_triangle_chord():
    noncommutative, _ = helpers.commutative_split(helpers.triangle_chord())
    assert noncommutative == ("x", "y", "z")


def test_effdim_path_examples():
    assert effdim_path(helpers.loop()) == 1
    assert effdim_path(helpers.two_loops()) == 2
    assert effdim_path(helpers.kronecker()) == 2


def test_k_profile_a3():
    window, d = _windows(helpers.a_line(3), 2)
    assert window == {"v1": (0, 0), "v2": (0, 1), "v3": (1, 1)}
    assert d == {"v1": 1, "v2": 2, "v3": 1}


def test_k_profile_isolated():
    window, d = _windows(helpers.isolated(), 3)
    assert window == {"x": None}
    assert d == {"x": 1}


def test_k_profile_loop():
    window, d = _windows(helpers.loop(), 4)
    assert window == {"x": (0, 3)}
    assert d == {"x": 4}


def test_d_value_examples():
    assert d_value(INF, INF, 7) == 7
    assert d_value(1, 1, 2) == 2
    assert d_value(0, 0, 5) == 1
    with pytest.raises(ValueError):
        d_value(0, 0, 0)


def test_effdim_truncated_examples():
    assert effdim_truncated(helpers.loop(), 5) == 5
    three_loops = Quiver(
        ["x", "y", "z"],
        [("lx", "x", "x"), ("ly", "y", "y"), ("lz", "z", "z"), ("a", "x", "y")],
    )
    assert effdim_truncated(three_loops, 4) == 12
    assert effdim_truncated(helpers.a_line(5), 3) == 9


def test_stabilization_examples():
    st = stabilization(helpers.loop())
    assert (st.a, st.b, st.threshold) == (1, 0, 1)
    st = stabilization(helpers.a_line(3))
    assert (st.a, st.b, st.threshold) == (0, 3, 3)
    st = stabilization(helpers.loop_with_tail())
    assert (st.a, st.b, st.threshold) == (1, 3, 3)


def test_line_quiver_effdim_examples():
    assert line_quiver_effdim([3], 2) == 4
    assert line_quiver_effdim([2], 2) == 2
    assert line_quiver_effdim([2, 2], 2) == 3
    assert line_quiver_effdim([1], 3) == 1


def test_line_quiver_effdim_validation():
    with pytest.raises(ValueError):
        line_quiver_effdim([], 2)
    with pytest.raises(ValueError):
        line_quiver_effdim([3], 0)
    with pytest.raises(ValueError):
        line_quiver_effdim([2, 1], 2)


def test_k_windows_match_direct_definition():
    for q in helpers.suite(80):
        helpers.check_k_windows(q, max_N=6)


def test_d_value_matches_window_size():
    for q in helpers.suite(120):
        comp_of, _, _, lminus, lplus = component_arrays(q)
        for N in range(1, 7):
            windows, _ = _windows(q, N)
            for x, c in zip(q.vertices, comp_of):
                lm, lp = lminus[c], lplus[c]
                w = windows[x]
                size = 1 if w is None else w[1] - w[0] + 1
                assert d_value(lm, lp, N) == size


def test_d_value_monotone_and_bounded():
    values = list(range(7)) + [INF]
    for N in range(1, 8):
        for lm, lp in itertools.product(values, repeat=2):
            d = d_value(lm, lp, N)
            assert 1 <= d <= N
            for lm2 in values:
                if lm2 >= lm:
                    assert d_value(lm2, lp, N) >= d
            for lp2 in values:
                if lp2 >= lp:
                    assert d_value(lm, lp2, N) >= d


def test_levels_beyond_the_floats():
    """INF - N would make N a float, which fails above 1.8e308."""
    N = 10**400
    q = helpers.loop_with_tail()
    assert _windows(q, N)[0] == {"x": (0, N - 1), "y": (N - 2, N - 1), "z": (N - 1, N - 1)}
    assert effdim_truncated(q, N) == N + 3
    assert [d_value(lm, lp, N) for lm, lp in ((INF, INF), (INF, 1), (0, INF), (2, 3))] == [N, 2, 1, 1]


def test_stabilization_exact_from_threshold():
    for q in helpers.suite(150):
        st = stabilization(q)
        for N in range(q.n, q.n + 6):
            assert effdim_truncated(q, N) == st.a * N + st.b
    # below the threshold the dimension need not be affine
    a3 = helpers.a_line(3)
    st = stabilization(a3)
    assert effdim_truncated(a3, 2) == 4 != st.a * 2 + st.b


def test_effdim_table_matches_direct_sums():
    rng = random.Random(11)
    dags = []
    for n in (1, 2, 5, 30, 120, 300):
        vs = [f"v{i}" for i in range(n)]
        pairs = [sorted(rng.sample(range(n), 2)) for _ in range(2 * n)] if n > 1 else []
        dags.append(Quiver(vs, [(f"a{i}", vs[t], vs[h]) for i, (t, h) in enumerate(pairs)]))
    for q in [*helpers.suite(200), *dags]:
        direct = [effdim_truncated(q, N) for N in range(1, q.n + 4)]
        for last in (1, 2, q.n, q.n + 1, q.n + 3):
            assert effdim_table(q, last) == direct[:last]


def test_line_orientations_match_closed_form():
    for nv in range(2, 7):
        for dirs in itertools.product([True, False], repeat=nv - 1):
            q = helpers.line_quiver(dirs)
            segments = helpers.segments_of(dirs)
            for N in range(1, 8):
                assert effdim_truncated(q, N) == line_quiver_effdim(segments, N)


def test_fully_cyclic_quivers_scale_linearly():
    for q in helpers.suite(150):
        comp_of, _, internal, _, _ = component_arrays(q)
        if all(internal[c] for c in comp_of):
            for N in range(1, 6):
                assert effdim_truncated(q, N) == N * q.n


def test_report_schema():
    """The object ``analyze --json`` writes, through ``cli._analysis_json``."""
    q = helpers.loop_with_tail()
    data = json.loads(_analysis_json(q, *analysis(q, 3), truncated=True))
    assert set(data) == {"vertices", "totals"}
    vx = data["vertices"]["x"]
    assert vx["l_minus"] == "inf" and vx["l_plus"] == "inf"
    assert vx["K"] == [0, 2] and vx["d"] == 3
    vz = data["vertices"]["z"]
    assert vz["l_minus"] == "inf" and vz["l_plus"] == 0
    totals = data["totals"]
    assert totals["effdim_path"] == effdim_path(q)
    assert totals["effdim_truncated"] == effdim_truncated(q, 3)
    assert (totals["a"], totals["b"], totals["threshold"]) == (1, 3, 3)
    bare = json.loads(_analysis_json(q, *analysis(q), truncated=False))
    assert "effdim_truncated" not in bare["totals"]
    assert "K" not in bare["vertices"]["x"]
