import itertools
import random

import pytest

import helpers
from pathrep.dimension import (
    classify_path,
    d_value,
    effdim_path,
    effdim_table,
    effdim_truncated,
    k_profile,
    line_quiver_effdim,
    report,
    stabilization,
)
from pathrep.quiver import INF, Quiver, length_profile, sccs


def test_classify_two_loops():
    cls = classify_path(helpers.two_loops())
    assert cls.noncommutative == ("x",)
    assert cls.commutative == ()


def test_classify_acyclic():
    cls = classify_path(helpers.a_line(3))
    assert cls.noncommutative == ()
    assert cls.commutative == ("v1", "v2", "v3")


def test_classify_triangle_chord():
    cls = classify_path(helpers.triangle_chord())
    assert cls.noncommutative == ("x", "y", "z")


def test_effdim_path_examples():
    assert effdim_path(helpers.loop()) == 1
    assert effdim_path(helpers.two_loops()) == 2
    assert effdim_path(helpers.kronecker()) == 2


def test_k_profile_a3():
    kp = k_profile(helpers.a_line(3), 2)
    assert kp.window == {"v1": (0, 0), "v2": (0, 1), "v3": (1, 1)}
    assert kp.d == {"v1": 1, "v2": 2, "v3": 1}


def test_k_profile_isolated():
    kp = k_profile(helpers.isolated(), 3)
    assert kp.window == {"x": None}
    assert kp.d == {"x": 1}


def test_k_profile_loop():
    kp = k_profile(helpers.loop(), 4)
    assert kp.window == {"x": (0, 3)}
    assert kp.d == {"x": 4}


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
        prof = length_profile(q)
        for N in range(1, 7):
            kp = k_profile(q, N)
            for x in q.vertices:
                lm, lp = prof[x]
                w = kp.window[x]
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
    assert k_profile(q, N).window == {"x": (0, N - 1), "y": (N - 2, N - 1), "z": (N - 1, N - 1)}
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
        part = sccs(q)
        if all(part.components[part.component_of[x]].has_cycle for x in q.vertices):
            for N in range(1, 6):
                assert effdim_truncated(q, N) == N * q.n


def test_report_schema():
    q = helpers.loop_with_tail()
    data = report(q, 3)
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
    bare = report(q)
    assert "effdim_truncated" not in bare["totals"]
    assert "K" not in bare["vertices"]["x"]
