"""End-to-end acceptance checks, one test per criterion, all exact.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.
"""

import itertools
from contextlib import contextmanager

import helpers
from pathrep.dimension import (
    classify_path,
    effdim_path,
    effdim_truncated,
    line_quiver_effdim,
    stabilization,
)
from pathrep.oracle import exhaustive_lower_bound_f2, verify_path_rep, verify_truncated
from pathrep.repbuild import build_path_rep, build_truncated_rep, corner_entry, loop_matrices


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_fully_cyclic_truncated_dimension():
    with criterion("1 fully-cyclic quivers give N*n"):
        cases = [helpers.loop(), helpers.three_cycle(), helpers.triangle_chord()]
        for q in cases:
            for N in range(1, 7):
                assert effdim_truncated(q, N) == N * q.n


def test_criterion_2_line_quiver_closed_form():
    with criterion("2 line-quiver closed form"):
        assert line_quiver_effdim([5], 3) == 9
        assert effdim_truncated(helpers.a_line(5), 3) == 9
        for nv in range(2, 7):
            for dirs in itertools.product([True, False], repeat=nv - 1):
                q = helpers.line_quiver(dirs)
                segments = helpers.segments_of(dirs)
                for N in range(1, 8):
                    assert effdim_truncated(q, N) == line_quiver_effdim(segments, N)


def test_criterion_3_path_rep_desk_scale():
    with criterion("3 path-semigroup construction effective on the 200-quiver suite"):
        for q in helpers.suite(200):
            rep = build_path_rep(q)
            assert rep.total_dim == len(classify_path(q).noncommutative) + q.n
            assert rep.total_dim == effdim_path(q)
            assert verify_path_rep(rep, q, max_len=2 * q.n + 2).ok


def test_criterion_4_truncated_rep_desk_scale():
    with criterion("4 truncated construction effective on the 200-quiver suite"):
        for q in helpers.suite(200):
            for N in (1, 2, 3, 4):
                rep = build_truncated_rep(q, N)
                assert rep.total_dim == effdim_truncated(q, N)
                assert verify_truncated(rep, q, N).ok


def test_criterion_5_f2_lower_bounds():
    with criterion("5 exhaustive lower bounds over the two-element field"):
        a2 = helpers.a2()
        assert exhaustive_lower_bound_f2(a2, 2, effdim_truncated(a2, 2) - 1) is False
        assert exhaustive_lower_bound_f2(a2, 2, effdim_truncated(a2, 2)) is True
        lp = helpers.loop()
        assert exhaustive_lower_bound_f2(lp, 2, effdim_truncated(lp, 2) - 1) is False
        a3 = helpers.a_line(3)
        assert exhaustive_lower_bound_f2(a3, 2, effdim_truncated(a3, 2) - 1) is False
        # Every in-guard search of the suite at the formula and one below it:
        # none below is faithful, and over F2 only 195 of 215 at it are.
        at, below = [], []
        for q in helpers.suite(200):
            for N in (1, 2, 3):
                formula = effdim_truncated(q, N)
                for d, found in ((formula, at), (formula - 1, below)):
                    if q.n <= d <= 4 and len(q.arrows) * d * d <= 20:
                        found.append(exhaustive_lower_bound_f2(q, N, d))
        assert (len(below), below.count(True)) == (73, 0)
        assert (len(at), at.count(True)) == (215, 195)


def test_criterion_6_affine_stabilization():
    with criterion("6 affine stabilization from the threshold"):
        for q in helpers.suite(200):
            st = stabilization(q)
            for N in range(q.n, q.n + 6):
                assert effdim_truncated(q, N) == st.a * N + st.b
        a3 = helpers.a_line(3)
        st = stabilization(a3)
        assert effdim_truncated(a3, 2) == 4
        assert st.a * 2 + st.b == 3  # not affine below the threshold


def test_criterion_7_corner_entry_closed_form():
    with criterion("7 corner-entry closed form and word injectivity"):
        letters3 = "abc"
        mats3 = loop_matrices(letters3)
        level = {(): None}
        for length in range(1, 9):
            nxt = {}
            for word, mat in level.items():
                for letter in letters3:
                    m = mats3[letter] if mat is None else mat @ mats3[letter]
                    nxt[word + (letter,)] = m
            for word, mat in nxt.items():
                assert corner_entry(word, letters3) == mat.entry(0, 1)
            level = nxt

        letters2 = "ab"
        mats2 = loop_matrices(letters2)
        seen = set()
        count = 0
        level = {(): None}
        for length in range(1, 7):
            nxt = {}
            for word, mat in level.items():
                for letter in letters2:
                    m = mats2[letter] if mat is None else mat @ mats2[letter]
                    nxt[word + (letter,)] = m
            for mat in nxt.values():
                seen.add(mat.key())
                count += 1
            level = nxt
        assert len(seen) == count == 126


def test_criterion_8_property_suites():
    with criterion("8 standalone property suites"):
        for q in helpers.suite(40):
            helpers.check_freeness(q)
        for q in helpers.suite(80):
            helpers.check_k_windows(q, max_N=6)
        for q in helpers.suite(40):
            helpers.check_symbolic_homogeneity(q, bound=4)
        for q in helpers.suite(200):
            helpers.check_filtration(q, levels=(1, 2, 3, 4))
