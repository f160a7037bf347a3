"""Tests of the benchmark's reference computations, on the sample quivers in
``quivers/`` and values worked out by hand.

Run with ``python3 -m pytest perfbench``.
"""

import os

import pytest

import reference
import workloads

QUIVERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "quivers")


def load(name):
    with open(os.path.join(QUIVERS, name + ".quiver"), encoding="utf-8") as fh:
        return reference.parse_quiver(fh.read())


def test_parse_sample():
    assert load("loop_with_tail") == (
        ["x", "y", "z"], [("l", "x", "x"), ("a", "x", "y"), ("b", "y", "z")]
    )


@pytest.mark.parametrize(
    "name, N, total",
    [
        ("loop", 5, 5),
        ("twoloops", 4, 4),
        ("kronecker", 1, 2),
        ("kronecker", 5, 2),
        ("a3", 2, 4),  # line closed form: 1 + N(s + 1 - N) - 1 with s = 3
        ("a3", 5, 3),
        ("loop_with_tail", 5, 8),  # x: 5, y: min(l+ + 1, N) = 2, z: 1
    ],
)
def test_truncated_dims(name, N, total):
    assert sum(reference.truncated_dims(load(name), N).values()) == total


def test_analysis_loop_with_tail():
    comp, commutative, l_minus, l_plus = reference.analysis(load("loop_with_tail"))
    inf = reference.INF
    assert l_minus == [inf, inf, inf]
    assert l_plus == [inf, 1, 0]
    assert commutative == [True, True, True]
    assert comp[0] < comp[1] < comp[2]  # arrows lead to higher numbers


def test_analysis_a3():
    comp, _, l_minus, l_plus = reference.analysis(load("a3"))
    assert l_minus == [0, 1, 2]
    assert l_plus == [2, 1, 0]
    assert len(set(comp)) == 3


def test_components_group_a_cycle():
    q = (["p", "q", "r", "s"], [("a", "p", "q"), ("b", "q", "r"), ("c", "r", "p"), ("d", "r", "s")])
    comp, commutative, l_minus, l_plus = reference.analysis(q)
    assert comp[0] == comp[1] == comp[2] < comp[3]
    assert commutative == [True] * 4  # a simple cycle
    assert l_plus[3] == 0 and l_minus[3] == reference.INF


def test_analyze_report_loop_with_tail():
    vertices, totals, _ = reference.analyze_report(load("loop_with_tail"), 5)
    assert vertices["x"] == {"l_minus": "inf", "l_plus": "inf", "commutative": True, "K": [0, 4], "d": 5}
    assert vertices["y"] == {"l_minus": "inf", "l_plus": 1, "commutative": True, "K": [3, 4], "d": 2}
    assert vertices["z"] == {"l_minus": "inf", "l_plus": 0, "commutative": True, "K": [4, 4], "d": 1}
    assert totals == {"effdim_path": 3, "effdim_truncated": 8, "a": 1, "b": 3, "threshold": 3}


def test_analyze_report_twoloops_is_noncommutative():
    vertices, totals, _ = reference.analyze_report(load("twoloops"), 3)
    assert vertices["x"]["commutative"] is False
    assert totals["effdim_path"] == 2


@pytest.mark.parametrize(
    "name, L, counts",
    [
        ("loop", 3, [1, 1, 1, 1]),
        ("twoloops", 3, [1, 2, 4, 8]),
        ("kronecker", 2, [2, 2, 0]),
        ("a3", 3, [3, 2, 1, 0]),
        ("loop_with_tail", 3, [3, 3, 3, 3]),  # l^k, a l^(k-1), b a l^(k-2)
    ],
)
def test_path_counts(name, L, counts):
    assert reference.path_counts(load(name), L) == counts


def test_primes():
    assert reference.primes(0) == []
    assert reference.primes(1) == [2]
    assert reference.primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert reference.primes(1000)[-1] == 7919
    assert len(reference.primes(6000)) == 6000


def test_window_and_d():
    inf = reference.INF
    assert reference.window(inf, 1, 5) == [3, 4]
    assert reference.window(0, 0, 2) is None
    assert reference.d_value(0, 0, 2) == 1
    assert reference.d_value(inf, inf, 7) == 7


def test_suite_is_the_acceptance_suite(monkeypatch):
    root = os.path.dirname(QUIVERS)
    monkeypatch.syspath_prepend(os.path.join(root, "src"))
    monkeypatch.syspath_prepend(os.path.join(root, "tests"))
    helpers = pytest.importorskip("helpers")
    suite = workloads.base_suite()
    assert len(suite) == 200
    for (vertices, arrows), q in zip(suite, helpers.suite(200)):
        assert tuple(vertices) == q.vertices
        assert [(a.name, q.vertices[a.tail], q.vertices[a.head]) for a in q.arrows] == arrows


def test_relabel_keeps_path_counts():
    base = workloads.base_suite()
    for q, r in zip(base[:50], workloads.suite(7)[:50]):
        assert reference.path_counts(q, 6) == reference.path_counts(r, 6)
        assert sorted(reference.truncated_dims(q, 3).values()) == sorted(
            reference.truncated_dims(r, 3).values()
        )
