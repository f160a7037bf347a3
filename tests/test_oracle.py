import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pathrep import oracle
from pathrep.dimension import effdim_path, effdim_truncated
from pathrep.oracle import (
    exhaustive_lower_bound_f2,
    verify_filtration,
    verify_path_rep,
    verify_truncated,
)
from pathrep.cli import main
from pathrep.polyring import MultiPoly, PolyMatrix, Variable, identity, mat_mul
from pathrep.quiver import Quiver
from pathrep.repbuild import build_path_rep, build_truncated_rep


def test_verify_truncated_a2():
    q = helpers.a2()
    result = verify_truncated(build_truncated_rep(q, 2), q, 2)
    assert result.ok
    assert result.checked == 4  # z, e(x), e(y), a
    assert result.max_length == 1
    assert result.witness is None


def test_verify_truncated_detects_label_collision():
    q = helpers.kronecker()
    rep = build_truncated_rep(q, 2)
    mats = dict(rep.matrices)
    mats["b"] = mats["a"]  # same prime on both parallel arrows
    sabotaged = replace(rep, matrices=mats)
    result = verify_truncated(sabotaged, q, 2)
    assert result.status == "collision"
    assert result.witness == ("a", "b")


def test_verify_truncated_loop_relation():
    q = helpers.loop()
    result = verify_truncated(build_truncated_rep(q, 3), q, 3)
    assert result.ok
    assert result.checked == 4  # z, e(x), a, a*a


def test_verify_truncated_detects_broken_relation():
    q = helpers.loop()
    rep = build_truncated_rep(q, 2)
    # a non-nilpotent substitute: distinct from identity and zero, but its
    # square survives the truncation
    sabotaged = replace(rep, matrices={"a": ((0, 1), (1, 0))})
    result = verify_truncated(sabotaged, q, 2)
    assert result.status == "relation_violation"
    assert result.witness == ("a*a",)


def test_verify_truncated_detects_zero_action():
    q = helpers.a2()
    rep = build_truncated_rep(q, 2)
    sabotaged = replace(rep, matrices={"a": ((0,),)})
    result = verify_truncated(sabotaged, q, 2)
    assert result.status == "zero_action"
    assert result.witness == ("a",)


def test_verify_truncated_rejects_mismatch():
    rep = build_truncated_rep(helpers.a2(), 2)
    with pytest.raises(ValueError):
        verify_truncated(rep, helpers.loop(), 2)
    with pytest.raises(ValueError):
        verify_truncated(rep, helpers.a2(), 3)


def _dense_verify_truncated(rep, q, N):
    """The dense reference for ``verify_truncated``: the same walk and
    checks, but every image a whole matrix and every step one exact
    ``mat_mul`` over tuples of rows."""
    mats = list(rep.matrices.values())
    return oracle._check_truncated(
        q, N, lambda v: identity(rep.dims[q.vertices[v]]), lambda ai, m: mat_mul(mats[ai], m)
    )


def test_verify_truncated_matches_dense_on_all_ones_matrices():
    statuses = set()
    for q in helpers.suite(40):
        for N in (1, 2, 3):
            for labels in ("primes", "symbolic"):
                rep = build_truncated_rep(q, N, labels=labels)
                ones = replace(rep, matrices={
                    name: tuple(tuple(1 for _ in row) for row in m)
                    for name, m in rep.matrices.items()
                })
                expected = _dense_verify_truncated(ones, q, N)
                assert verify_truncated(ones, q, N) == expected
                statuses.add(expected.status)
    assert {"effective", "collision", "relation_violation"} <= statuses


@pytest.mark.parametrize("one", [1, MultiPoly.variable(0)], ids=["int", "poly"])
def test_verify_truncated_drops_cancelling_sums(one):
    # b = [1, -1] acting on the column a = [1, 1]: every product is nonzero,
    # but their sum, the image of b*a, is zero
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z")])
    rep = replace(
        build_truncated_rep(q, 3),
        dims={"x": 1, "y": 2, "z": 1},
        matrices={"a": ((one,), (one,)), "b": ((one, one * -1),)},
    )
    expected = oracle.VerifyReport("zero_action", 7, 2, ("b*a",))
    assert _dense_verify_truncated(rep, q, 3) == expected
    assert verify_truncated(rep, q, 3) == expected


def test_verify_truncated_images_do_not_depend_on_summing_order():
    # b swaps the two rows of the column a = [1, 1], c keeps them, so b*a
    # and c*a are equal although their sums visit the rows in opposite order
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z"), ("c", "y", "z")])
    rep = replace(
        build_truncated_rep(q, 3),
        dims={"x": 1, "y": 2, "z": 2},
        matrices={"a": ((1,), (1,)), "b": ((0, 1), (1, 0)), "c": ((1, 0), (0, 1))},
    )
    expected = oracle.VerifyReport("collision", 9, 2, ("b*a", "c*a"))
    assert _dense_verify_truncated(rep, q, 3) == expected
    assert verify_truncated(rep, q, 3) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_truncated_matches_dense_on_small_entries(data):
    q = data.draw(st.sampled_from(helpers.suite(60)))
    N = data.draw(st.integers(1, 3))
    rep = build_truncated_rep(q, N)
    mats = {}
    for name, m in rep.matrices.items():
        rows, cols = len(m), len(m[0])
        flat = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=rows * cols,
                                  max_size=rows * cols))
        mats[name] = tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))
    rep = replace(rep, matrices=mats)
    assert verify_truncated(rep, q, N) == _dense_verify_truncated(rep, q, N)


def test_verify_path_rep_two_loops():
    q = helpers.two_loops()
    result = verify_path_rep(build_path_rep(q), q, 4)
    assert result.ok
    assert result.checked == 32  # z, e(x), and 2+4+8+16 words
    assert result.max_length == 4


def test_verify_path_rep_single_loop_long():
    q = helpers.loop()
    result = verify_path_rep(build_path_rep(q), q, 10)
    assert result.ok and result.checked == 12


def test_verify_path_rep_acyclic():
    q = helpers.a_line(3)
    assert verify_path_rep(build_path_rep(q), q, 5).ok


def test_verify_path_rep_default_bound():
    q = helpers.kronecker()
    result = verify_path_rep(build_path_rep(q), q)
    assert result.ok and result.max_length == 2 * q.n + 2


def test_verify_path_rep_detects_collision():
    q = helpers.kronecker()
    rep = build_path_rep(q)
    mats = dict(rep.matrices)
    mats["b"] = mats["a"]
    result = verify_path_rep(replace(rep, matrices=mats), q, 4)
    assert result.status == "collision"
    assert result.witness == ("a", "b")


@pytest.mark.parametrize("kind", ["path", "primes", "symbolic"])
def test_identity_loop_collides_with_the_trivial_path(kind):
    """A loop acting as the identity repeats the image of e(x).  The walk's
    trivial paths all carry the one empty arrow tuple, so the collision
    must not be told by which arrow tuple the first path had."""
    q = helpers.loop()
    if kind == "path":
        rep = build_path_rep(q)
        loop = replace(rep, matrices={"a": PolyMatrix(identity(rep.dims["x"]))})
        assert verify_path_rep(loop, q) == oracle.VerifyReport("collision", 3, 4, ("e(x)", "a"))
    else:
        rep = build_truncated_rep(q, 3, labels=kind)
        one = PolyMatrix(identity(3)) if kind == "symbolic" else identity(3)
        loop = replace(rep, matrices={"a": one})
        assert verify_truncated(loop, q, 3) == oracle.VerifyReport("collision", 3, 2, ("e(x)", "a"))


def _counting(monkeypatch, name):
    """Count the calls of ``oracle.<name>``."""
    calls = [0]
    original = getattr(oracle, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_a_fault_stops_the_walk(monkeypatch):
    """When the first arrow in walk order acts as zero, the check returns
    there and steps no other path of its level: one step per pass."""
    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y"), ("c", "x", "y")])
    truncated = build_truncated_rep(q, 2)
    zero_a = replace(truncated, matrices={**truncated.matrices, "a": ((0,),)})
    steps = _counting(monkeypatch, "_map_columns")
    assert verify_truncated(zero_a, q, 2) == oracle.VerifyReport("zero_action", 4, 1, ("a",))
    assert steps == [1]
    path = build_path_rep(q)
    zero_a = replace(path, matrices={**path.matrices, "a": PolyMatrix([[0]])})
    probes, exact = _counting(monkeypatch, "_mul_mod"), _counting(monkeypatch, "_map_columns")
    assert verify_path_rep(zero_a, q) == oracle.VerifyReport("zero_action", 4, 6, ("a",))
    assert (probes, exact) == ([1], [1])


def test_f2_search_steps_no_more_than_whole_levels(monkeypatch):
    """The search abandons an assignment at its first fault: on A3 with
    total dimension 3 it makes 7 products, fewer than the 9 of a walk that
    steps each level to its end."""
    products = _counting(monkeypatch, "_mul_mod")
    assert exhaustive_lower_bound_f2(helpers.a_line(3), 2, 3) is False
    assert products == [7]


def _unfaithful_variants(rep, victim):
    """One arrow zeroed, two arrows of one shape given the same matrix, and
    every nonzero entry replaced by 1."""
    mats = rep.matrices
    m = mats[victim]
    yield replace(rep, matrices={**mats, victim: PolyMatrix([[0] * m.cols] * m.rows)})
    for a, b in itertools.combinations(mats, 2):
        if (mats[a].rows, mats[a].cols) == (mats[b].rows, mats[b].cols):
            yield replace(rep, matrices={**mats, b: mats[a]})
            break
    yield replace(rep, matrices={
        name: PolyMatrix([[int(not e.is_zero) for e in row] for row in m])
        for name, m in mats.items()
    })


def test_verify_path_rep_exact_fallback(monkeypatch):
    # With every variable at 0 each fingerprint is constant, so polynomial
    # images all clash or vanish and the exact images decide every report.
    # Walks of more than 500 elements would then cost seconds each.
    cases = []
    for i, q in enumerate(helpers.suite(200)):
        rep = build_path_rep(q)
        reps = [rep]
        if q.arrows:
            reps += _unfaithful_variants(rep, q.arrows[i % len(q.arrows)].name)
        for r in reps:
            report = verify_path_rep(r, q)
            if report.checked <= 500:
                cases.append((r, q, report))
    assert {report.status for _, _, report in cases} == {"effective", "zero_action", "collision"}
    monkeypatch.setattr(oracle, "_point", lambda index: 0)
    for rep, q, expected in cases:
        assert verify_path_rep(rep, q) == expected


def test_verify_path_rep_takes_one_point_per_variable(monkeypatch):
    """One check calls ``_point`` once per distinct variable index of the
    arrow matrices, plus once for r, however often a variable occurs."""
    q = helpers.two_loops()
    rep = build_path_rep(q)
    a, b = rep.matrices["a"], rep.matrices["b"]
    rep = replace(rep, matrices={"a": a @ b, "b": b @ a})  # every variable occurs twice
    indices = {v for m in rep.matrices.values() for row in m for e in row
               for mono in e.terms for v, _ in mono}
    calls = []
    original = oracle._point
    monkeypatch.setattr(oracle, "_point", lambda index: calls.append(index) or original(index))
    verify_path_rep(rep, q)
    assert sorted(calls) == sorted(indices | {len(rep.variables)})


def test_verify_path_rep_huge_variable_indices():
    q = helpers.triangle_chord()
    rep = build_path_rep(q)
    shift = 10**9

    def shifted(poly):
        return MultiPoly({
            tuple((v + shift, exp) for v, exp in mono): c for mono, c in poly.terms.items()
        })

    big = replace(
        rep,
        matrices={
            name: PolyMatrix([[shifted(e) for e in row] for row in m])
            for name, m in rep.matrices.items()
        },
        variables=tuple(Variable(v.arrow, v.kind, v.index + shift) for v in rep.variables),
    )
    assert verify_path_rep(big, q, 6) == verify_path_rep(rep, q, 6)


def test_verify_filtration_built_reps_pass():
    for q in helpers.suite(60):
        for N in (1, 2, 3):
            assert verify_filtration(build_truncated_rep(q, N), q).ok


def test_verify_filtration_loop_n2():
    q = helpers.loop()
    assert verify_filtration(build_truncated_rep(q, 2), q).ok


def test_verify_filtration_detects_grade_violation():
    q = helpers.loop()
    rep = build_truncated_rep(q, 2)
    # grades are (1, 0); this maps the grade-1 vector to grade 1 again
    sabotaged = replace(rep, matrices={"a": ((2, 0), (0, 0))})
    result = verify_filtration(sabotaged, q)
    assert result.status == "relation_violation"
    assert result.witness == ("a",)


def test_exhaustive_lower_bound_a2():
    q = helpers.a2()
    assert exhaustive_lower_bound_f2(q, 2, 1) is False
    assert exhaustive_lower_bound_f2(q, 2, 2) is True


def test_exhaustive_lower_bound_loop():
    assert exhaustive_lower_bound_f2(helpers.loop(), 2, 1) is False


def test_exhaustive_lower_bound_a3():
    assert exhaustive_lower_bound_f2(helpers.a_line(3), 2, 3) is False


def test_exhaustive_lower_bound_guard():
    with pytest.raises(ValueError, match="bounds exceeded"):
        exhaustive_lower_bound_f2(helpers.a2(), 2, 5)
    wide = Quiver(["x"], [(f"a{i}", "x", "x") for i in range(6)])
    with pytest.raises(ValueError, match="bounds exceeded"):
        exhaustive_lower_bound_f2(wide, 2, 2)


def test_desk_scale_agreement_sample():
    for q in helpers.suite(30):
        rep = build_path_rep(q)
        assert rep.total_dim == effdim_path(q)
        assert verify_path_rep(rep, q, max_len=q.n + 2).ok
        for N in (1, 2, 3):
            grep = build_truncated_rep(q, N)
            assert grep.total_dim == effdim_truncated(q, N)
            assert verify_truncated(grep, q, N).ok


def _k4():
    vs = ["a", "b", "c", "d"]
    return Quiver(vs, [(t + h, t, h) for t in vs for h in vs])


def test_verify_budget_counts_what_the_walk_checks():
    """Counted before walking, the elements are exactly the ``checked`` of an
    effective report, for both kinds."""
    for q in helpers.suite():
        counted = 1 + sum(helpers.path_counts(q, 2 * q.n + 2))
        assert verify_path_rep(build_path_rep(q), q).checked == counted
        for N in (1, 2, 3):
            counted = 1 + sum(helpers.path_counts(q, N - 1))
            assert verify_truncated(build_truncated_rep(q, N), q, N).checked == counted


def test_verify_budget_refuses_k4_without_walking(tmp_path, monkeypatch, capsys):
    """K4 with all 16 arrows has 5,592,404 paths up to length 2n+2 = 10; with
    the zero element that is above the budget, so ``verify`` exits 2 before
    any path is built.  Up to length 9 it has 1,398,101 elements, which fit."""
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(oracle, "walk", no_walk)
    q = _k4()
    path = tmp_path / "k4.quiver"
    path.write_text("".join(f"vertex {v}\n" for v in q.vertices) + "".join(
        f"arrow {a.name}: {q.vertices[a.tail]} -> {q.vertices[a.head]}\n" for a in q.arrows))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "5,592,405 elements" in err and "budget of 2,000,000" in err
    assert "the largest --max-len that fits is 9" in err
    assert main(["verify", str(path), "--truncate", "11"]) == 2
    err = capsys.readouterr().err
    assert "5,592,405 elements" in err and "--max-len" not in err
    with pytest.raises(AssertionError, match="walked"):  # length 9 passes the budget
        verify_path_rep(build_path_rep(q), q, max_len=9)
    with pytest.raises(ValueError, match="5,592,405 elements by length 10 alone"):
        verify_path_rep(build_path_rep(q), q, max_len=10**9)
    assert oracle.VERIFY_BUDGET == 2_000_000


def test_verify_budget_skips_repeating_counts():
    """Per-vertex counts that repeat an earlier level's repeat from there on,
    so a huge bound over a quiver with one cycle is refused, or passed,
    without counting level by level."""
    loop, cycle = helpers.loop(), helpers.three_cycle()
    with pytest.raises(ValueError) as refused:
        oracle._check_budget(loop, 10**18, "--max-len")
    assert str(refused.value) == (
        "verifying paths up to length 1000000000000000000 checks 2,000,001 elements by "
        "length 1999999 alone, above the budget of 2,000,000; the largest --max-len that "
        "fits is 1999998")
    oracle._check_budget(loop, 1_999_998, "--max-len")
    with pytest.raises(ValueError) as refused:
        oracle._check_budget(cycle, 10**7, "--max-len")
    assert str(refused.value) == (
        "verifying paths up to length 10000000 checks 2,000,002 elements by length 666666 "
        "alone, above the budget of 2,000,000; the largest --max-len that fits is 666665")


def test_verify_budget_skipping_matches_a_level_by_level_count(monkeypatch):
    """Under a budget of 500, bounded counts pass the budget within a few
    hundred levels, so counting every level is a cheap reference for the
    periods that ``_check_budget`` skips; the cycle with a tail has
    per-vertex counts of period 2."""
    monkeypatch.setattr(oracle, "VERIFY_BUDGET", 500)
    tail_cycle = Quiver(["x", "y", "z"], [("t", "x", "y"), ("b", "y", "z"), ("c", "z", "y")])
    quivers = helpers.suite() + [helpers.loop(), helpers.three_cycle(), tail_cycle]
    for q in quivers:
        for max_len in (0, 1, 2, 7, 100, 165, 498, 499, 500, 10**9):
            total, passed = 1, None
            for length, count in enumerate(helpers.path_counts(q, max_len)):
                total += count
                if total > 500:
                    passed = length
                    break
            if passed is None:
                oracle._check_budget(q, max_len, "--max-len")
                continue
            with pytest.raises(ValueError) as refused:
                oracle._check_budget(q, max_len, "--max-len")
            message = str(refused.value)
            assert f"checks {total:,} elements" in message
            assert (f"by length {passed} alone" in message) == (passed < max_len)
            assert (f"fits is {passed - 1}" in message) == (passed > 1)


def test_verify_budget_refuses_a_huge_truncation_in_a_rep_file(tmp_path, capsys):
    q = helpers.loop()
    data = build_truncated_rep(q, 3).to_json()
    data["truncation"] = 10**18
    (tmp_path / "loop.quiver").write_text("vertex x\narrow a: x -> x\n")
    (tmp_path / "loop.json").write_text(json.dumps(data))
    argv = ["verify", str(tmp_path / "loop.quiver"), "--rep", str(tmp_path / "loop.json")]
    assert main(argv) == 2
    assert "2,000,001 elements by length 1999999 alone" in capsys.readouterr().err


def test_verify_path_rep_fingerprint_pass_decides_effective_reps(monkeypatch):
    """A clean fingerprint pass is exact, so an effective rep never needs the
    exact pass, whose product is made to fail here."""
    def no_exact_product(*args):
        raise AssertionError("exact pass ran")

    monkeypatch.setattr(oracle, "_map_columns", no_exact_product)
    for q in helpers.suite(200):
        assert verify_path_rep(build_path_rep(q), q).status == "effective"
