import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings

import helpers
from pathrep.dimension import effdim_path, effdim_truncated
from pathrep.oracle import verify_truncated
from pathrep.paths import make_path, trivial
from pathrep.polyring import MultiPoly, PolyMatrix
from pathrep.quiver import Quiver
from pathrep.repbuild import (
    GradedRep,
    SymbolicRep,
    _prime_limit,
    allocate_primes,
    build_path_rep,
    build_truncated_rep,
    corner_entry,
    loop_matrices,
    rep_of_path,
)


def _var(i):
    return MultiPoly.variable(i)


def test_build_path_rep_single_loop():
    rep = build_path_rep(helpers.loop())
    assert rep.dims == {"x": 1}
    m = rep.matrices["a"]
    assert (m.rows, m.cols) == (1, 1)
    assert m.entry(0, 0) == _var(0)  # tau(a)


def test_build_path_rep_two_loops():
    rep = build_path_rep(helpers.two_loops())
    assert rep.dims == {"x": 2}
    ra, rb = rep.matrices["a"], rep.matrices["b"]
    assert ra.entry(0, 0) == _var(0) and ra.entry(0, 1) == _var(1)
    assert ra.entry(1, 0).is_zero and ra.entry(1, 1) == _var(2)
    assert rb.entry(0, 0) == _var(3) and rb.entry(1, 1) == _var(5)


def test_build_path_rep_templates():
    # x carries two loops (doubled); w, y, z stay one-dimensional
    q = Quiver(
        ["x", "y", "z", "w"],
        [
            ("a", "x", "x"),
            ("b", "x", "x"),
            ("c", "x", "y"),  # doubled -> plain: 1x2 row (tau zeta)
            ("d", "w", "x"),  # plain -> doubled: 2x1 column (tau; zeta)
            ("e", "y", "z"),  # plain -> plain: 1x1 (tau)
        ],
    )
    rep = build_path_rep(q)
    assert rep.dims == {"x": 2, "y": 1, "z": 1, "w": 1}
    c = rep.matrices["c"]
    assert (c.rows, c.cols) == (1, 2)
    assert c.entry(0, 0) == _var(6) and c.entry(0, 1) == _var(8)
    d = rep.matrices["d"]
    assert (d.rows, d.cols) == (2, 1)
    assert d.entry(0, 0) == _var(9) and d.entry(1, 0) == _var(11)
    e = rep.matrices["e"]
    assert (e.rows, e.cols) == (1, 1)
    assert e.entry(0, 0) == _var(12)


def test_symbolic_total_dim_matches_formula():
    for q in helpers.suite(150):
        assert build_path_rep(q).total_dim == effdim_path(q)


def test_allocate_primes():
    assert allocate_primes(helpers.loop(), 2) == {("a", 0): 2, ("a", 1): 3}
    assert allocate_primes(helpers.two_loops(), 1) == {("a", 0): 2, ("b", 0): 3}
    assert list(allocate_primes(helpers.loop(), 4).values()) == [2, 3, 5, 7]


def test_primes_match_a_sieve():
    limit = 230_000  # past the 20,000th prime, 224,737
    composite = bytearray(limit)
    sieve = []
    for c in range(2, limit):
        if not composite[c]:
            sieve.append(c)
            composite[c * c :: c] = b"\x01" * len(range(c * c, limit, c))
    assert list(allocate_primes(helpers.loop(), 20_000).values()) == sieve[:20_000]


def test_primes_across_the_small_limit():
    # below six primes the sieve uses a fixed limit, from six on Rosser's bound
    first = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    for count in range(1, len(first) + 1):
        assert list(allocate_primes(helpers.loop(), count).values()) == first[:count]
    q = Quiver(["x"], [(f"a{i}", "x", "x") for i in range(7)])
    for N in (1, 2):
        assert list(allocate_primes(q, N).values()) == first[:7 * N]
    primes = list(allocate_primes(helpers.loop(), 20_000).values())  # checked against a sieve above
    for n in range(1, 20_001):
        assert _prime_limit(n) > primes[n - 1]


def test_symbolic_truncated_identities_equal_polynomial_identities():
    for q in helpers.suite(20):
        rep = build_truncated_rep(q, 3, labels="symbolic")
        for v in q.vertices:
            image = rep_of_path(rep, trivial(q, v))
            size = rep.dims[v]
            old = tuple(
                tuple(MultiPoly.const(1) if i == j else MultiPoly.zero() for j in range(size))
                for i in range(size)
            )
            assert image == old and hash(image) == hash(old)


def test_build_truncated_a2():
    rep = build_truncated_rep(helpers.a2(), 2)
    assert rep.dims == {"x": 1, "y": 1}
    assert rep.grades == {"x": (0,), "y": (1,)}
    assert rep.matrices["a"] == ((2,),)


def test_build_truncated_loop_shift():
    rep = build_truncated_rep(helpers.loop(), 3)
    assert rep.dims == {"x": 3}
    assert rep.grades == {"x": (2, 1, 0)}
    # descending grade basis: strictly upper shift with the grade labels
    assert rep.matrices["a"] == ((0, 3, 0), (0, 0, 2), (0, 0, 0))
    cube = rep_of_path(rep, make_path(helpers.loop(), ["a", "a", "a"]))
    assert not any(map(any, cube))


def test_build_truncated_isolated():
    rep = build_truncated_rep(helpers.isolated(), 4)
    assert rep.dims == {"x": 1}
    assert rep.grades == {"x": None}
    assert rep_of_path(rep, trivial(helpers.isolated(), "x")) == ((1,),)


def test_build_truncated_level_one_kills_arrows():
    rep = build_truncated_rep(helpers.a2(), 1)
    assert rep.dims == {"x": 1, "y": 1}
    assert rep.matrices["a"] == ((0,),)


def test_rep_of_path_identity_and_zero():
    q = helpers.two_loops()
    rep = build_path_rep(q)
    assert rep_of_path(rep, trivial(q, "x")) == PolyMatrix.identity(2)
    from pathrep.paths import ZERO

    assert rep_of_path(rep, ZERO) is None


def test_rep_of_path_multiplies_in_composition_order():
    q = helpers.two_loops()
    rep = build_path_rep(q)
    word = make_path(q, ["a", "b"])  # walk a first, then b
    assert rep_of_path(rep, word) == rep.matrices["b"] @ rep.matrices["a"]


def test_graded_rep_of_arrow():
    rep = build_truncated_rep(helpers.a2(), 2)
    assert rep_of_path(rep, make_path(helpers.a2(), ["a"])) == ((2,),)


def test_corner_entry_single_letter():
    assert corner_entry("a") == _var(1)  # eta(a)


def test_corner_entry_two_letters():
    # letters sorted: a -> 0,1,2 and b -> 3,4,5
    expected = _var(0) * _var(4) + _var(1) * _var(5)  # tau(a)eta(b) + eta(a)zeta(b)
    assert corner_entry("ab") == expected


def test_corner_entry_repeated_letter():
    expected = _var(0) * _var(1) + _var(1) * _var(2)
    assert corner_entry("aa") == expected


def test_corner_entry_runs_no_polynomial_arithmetic(monkeypatch):
    """Criterion 7 checks the closed form against ``@`` products, so the
    closed form must share none of their ``MultiPoly`` sums and products."""
    def refuse(*args):
        raise AssertionError("corner_entry ran MultiPoly arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    entry = corner_entry("abca", "abc")
    monkeypatch.undo()
    mats = loop_matrices("abc")
    assert entry == (mats["a"] @ mats["b"] @ mats["c"] @ mats["a"]).entry(0, 1)


def test_corner_entry_rejects_empty():
    with pytest.raises(ValueError):
        corner_entry("")


def test_corner_entry_matches_products_small():
    letters = "ab"
    mats = loop_matrices(letters)
    for length in range(1, 6):
        for word in itertools.product(letters, repeat=length):
            product = mats[word[0]]
            for letter in word[1:]:
                product = product @ mats[letter]
            assert corner_entry(word, letters) == product.entry(0, 1)


def test_distinct_words_have_distinct_matrices():
    letters = "ab"
    mats = loop_matrices(letters)
    seen = set()
    count = 0
    for length in range(1, 7):
        for word in itertools.product(letters, repeat=length):
            product = mats[word[0]]
            for letter in word[1:]:
                product = product @ mats[letter]
            seen.add(product.key())
            count += 1
    assert len(seen) == count == 2 + 4 + 8 + 16 + 32 + 64


def test_symbolic_homogeneity_suite():
    for q in helpers.suite(40):
        helpers.check_symbolic_homogeneity(q, bound=4)


def test_grade_structure_suite():
    for q in helpers.suite(60):
        for N in (1, 2, 3, 4):
            helpers.check_grade_structure(q, N)


def test_graded_total_dim_matches_formula():
    for q in helpers.suite(200):
        for N in (1, 2, 3, 4):
            rep = build_truncated_rep(q, N)
            assert rep.total_dim == effdim_truncated(q, N)
            assert all(1 <= d <= N for d in rep.dims.values())


def test_symbolic_label_variant_is_effective():
    for q in (helpers.loop(), helpers.a_line(3), helpers.kronecker(), helpers.triangle_chord()):
        for N in (1, 2, 3):
            rep = build_truncated_rep(q, N, labels="symbolic")
            assert rep.label_kind == "symbolic"
            assert verify_truncated(rep, q, N).ok


def test_symbolic_rep_json_roundtrip():
    rep = build_path_rep(helpers.triangle_chord())
    data = rep.to_json()
    assert data["kind"] == "path"
    assert SymbolicRep.from_json(data) == rep


def test_graded_rep_json_roundtrip():
    rep = build_truncated_rep(helpers.loop_with_tail(), 3)
    data = rep.to_json()
    assert data["kind"] == "truncated"
    assert data["labels"] == "primes"
    assert GradedRep.from_json(data) == rep


def test_graded_rep_json_roundtrip_symbolic_labels():
    rep = build_truncated_rep(helpers.kronecker(), 2, labels="symbolic")
    data = rep.to_json()
    assert "label_table" in data and "label_variables" in data
    assert GradedRep.from_json(data) == rep


def test_built_label_tables_fit_their_reps():
    """Every built truncated rep of the suite loads back from its JSON, and
    so does each with an arrow zeroed or given another arrow's matrix, a
    fault for ``verify`` to report; entries of 1 are no label, and
    ``from_json`` refuses them.  A row must name an arrow of the rep at a
    grade below N."""
    for q in helpers.suite(60):
        for N in range(1, 5):
            for labels in ("primes", "symbolic"):
                rep = GradedRep.from_json(build_truncated_rep(q, N, labels=labels).to_json())
                for name, variant in helpers.truncated_variants(rep):
                    if name != "ones":
                        assert GradedRep.from_json(variant.to_json()) == variant
                    elif any(map(any, itertools.chain(*rep.matrices.values()))):
                        with pytest.raises(ValueError, match="lacks a label that an arrow matrix holds"):
                            GradedRep.from_json(variant.to_json())
    rep = build_truncated_rep(helpers.loop(), 3)
    for key in (("a", 3), ("a", -1), ("b", 0)):
        with pytest.raises(ValueError, match="'prime_table' has a row for no arrow at a grade below N"):
            GradedRep.from_json(replace(rep, labels={**rep.labels, key: 7}).to_json())


def _without(data, field):
    return {k: v for k, v in data.items() if k != field}


@pytest.mark.parametrize("field", ["vertex_dims", "variables", "arrows"])
def test_symbolic_rep_from_json_names_missing_field(field):
    data = build_path_rep(helpers.kronecker()).to_json()
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        SymbolicRep.from_json(_without(data, field))


@pytest.mark.parametrize(
    "field", ["labels", "truncation", "vertex_dims", "basis_labels", "arrows", "prime_table"]
)
def test_graded_rep_from_json_names_missing_field(field):
    data = build_truncated_rep(helpers.kronecker(), 2).to_json()
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        GradedRep.from_json(_without(data, field))


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(truncation=0), "'truncation'"),
    (lambda d: d.update(vertex_dims={"x": 0, "y": 1}), "'vertex_dims'"),
    (lambda d: d.update(basis_labels={"x": "1", "y": None}), "'basis_labels'"),
    pytest.param(lambda d: d["basis_labels"].pop("y"), "'basis_labels'",
                 id="basis_labels-missing-vertex"),
    pytest.param(lambda d: d["basis_labels"].update(z=None), "'basis_labels'",
                 id="basis_labels-extra-vertex"),
    pytest.param(lambda d: d["basis_labels"].update(x=[]), "'basis_labels'",
                 id="basis_labels-empty-list"),
    pytest.param(lambda d: d["basis_labels"].update(x=[0, 1]), "'basis_labels'",
                 id="basis_labels-longer-than-dim"),
    pytest.param(lambda d: d.update(vertex_dims={"x": 2, "y": 1},
                                    basis_labels={"x": None, "y": [1]}),
                 "'basis_labels'", id="basis_labels-null-above-dim-1"),
    (lambda d: d.update(prime_table=[[1]]), "'prime_table'"),
    (lambda d: d["arrows"][0].update(matrix=[[None]]), r"arrows\[0\] field 'matrix'"),
    (lambda d: d["arrows"][1].update(id=7), r"arrows\[1\] field 'id'"),
])
def test_graded_rep_from_json_names_ill_typed_field(mutate, message):
    data = build_truncated_rep(helpers.kronecker(), 2).to_json()
    mutate(data)
    with pytest.raises(ValueError, match=message):
        GradedRep.from_json(data)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(truncation=True), "'truncation'"),
    (lambda d: d.update(vertex_dims={"x": True, "y": 1}), "'vertex_dims'"),
    (lambda d: d.update(basis_labels={"x": [0.0], "y": None}), "'basis_labels'"),
    (lambda d: d["prime_table"][0].__setitem__(2, 2.0), "'prime_table'"),
    (lambda d: d["prime_table"][0].__setitem__(1, False), "'prime_table'"),
    (lambda d: d["arrows"][0].update(matrix=[[2.9]]), r"arrows\[0\] field 'matrix'"),
    (lambda d: d["arrows"][0].update(matrix=[[True]]), r"arrows\[0\] field 'matrix'"),
])
def test_graded_rep_from_json_rejects_non_integer_numbers(mutate, message):
    data = build_truncated_rep(helpers.kronecker(), 2).to_json()
    mutate(data)
    with pytest.raises(ValueError, match=message):
        GradedRep.from_json(data)


@pytest.mark.parametrize("cls", [SymbolicRep, GradedRep])
@given(value=helpers.REP_JSON)
@settings(max_examples=60, deadline=None)
def test_from_json_gives_a_rep_or_a_value_error(cls, value):
    try:
        rep = cls.from_json(value)
    except ValueError:
        return
    assert isinstance(rep, cls)
