import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrep.polyring import (
    KINDS,
    MultiPoly,
    PolyMatrix,
    Variable,
    identity,
    mat_mul,
    variable_table,
)

TAU_A = MultiPoly.variable(0)
ETA_A = MultiPoly.variable(1)
ZETA_A = MultiPoly.variable(2)
TAU_B = MultiPoly.variable(3)
ZETA_B = MultiPoly.variable(5)


def test_variable_table_indexing():
    table = variable_table(["a", "b"])
    assert table[("a", "tau")] == Variable("a", "tau", 0)
    assert table[("a", "zeta")].index == 2
    assert table[("b", "eta")].index == 4
    assert [v.name for v in table.values()] == [
        "tau(a)", "eta(a)", "zeta(a)", "tau(b)", "eta(b)", "zeta(b)",
    ]


def test_add_zero():
    assert TAU_A + MultiPoly.zero() == TAU_A


def test_add_cancellation():
    assert (TAU_A + (-1) * TAU_A).is_zero


def test_add_collects_terms():
    assert (TAU_A + ETA_A) + TAU_A == 2 * TAU_A + ETA_A


def test_mul_monomials():
    p = TAU_A * ZETA_B
    assert p.terms == {((0, 1), (5, 1)): 1}


def test_mul_difference_of_squares():
    assert (TAU_A + ETA_A) * (TAU_A + ETA_A * -1) == TAU_A * TAU_A + ETA_A * ETA_A * -1


def test_mul_by_zero():
    p = 3 * TAU_A + ETA_A
    assert (p * MultiPoly.zero()).is_zero


@pytest.mark.parametrize("c", [0, 1, -1, 7, 2**70])
def test_constant_hashes_as_its_integer(c):
    assert MultiPoly.const(c) == c
    assert hash(MultiPoly.const(c)) == hash(c)


def test_int_and_constant_keys_are_interchangeable():
    table = {(1, 0): "int", (MultiPoly.const(7), MultiPoly.zero()): "poly"}
    assert table.get((MultiPoly.const(1), MultiPoly.zero())) == "int"
    assert table.get((7, 0)) == "poly"
    assert {MultiPoly.const(1), 1, MultiPoly.zero(), 0} == {0, 1}
    # non-constant polynomials keep their structural hash
    assert hash(TAU_A + 1) == hash(1 + TAU_A) != hash(1)


def test_identity_serves_both_rings():
    one, zero = MultiPoly.const(1), MultiPoly.zero()
    assert identity(2) == ((1, 0), (0, 1)) == ((one, zero), (zero, one))
    assert hash(identity(2)) == hash(((one, zero), (zero, one)))
    assert PolyMatrix(identity(2)) == PolyMatrix.identity(2)
    rows = ((TAU_A, ETA_A), (zero, ZETA_A))
    assert mat_mul(identity(2), rows) == rows == mat_mul(rows, identity(2))


def test_poly_matrix_is_its_rows():
    m = PolyMatrix([[TAU_A, 0], [1, ZETA_A]])
    assert m == ((TAU_A, MultiPoly.zero()), (MultiPoly.const(1), ZETA_A))
    assert all(isinstance(e, MultiPoly) for row in m for e in row)
    assert PolyMatrix.identity(2) == identity(2)
    assert hash(PolyMatrix.identity(2)) == hash(identity(2))
    assert mat_mul(m, PolyMatrix.identity(2)) == m == mat_mul(identity(2), m)
    assert mat_mul(m, m) == m @ m


@pytest.mark.parametrize("rows", [[], [[]], [[TAU_A], []], [[TAU_A, ETA_A], [ZETA_A]]])
def test_poly_matrix_rejects_empty_and_ragged_rows(rows):
    with pytest.raises(ValueError):
        PolyMatrix(rows)
    with pytest.raises(ValueError):
        PolyMatrix.from_json([[e.to_json() for e in row] for row in rows])


def test_matmul_identity():
    m = PolyMatrix([[TAU_A, ETA_A], [MultiPoly.zero(), ZETA_A]])
    assert PolyMatrix.identity(2) @ m == m
    assert m @ PolyMatrix.identity(2) == m


def test_matmul_square_of_triangular():
    m = PolyMatrix([[TAU_A, ETA_A], [MultiPoly.zero(), ZETA_A]])
    sq = m @ m
    assert sq.entry(0, 0) == TAU_A * TAU_A
    assert sq.entry(0, 1) == TAU_A * ETA_A + ETA_A * ZETA_A
    assert sq.entry(1, 0).is_zero
    assert sq.entry(1, 1) == ZETA_A * ZETA_A


def test_matmul_shape_law():
    row = PolyMatrix([[TAU_A, ZETA_A]])
    col = PolyMatrix([[TAU_B], [ZETA_B]])
    prod = row @ col
    assert (prod.rows, prod.cols) == (1, 1)
    assert prod.entry(0, 0) == TAU_A * TAU_B + ZETA_A * ZETA_B


def test_matmul_dimension_mismatch():
    row = PolyMatrix([[TAU_A, ZETA_A]])
    with pytest.raises(ValueError):
        row @ row


def test_homogeneous_degree():
    assert (TAU_A * ZETA_B + ETA_A * ETA_A).homogeneous_degree() == 2
    assert (TAU_A + TAU_A * TAU_B).homogeneous_degree() is None
    zero = MultiPoly.zero()
    assert zero.homogeneous_degree() is None and zero.is_zero
    assert MultiPoly.const(5).homogeneous_degree() == 0


def test_poly_json_roundtrip():
    p = 3 * TAU_A * TAU_A + (2**70) * ETA_A + ZETA_B * -1
    data = p.to_json()
    assert all(isinstance(t["coeff"], str) for t in data)
    assert MultiPoly.from_json(data) == p


def test_matrix_json_roundtrip():
    m = PolyMatrix([[TAU_A, ETA_A], [MultiPoly.zero(), ZETA_A]])
    assert PolyMatrix.from_json(m.to_json()) == m


monomials = st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
coefficients = st.integers(min_value=-(2**80), max_value=2**80)
polys = st.dictionaries(monomials, coefficients, max_size=8).map(MultiPoly)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_bigint_coefficients_exact():
    p = MultiPoly.const(2**70 + 1)
    assert (p * p).terms[()] == (2**70 + 1) ** 2


def _lowest_homogeneous_part(p):
    if p.is_zero:
        return None
    degree = min(sum(e for _, e in m) for m in p.terms)
    return MultiPoly(
        {m: c for m, c in p.terms.items() if sum(e for _, e in m) == degree}
    )


@given(polys, polys)
def test_homogeneity_multiplicative(p, q):
    hp = _lowest_homogeneous_part(p)
    hq = _lowest_homogeneous_part(q)
    if hp is None or hq is None:
        return
    product = hp * hq
    assert product.homogeneous_degree() == hp.homogeneous_degree() + hq.homogeneous_degree()


MERSENNE_61 = (1 << 61) - 1


@given(polys, polys, st.integers(0, 2**64))
@settings(max_examples=60)
def test_evaluate_is_a_ring_homomorphism(p, q, seed):
    def point(v):
        return (seed + 7919 * v) % MERSENNE_61

    def value(f):
        return f.evaluate(point, MERSENNE_61)

    assert value(p + q) == (value(p) + value(q)) % MERSENNE_61
    assert value(p * q) == value(p) * value(q) % MERSENNE_61
    assert value(MultiPoly.zero()) == 0


def test_matrix_evaluate_commutes_with_products():
    a = PolyMatrix([[TAU_A, ETA_A], [MultiPoly.zero(), ZETA_A]])
    b = PolyMatrix([[TAU_B], [ZETA_B]])

    def point(v):
        return 10**9 + v

    def value(m):
        return m.evaluate(point, MERSENNE_61)

    product = [
        [sum(x * y for x, y in zip(row, col)) % MERSENNE_61 for col in zip(*value(b))]
        for row in value(a)
    ]
    assert [list(row) for row in value(a @ b)] == product
    assert value(PolyMatrix.identity(2)) == ((1, 0), (0, 1))


@pytest.mark.parametrize("data", [
    [{"coeff": "1"}],
    [{"coeff": "1", "exps": [[0, 1], [0, 2]]}],
    [{"coeff": "1", "exps": [[0, 0]]}],
    [{"coeff": "1", "exps": [[-1, 1]]}],
    [{"coeff": "x", "exps": []}],
    [7],
    7,
])
def test_poly_from_json_rejects_malformed(data):
    with pytest.raises(ValueError, match="polynomial"):
        MultiPoly.from_json(data)


@pytest.mark.parametrize("data", [
    [{"coeff": 1.5, "exps": []}],
    [{"coeff": True, "exps": []}],
    [{"coeff": "1", "exps": [[0, 1.0]]}],
    [{"coeff": "1", "exps": [[0.0, 1]]}],
    [{"coeff": "1", "exps": [[0, True]]}],
])
def test_poly_from_json_rejects_non_integer_numbers(data):
    with pytest.raises(ValueError, match="polynomial"):
        MultiPoly.from_json(data)
