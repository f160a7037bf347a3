import itertools
import json
import operator
import random
import tracemalloc
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
from pathrep.repbuild import GradedRep, SymbolicRep, build_path_rep, build_truncated_rep


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


def _flat(rows) -> tuple:
    """A dense matrix as its entries row by row, an image in the form
    ``_check_truncated`` reads: zero exactly when no entry is truthy."""
    return tuple(itertools.chain.from_iterable(rows))


def _rows(flat, n: int) -> list:
    """The n rows of a matrix that ``_flat`` flattened."""
    width = len(flat) // n
    return [flat[i * width:(i + 1) * width] for i in range(n)]


def _dense_verify_truncated(rep, q, N):
    """The dense reference for ``verify_truncated``: the same walk and
    checks, but every image a whole matrix, flattened, and every step one
    exact ``mat_mul`` over its rows."""
    mats = list(rep.matrices.values())
    tails = [rep.dims[q.vertices[a.tail]] for a in q.arrows]
    return oracle._report(q, N, *oracle._check_truncated(
        q, N, lambda v: _flat(identity(rep.dims[q.vertices[v]])),
        lambda ai, m: _flat(mat_mul(mats[ai], _rows(m, tails[ai]))),
    ))


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


def test_verify_truncated_matches_dense_on_labels_a_grade_too_low():
    # a label one grade higher only loses an image (zero_action); one grade
    # lower lets a path of length N survive, the relation_violation path
    statuses = set()
    for q in helpers.suite(150):
        for N in (2, 3):
            for labels in ("primes", "symbolic"):
                for _, variant in helpers.label_moved_down(build_truncated_rep(q, N, labels=labels)):
                    expected = _dense_verify_truncated(variant, q, N)
                    assert verify_truncated(variant, q, N) == expected
                    statuses.add(expected.status)
    assert statuses == {"relation_violation"}


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


@pytest.mark.parametrize("one", [1, MultiPoly.variable(0)], ids=["int", "poly"])
def test_verify_truncated_relation_level_cancelling_to_zero(one, monkeypatch):
    # the same a and b at N = 2: b*a is the relation level, zero only by
    # cancellation, so supports prove nothing and the exact pass decides
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z")])
    rep = replace(
        build_truncated_rep(q, 2),
        dims={"x": 1, "y": 2, "z": 1},
        matrices={"a": ((one,), (one,)), "b": ((one, one * -1),)},
    )
    expected = oracle.VerifyReport("effective", 6, 1)
    assert _dense_verify_truncated(rep, q, 2) == expected
    exact = _counting(monkeypatch, "_check_exact")
    assert verify_truncated(rep, q, 2) == expected
    assert exact == [1]
    rows = [oracle._sparse(m) for m in rep.matrices.values()]
    assert not oracle._supports_vanish(q, 2, rep.dims.values(), rows)


def test_verify_truncated_decides_built_reps_without_the_exact_pass(monkeypatch):
    """Built reps pass the probe pass and the support proof, so the exact
    pass, whose product is made to fail here, never runs."""
    def no_exact_product(*args):
        raise AssertionError("exact pass ran")

    monkeypatch.setattr(oracle, "_map_rows", no_exact_product)
    for q in helpers.suite(60):
        for N in (1, 2, 3, 4):
            for labels in ("primes", "symbolic"):
                assert verify_truncated(build_truncated_rep(q, N, labels=labels), q, N).ok


def test_verify_truncated_memory_stays_with_the_probes():
    """The loop at N = 400 passes on the probes: the probe pass keeps the
    linear key of each path's probe and one level of probe columns, a peak
    of about 0.13 MB under ``tracemalloc``.  Its exact images, products of
    up to 400 primes in each column, are never built."""
    q = helpers.loop()
    rep = build_truncated_rep(q, 400)
    tracemalloc.start()
    try:
        assert verify_truncated(rep, q, 400) == oracle.VerifyReport("effective", 401, 399)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_verify_truncated_memory_stays_low_on_a_faulty_rep():
    """Zeroing the first label of the loop at N = 400 makes a^399 zero, so
    the exact walk runs to its last level.  Its store keeps each path's
    arrows and the hash of its image, and the walk two levels of images: a
    peak of about 1 MB under ``tracemalloc``.  Keeping every image would
    take about 27 MB."""
    q = helpers.loop()
    rep = build_truncated_rep(q, 400)
    m = [list(row) for row in rep.matrices["a"]]
    i, j = next((i, j) for i, row in enumerate(m) for j, e in enumerate(row) if e)
    m[i][j] = 0
    rep = replace(rep, matrices={"a": tuple(map(tuple, m))})
    tracemalloc.start()
    try:
        report = verify_truncated(rep, q, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.status, report.checked, report.witness) == ("zero_action", 401, ("*".join("a" * 399),))
    assert peak < 3_000_000


@pytest.mark.parametrize("values, status, witness", [
    ((2, 2 + oracle._P), "effective", None),
    ((2, 2), "collision", ("a", "b")),
    ((2, 2 + oracle._P, 2 + oracle._P), "collision", ("b", "c")),
], ids=["distinct", "equal", "equal_after_a_shared_hash"])
def test_exact_checks_compare_images_whose_hashes_agree(monkeypatch, values, status, witness):
    """Python hashes an integer mod 2^61 - 1, the probes' modulus, so
    parallel arrows [[2]] and [[2 + (2^61 - 1)]] clash in the probe pass
    and in the exact store's hashes: only the exact comparison tells them
    apart, and a third arrow equal to the second is then found by its image."""
    assert hash(values[0]) == hash(values[-1])
    names = "abc"[:len(values)]
    q = Quiver(["x", "y"], [(name, "x", "y") for name in names])
    path = replace(build_path_rep(q), dims={"x": 1, "y": 1},
                   matrices={name: PolyMatrix([[MultiPoly.const(v)]]) for name, v in zip(names, values)})
    truncated = replace(build_truncated_rep(q, 2), dims={"x": 1, "y": 1},
                        matrices={name: ((v,),) for name, v in zip(names, values)})
    exact = _counting(monkeypatch, "_check_truncated")
    checked = 3 + len(values)
    assert verify_path_rep(path, q) == oracle.VerifyReport(status, checked, 6, witness)
    assert verify_truncated(truncated, q, 2) == oracle.VerifyReport(status, checked, 1, witness)
    assert exact == [2]


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


def test_verify_truncated_widens_the_lanes_for_long_rows(monkeypatch):
    """Two parallel arrows a, b: x -> y and c: y -> z, with rows of 66 to 70
    nonzeros, past the 15 pairs that 128-bit lanes hold, so lanes widen to
    192 bits.  Blocks (x, y) and (x, z) hold two probes each, and (x, y)
    steps packed.  b is a with one more label, at column 0; zeroing c's
    label at row 0 then makes c*a and c*b collide.  Both reps agree with
    the dense reference."""
    rng = random.Random(7)
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "z")])
    a = [[rng.randint(1, 9) for _ in range(70)] for _ in range(66)]
    a[0][0] = 0
    b = [row[:] for row in a]
    b[0][0] = 5
    c = [rng.randint(1, 9) for _ in range(66)]
    rep = replace(build_truncated_rep(q, 3), dims={"x": 70, "y": 66, "z": 1},
                  matrices={"a": tuple(map(tuple, a)), "b": tuple(map(tuple, b)), "c": (tuple(c),)})
    rows = [oracle._sparse(m) for m in rep.matrices.values()]
    assert oracle._lane_width(rows, rep.dims.values()) == 192
    zeroed = replace(rep, matrices={**rep.matrices, "c": ((0, *c[1:]),)})
    for sample, status in [(rep, "effective"), (zeroed, "collision")]:
        packed = _counting(monkeypatch, "_mul_probes", lambda rows, n, *block: n > 1)
        expected = _dense_verify_truncated(sample, q, 3)
        assert expected.status == status
        assert verify_truncated(sample, q, 3) == expected
        assert packed == [1]


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
    # the probe pass stops at the first empty level, so a huge bound costs nothing
    expected = oracle.VerifyReport("effective", 7, 10**9)
    assert verify_path_rep(build_path_rep(q), q, 10**9) == expected


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


def _counting(monkeypatch, name, size=lambda *args: 1):
    """Count the calls of ``oracle.<name>``, each as ``size(*args)``."""
    calls = [0]
    original = getattr(oracle, name)

    def counted(*args):
        calls[0] += size(*args)
        return original(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_a_fault_stops_the_walk(monkeypatch):
    """When the first arrow in walk order acts as zero, the walk returns
    there and steps no other path of its level: one image per exact pass.
    The probe pass steps its level whole and no level past it: every arrow,
    and none of the three paths of length two through d."""
    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y"), ("c", "x", "y")])
    truncated = build_truncated_rep(q, 2)
    zero_a = replace(truncated, matrices={**truncated.matrices, "a": ((0,),)})
    steps = _counting(monkeypatch, "_map_rows")
    assert verify_truncated(zero_a, q, 2) == oracle.VerifyReport("zero_action", 4, 1, ("a",))
    assert steps == [1]
    longer = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "x", "y"), ("c", "x", "y"),
                                      ("d", "y", "z")])
    for q, expected, level_one in [(q, oracle.VerifyReport("zero_action", 4, 6, ("a",)), 3),
                                   (longer, oracle.VerifyReport("zero_action", 5, 8, ("a",)), 4)]:
        path = build_path_rep(q)
        zero_a = replace(path, matrices={**path.matrices, "a": PolyMatrix([[0]])})
        probes = _counting(monkeypatch, "_mul_probes", lambda rows, n, *block: n)
        exact = _counting(monkeypatch, "_map_rows")
        assert verify_path_rep(zero_a, q) == expected
        assert (probes, exact) == ([level_one], [1])


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["int", "poly"])
def test_map_rows_is_the_sparse_product(seed, kind):
    """One exact step, ``_map_rows`` on the sparse rows of a and m, is the
    sparse form of ``mat_mul(a, m)``, tuple for tuple.  Row 0 of a holds
    c and -c over two equal rows of m, so its product cancels to an empty
    row; random small entries cancel elsewhere too."""
    rng = random.Random(seed)
    x, y = MultiPoly.variable(0), MultiPoly.variable(1)
    values = [0, 0, 1, -1, 2] if kind == "int" else [0, 0, x, x * -1, y, x * y, MultiPoly.const(2)]
    rows, mid, cols = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 5)
    a = [[rng.choice(values) for _ in range(mid)] for _ in range(rows)]
    m = [[rng.choice(values) for _ in range(cols)] for _ in range(mid)]
    c = values[3]
    a[0] = [c, c * -1] + [0] * (mid - 2)
    m[1] = list(m[0])
    product = mat_mul(a, m)
    assert not any(product[0])
    assert oracle._map_rows(oracle._sparse(a), oracle._sparse(m)) == oracle._sparse(product)


def _sparse(a_rows, keep_zeros=False):
    """Dense rows as ``_mul_probes`` takes them: the ``(column, entry)``
    pairs of each row's nonzero entries, or of all of them."""
    return [tuple((k, e) for k, e in enumerate(row) if e or keep_zeros) for row in a_rows]


def _mat_mul_mod(a_rows, b_cols, modulus):
    """The columns of a @ b mod ``modulus``, by ``polyring.mat_mul``: the
    reference for the probe kernels, which keep a walk's images as columns."""
    return tuple(zip(*[[x % modulus for x in row] for row in mat_mul(a_rows, tuple(zip(*b_cols)))]))


def _pack(probes, width):
    """A block of probe columns as ``_mul_probes`` takes it: the columns
    themselves for one probe, else one integer per coordinate, with
    coordinate k of probe j in lane j of ``width`` bits."""
    if len(probes) == 1:
        return probes[0]
    return [sum(x << width * j for j, x in enumerate(column)) for column in zip(*probes)]


def _unpack(n, coords, width):
    """The probe columns of a block that ``_pack`` packed, each entry
    reduced mod 2^61 - 1, once each lane is checked to be below 2^62, the
    bound the next step relies on."""
    if n == 1:
        assert all(0 <= x < oracle._P for x in coords)
        return [tuple(coords)]
    size = width // 8
    lanes = [x.to_bytes(size * n, "little") for x in coords]
    columns = [[int.from_bytes(b[size * j:size * (j + 1)], "little") for b in lanes] for j in range(n)]
    assert all(x < 1 << 62 for column in columns for x in column)
    return [tuple([x % oracle._P for x in column]) for column in columns]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 6, 15]) | st.integers(1, 15),
       st.sampled_from([1, 2, 6, 63, 64, 130]) | st.integers(1, 130),
       st.sampled_from([1, 2, 3, 64, 200]) | st.integers(1, 200),
       st.booleans(), st.integers(0, 2**32))
def test_mul_probes_is_mat_mul_mod_p_probe_by_probe(rows, cols, n, keep_zeros, seed):
    """A block of 1 to 200 probe columns, packed, stepped through sparse rows
    of up to 130 pairs and unpacked, equals ``mat_mul`` modulo 2^61 - 1 on
    the dense rows, probe by probe: zero rows, zero entries (dropped from
    the pairs, or kept as pairs) and entries 0, 1 and P - 1 included.
    Rows of 16 pairs or more widen the lanes past 128 bits.  A second step,
    through rows of up to 15 pairs (as many as the first matrix has rows),
    starts from folded lanes, which may exceed P - 1 but stay below 2^62."""
    P = (1 << 61) - 1
    rng = random.Random(seed)

    def entry():
        return rng.choice([0, 0, 1, P - 1, rng.randrange(P)])

    def matrix(rows, cols):
        return [(0,) * cols if rng.random() < 0.2 else tuple(entry() for _ in range(cols))
                for _ in range(rows)]

    a_rows, b_rows = matrix(rows, cols), matrix(rng.randint(1, 6), rows)
    probes = [tuple(entry() for _ in range(cols)) for _ in range(n)]
    a_sparse, b_sparse = _sparse(a_rows, keep_zeros), _sparse(b_rows, keep_zeros)
    width = oracle._lane_width([a_sparse, b_sparse], [cols, rows])
    longest = max(map(len, a_sparse + b_sparse))
    assert width == (128 if max(longest, cols) < 16 else 192)
    low, high = oracle._lane_masks(width, n)
    once = oracle._mul_probes(a_sparse, n, _pack(probes, width), low, high)
    images = [_mat_mul_mod(a_rows, (p,), P) for p in probes]
    assert _unpack(n, once, width) == [image[0] for image in images]
    twice = oracle._mul_probes(b_sparse, n, once, low, high)
    assert _unpack(n, twice, width) == [_mat_mul_mod(b_rows, image, P)[0] for image in images]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 15, 16, 130]), st.integers(2, 200), st.integers(0, 2**32))
def test_probe_keys_are_linear_keys_mod_p(dim, n, seed):
    """A packed block's keys are sum(w_k * x_k) mod 2^61 - 1 of each probe,
    for lanes anywhere below 2^62, as ``_mul_probes`` leaves them: each key
    lies in [0, P], and a probe that is zero mod P (lanes of 0, P or 2P)
    has the key 0 or P."""
    P = oracle._P
    rng = random.Random(seed)
    lane = [0, P, 2 * P, 1, P + 1, (1 << 61), (1 << 62) - 1]
    probes = [tuple(rng.choice(lane + [rng.randrange(1 << 62)]) for _ in range(dim))
              for _ in range(n)]
    probes[0] = tuple(rng.choice([0, P, 2 * P]) for _ in range(dim))
    weights = [pow(oracle._KEY_BASE, k, P) for k in range(dim)]
    width = oracle._lane_width([], [dim])
    keys = oracle._probe_keys(n, _pack(probes, width), weights, width,
                              *oracle._lane_masks(width, n))
    assert all(0 <= key <= P for key in keys) and keys[0] in (0, P)
    assert [key % P for key in keys] == [sum(map(operator.mul, weights, p)) % P for p in probes]


def test_a_zero_probe_folded_to_p_fails_the_probe_pass():
    """Lanes are reduced only into [0, P], so a zero probe can carry P, and
    so can its key.  a sends x's start 1 to (5, P - 5), and c sums the two
    coordinates: the probe of c*a is P in its lane, zero mod P, and its
    key P must fail the pass as the key 0 would.  b keeps the block (x, y),
    and so (x, z), packed."""
    P = oracle._P
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "z")])
    a, b, c = [((0, 5),), ((0, P - 5),)], [((0, 7),), ((0, 7),)], [((0, 1), (1, 1))]
    starts = [(1,), (1, 2), (1,)]
    assert oracle._probe_blocks(q, 1, starts, [a, b, c]) is True
    assert oracle._probe_blocks(q, 2, starts, [a, b, c]) is False
    assert oracle._probe_blocks(q, 2, starts, [a, b, [((0, 1), (1, 2))]]) is True


def test_f2_search_formats_no_witness(monkeypatch):
    """The search reads only whether an assignment is faithful, so it names
    no path, not even for the assignments that fail."""
    names = _counting(monkeypatch, "path_str")
    assert exhaustive_lower_bound_f2(helpers.a_line(3), 2, 3) is False
    assert names == [0]


def _count_walk_steps(monkeypatch) -> list:
    """Count the steps every ``walk`` of the search takes, as it takes them."""
    steps = [0]
    walk = oracle.walk

    def counted_walk(q, max_len, start, step):
        def counted(ai, m):
            steps[0] += 1
            return step(ai, m)
        return walk(q, max_len, start, counted)

    monkeypatch.setattr(oracle, "walk", counted_walk)
    return steps


def test_f2_search_steps_no_more_than_whole_levels(monkeypatch):
    """The search abandons an assignment at its first fault: on A3 with
    total dimension 3 it takes 7 steps, fewer than the 9 of a walk that
    steps each level to its end.  The steps are counted as the walk takes
    them."""
    steps = _count_walk_steps(monkeypatch)
    assert exhaustive_lower_bound_f2(helpers.a_line(3), 2, 3) is False
    assert steps == [7]


def _loops(k):
    """One vertex with k loops."""
    return Quiver(["x"], [(f"a{i}", "x", "x") for i in range(k)])


def test_f2_search_prunes_arrow_by_arrow(monkeypatch):
    """Five loops at N = 2 and total dimension 2 have 2^20 assignments, but
    each loop's matrix is checked as it is chosen, on the loops chosen so
    far, so the search is False after 210 steps; checking only whole
    assignments took 3,955,340."""
    steps = _count_walk_steps(monkeypatch)
    assert exhaustive_lower_bound_f2(_loops(5), 2, 2) is False
    assert steps == [210]


@pytest.mark.parametrize("rows, cols", [(r, c) for r in range(1, 5) for c in range(1, 5) if r * c <= 9])
def test_f2_tables_are_every_linear_map(rows, cols):
    """The tables of one shape are its 2^(rows * cols) linear maps, each
    once, in the order of their column-mask tuples: t[x ^ y] is t[x] ^ t[y],
    and t[x] is the bit mask of the ``mat_mul`` image, mod 2, of the vector
    with bit mask x under the dense 0/1 matrix whose column j has bit mask
    columns[j].  Distinct tuples give distinct tables."""
    candidates = list(itertools.product(range(2**rows), repeat=cols))
    tables = list(oracle._f2_maps(rows, cols))
    assert len(tables) == len(set(tables)) == 2 ** (rows * cols)
    vectors = range(2**cols)
    bits = [tuple((x >> i) & 1 for i in range(max(rows, cols))) for x in range(2 ** max(rows, cols))]
    for columns, t in zip(candidates, tables):
        assert len(t) == 2**cols and all(type(y) is int and 0 <= y < 2**rows for y in t)
        assert all(t[x ^ y] == t[x] ^ t[y] for x in vectors for y in vectors)
        dense = [[bits[columns[j]][i] for j in range(cols)] for i in range(rows)]
        for x in vectors:
            image = mat_mul(dense, [[b] for b in bits[x][:cols]])
            assert bits[t[x]][:rows] == tuple(row[0] % 2 for row in image)


def _dense_f2_search(q, N, total_dim):
    """The reference for ``exhaustive_lower_bound_f2``: every splitting and
    every 0/1 assignment of dense matrices, each image flattened (``_flat``)
    and each step one ``mat_mul`` mod 2, through ``_check_truncated``."""
    for cuts in itertools.combinations(range(1, total_dim), q.n - 1):
        dims = [b - a for a, b in itertools.pairwise((0, *cuts, total_dim))]
        choices = [list(itertools.product(itertools.product((0, 1), repeat=dims[a.tail]), repeat=dims[a.head]))
                   for a in q.arrows]
        for mats in itertools.product(*choices):
            status, _, _ = oracle._check_truncated(
                q, N, lambda v: _flat(identity(dims[v])),
                lambda ai, m: tuple(x % 2 for x in _flat(mat_mul(mats[ai], _rows(m, dims[q.arrows[ai].tail])))))
            if status == "effective":
                return True
    return False


def test_f2_search_matches_the_dense_reference():
    """On tiny quivers, at up to 4,096 assignments per splitting, the search
    answers as every dense assignment multiplied out mod 2 does, and both
    answers occur."""
    quivers = [helpers.a2(), helpers.loop(), helpers.kronecker(), helpers.two_loops(),
               helpers.a_line(3), *helpers.suite(30)]
    answers = set()
    for q in quivers:
        for N in (1, 2, 3):
            for total_dim in range(q.n, 5):
                if len(q.arrows) * total_dim * total_dim > 12:
                    continue
                expected = _dense_f2_search(q, N, total_dim)
                assert exhaustive_lower_bound_f2(q, N, total_dim) is expected
                answers.add(expected)
    assert answers == {True, False}


def test_verify_path_rep_exact_fallback(monkeypatch):
    # With every variable at 0 each fingerprint is constant, so polynomial
    # images all clash or vanish and the exact images decide every report.
    # Walks of more than 500 elements would then cost seconds each.
    cases = []
    for i, q in enumerate(helpers.suite(200)):
        rep = build_path_rep(q)
        reps = [rep]
        if q.arrows:
            victim = q.arrows[i % len(q.arrows)].name
            reps += [r for _, r in helpers.unfaithful_variants(rep, [victim])]
        for r in reps:
            report = verify_path_rep(r, q)
            if report.checked <= 500:
                cases.append((r, q, report))
    assert {report.status for _, _, report in cases} == {"effective", "zero_action", "collision"}
    monkeypatch.setattr(oracle, "_point", lambda index: 0)
    for rep, q, expected in cases:
        assert verify_path_rep(rep, q) == expected


def _point_calls(monkeypatch) -> list:
    """The indices that ``oracle._point`` is called with from now on."""
    calls = []
    original = oracle._point
    monkeypatch.setattr(oracle, "_point", lambda index: calls.append(index) or original(index))
    return calls


def test_verify_path_rep_takes_one_point_per_variable(monkeypatch):
    """One check calls ``_point`` once per distinct variable index of the
    arrow matrices, however often a variable occurs, plus once for r, at
    the index after the largest one used.  A2's rep lists tau, eta and zeta
    but uses only tau, so r sits at index 1; a prime truncated rep uses no
    variable, so r at index 0 is the only call."""
    q = helpers.two_loops()
    rep = build_path_rep(q)
    a, b = rep.matrices["a"], rep.matrices["b"]
    rep = replace(rep, matrices={"a": a @ b, "b": b @ a})  # every variable occurs twice
    indices = {v for m in rep.matrices.values() for row in m for e in row
               for mono in e.terms for v, _ in mono}
    calls = _point_calls(monkeypatch)
    verify_path_rep(rep, q)
    assert sorted(calls) == sorted(indices | {max(indices) + 1})
    a2 = helpers.a2()
    calls.clear()
    assert verify_path_rep(build_path_rep(a2), a2).ok
    assert calls == [0, 1]
    calls.clear()
    assert verify_truncated(build_truncated_rep(q, 3), q, 3).ok
    assert calls == [0]


@pytest.mark.parametrize("variables", [0, 1, 5], ids=["empty", "one", "padded"])
def test_probe_start_ignores_the_variables_table(variables, monkeypatch):
    """The start value r comes from the matrices, not the rep's variables
    table: on x -> y with a = [[x0, 0]] and b = [[0, 1]], an r equal to
    x0's value gives a and b one probe, r^2, and sends the check to the
    exact pass, made to fail here.  However long the table, r sits at
    index 1 and the probe pass decides.  The rep is built directly, since
    ``from_json`` refuses a table that does not fit."""
    def no_exact_product(*args):
        raise AssertionError("exact pass ran")

    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    rep = SymbolicRep({"x": 2, "y": 1},
                      {"a": PolyMatrix([[MultiPoly.variable(0), 0]]), "b": PolyMatrix([[0, 1]])},
                      tuple(Variable("a", "tau", i) for i in range(variables)))
    monkeypatch.setattr(oracle, "_map_rows", no_exact_product)
    calls = _point_calls(monkeypatch)
    assert verify_path_rep(rep, q) == oracle.VerifyReport("effective", 5, 6)
    assert calls == [0, 1]


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


@pytest.mark.parametrize("q, N, matrices, checked, witness", [
    # grades (1, 0): a maps the grade-1 vector to grade 1 again
    (helpers.loop(), 2, {"a": ((2, 0), (0, 0))}, 1, "a"),
    # grades (2, 1, 0): b's last column sends its vector up to two grades at once
    (helpers.two_loops(), 3,
     {"a": ((0, 3, 0), (0, 0, 2), (0, 0, 0)), "b": ((0, 11, 5), (0, 0, 7), (0, 0, 0))}, 6, "b"),
], ids=["grade_violation", "two_nonzeros"])
def test_verify_filtration_names_the_faulting_arrow(q, N, matrices, checked, witness):
    """``checked`` counts the columns read, the faulting one included."""
    rep = replace(build_truncated_rep(q, N), matrices=matrices)
    assert verify_filtration(rep, q) == oracle.VerifyReport("relation_violation", checked, 0, (witness,))


@pytest.mark.parametrize("entry, status", [(0, "effective"), (2, "relation_violation")])
def test_verify_filtration_grades_an_ungraded_vertex_on_a_cycle_inf(entry, status):
    """An ungraded vertex on a cycle sits at grade INF, the longest path
    into it: its loop's zero matrix passes, and a nonzero entry, which would
    have to raise the grade, is a relation violation."""
    q = helpers.loop()
    data = build_truncated_rep(q, 2).to_json()
    data.update(vertex_dims={"x": 1}, basis_labels={"x": None})
    data["arrows"][0].update(shape=[1, 1], matrix=[[entry]])
    result = verify_filtration(GradedRep.from_json(data), q)
    assert (result.status, result.witness) == (status, None if entry == 0 else ("a",))


@pytest.mark.parametrize("matrices, witness", [
    ({"a": ((0,),), "b": ((0,),), "c": ((0,),)}, None),
    ({"a": ((0,),), "b": ((3,),), "c": ((0,),)}, "b"),
    ({"a": ((0,),), "b": ((0,),), "c": ((5,),)}, "c"),
])
def test_verify_filtration_keeps_entries_off_a_grade_inf_vertex(matrices, witness):
    """Next to graded y, ungraded x on a loop takes grade INF: a nonzero
    entry of b into y or of c out of y into x breaks the filtration."""
    q = Quiver(["x", "y"], [("a", "x", "x"), ("b", "x", "y"), ("c", "y", "x")])
    rep = build_truncated_rep(q, 2)
    rep = replace(rep, dims={"x": 1, "y": 1}, grades={"x": None, "y": (0,)}, matrices=matrices)
    result = verify_filtration(rep, q)
    assert result.witness == (None if witness is None else (witness,))
    assert result.status == ("effective" if witness is None else "relation_violation")


@pytest.mark.parametrize("grades", [
    {"x": (2,)},  # zip would stop at x's first column and miss column 2's entry
    {"y": (2,)},  # column 2's entry would index past y's grades
    {"x": None},
    {"y": [2, 1, 0]},
], ids=["short-source", "short-target", "none-at-dim-3", "list"])
def test_verify_filtration_refuses_grades_that_do_not_fit_the_dims(grades):
    """On the 2-cycle at N = 3, both vertices have dimension 3; a column 2
    entry of ``a`` keeping grade 0 would be a relation violation, but the
    grades must fit the dims before a column is read."""
    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "y", "x")])
    rep = build_truncated_rep(q, 3)
    a = ((0, 0, 0), (0, 0, 0), (0, 0, 5))
    bad = replace(rep, grades={**rep.grades, **grades}, matrices={**rep.matrices, "a": a})
    with pytest.raises(ValueError, match="needs a tuple of one grade per dimension \\(3\\), or None at dimension 1"):
        verify_filtration(bad, q)
    assert verify_filtration(replace(bad, grades=rep.grades), q).status == "relation_violation"


@pytest.mark.parametrize("q, N, total_dim, formula, answer", [
    (helpers.a2(), 2, 1, 2, False),
    (helpers.a2(), 2, 2, 2, True),
    (helpers.loop(), 2, 1, 2, False),
    (helpers.a_line(3), 2, 3, 4, False),
    (helpers.two_loops(), 2, 2, 2, False),
    (helpers.two_loops(), 2, 3, 2, True),
    (_loops(5), 2, 2, 2, False),
], ids=["a2-1", "a2-2", "loop-1", "a3-3", "two_loops-2", "two_loops-3", "five_loops-2"])
def test_exhaustive_lower_bound(q, N, total_dim, formula, answer):
    """The search's answers beside the formula's dimension
    (``effdim_truncated``).  Two loops at N = 2 are F2's smallest departure
    from it: the formula gives 2, but over F2 no dimension 2 is faithful.
    There both loops act as nonzero square-zero maps whose products
    vanish, so they share their image and kernel and each is a scalar
    multiple of the other; F2 has one nonzero scalar, so they collide, and
    so do two of five loops."""
    assert effdim_truncated(q, N) == formula
    assert exhaustive_lower_bound_f2(q, N, total_dim) is answer


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
    monkeypatch.setattr(oracle, "_probe_blocks", no_walk)
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
    periods that ``_check_budget`` skips, in its message and, within the
    budget, in the count it returns; the cycle with a tail has per-vertex
    counts of period 2."""
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
                assert oracle._check_budget(q, max_len, "--max-len") == total
                continue
            with pytest.raises(ValueError) as refused:
                oracle._check_budget(q, max_len, "--max-len")
            message = str(refused.value)
            assert f"checks {total:,} elements" in message
            assert (f"by length {passed} alone" in message) == (passed < max_len)
            assert (f"fits is {passed - 1}" in message) == (passed > 1)


def test_verify_budget_refuses_a_huge_truncation_in_a_rep_file(tmp_path, monkeypatch, capsys):
    def no_walk(*args):
        raise AssertionError("walked")

    for name in ("walk", "_probe_blocks", "_supports_vanish"):
        monkeypatch.setattr(oracle, name, no_walk)
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

    monkeypatch.setattr(oracle, "_map_rows", no_exact_product)
    for q in helpers.suite(200):
        assert verify_path_rep(build_path_rep(q), q).status == "effective"


def _probe_cases(point):
    """Each suite path rep and unfaithful variant with its probes at
    ``point``, as ``(q, max_len, starts, arrow_fps)``, the fingerprints
    dense."""
    P = oracle._P
    for q in helpers.suite():
        rep = build_path_rep(q)
        r = point(len(rep.variables))
        starts = [tuple(pow(r, k, P) for k in range(1, rep.dims[x] + 1)) for x in q.vertices]
        for _, variant in [("built", rep), *helpers.unfaithful_variants(rep, q.arrow_names())]:
            fps = [m.evaluate(point, P) for m in variant.matrices.values()]
            yield q, 2 * q.n + 2, starts, fps


@pytest.mark.parametrize("point", [oracle._point, lambda index: 7], ids=["points", "clashing"])
def test_block_pass_agrees_with_the_ordered_check_on_the_same_probes(point):
    """On the probes of the suite's path reps and their 1,034 unfaithful
    variants, the block pass passes exactly when ``_check_truncated`` over
    the same probes in walk order is effective, and then the budget counts
    what that check counts; at one value for every variable, probes clash
    and both verdicts occur."""
    verdicts = set()
    for q, max_len, starts, fps in _probe_cases(point):
        passed = oracle._probe_blocks(q, max_len, starts, [_sparse(m) for m in fps])
        status, checked, _ = oracle._check_truncated(  # images are probe columns, as coordinate tuples
            q, max_len + 1, lambda v: starts[v],
            lambda ai, m: tuple(row[0] % oracle._P for row in mat_mul(fps[ai], [(x,) for x in m])), relation=False)
        assert passed == (status == "effective")
        if passed:
            assert oracle._check_budget(q, max_len) == checked
        verdicts.add(status)
    assert {"effective", "zero_action", "collision"} == verdicts


def test_supports_vanish_at_the_boundary():
    """The support graph of a hand-built loop rep: a shift 0 -> 1 -> 2 of
    basis vectors has a longest walk of 2 edges, so it proves level 3 and not
    level 2; closing it into a cycle proves no level."""
    q = helpers.loop()
    shift = [(), ((0, 1),), ((1, 7),)]  # sparse rows: row i holds (column, entry) pairs
    assert oracle._supports_vanish(q, 3, [3], [shift])
    assert not oracle._supports_vanish(q, 2, [3], [shift])
    cycle = [((2, 1),)] + shift[1:]
    assert not oracle._supports_vanish(q, 3, [3], [cycle])
    assert not oracle._supports_vanish(q, 10**400, [3], [cycle])


def _support_cases():
    """``(q, N, dims, sparse rows)`` of the suite's built truncated reps at
    N = 1..4 with both label kinds, and of their variants: every arrow
    given an entry at row 0, column 0, which closes a support cycle on
    every cycle of the quiver, and each label moved one grade down
    (``helpers.label_moved_down``), which lets a walk of N edges through."""
    for q in helpers.suite():
        for N in (1, 2, 3, 4):
            for labels in ("primes", "symbolic"):
                rep = build_truncated_rep(q, N, labels=labels)
                dims = list(rep.dims.values())
                rows = [oracle._sparse(m) for m in rep.matrices.values()]
                yield q, N, dims, rows
                yield q, N, dims, [_with_corner(m, dims[a.tail]) for a, m in zip(q.arrows, rows)]
                for _, variant in helpers.label_moved_down(rep):
                    yield q, N, dims, [oracle._sparse(m) for m in variant.matrices.values()]


def _with_corner(m, tail_dim):
    """Sparse rows ``m`` with a nonzero at row 0, column 0, where both exist."""
    if not m or not tail_dim:
        return m
    return (((0, 1),) + tuple(p for p in m[0] if p[0]),) + m[1:]


def test_supports_vanish_agrees_with_the_reference_longest_walk():
    """On every support case, the proof passes exactly when the longest
    walk of the support graph, by the Kahn reference ``helpers.longest_walks``
    built here apart from the proof's own graph, has fewer than N edges;
    both verdicts occur."""
    verdicts = []
    for q, N, dims, rows in _support_cases():
        offset = list(itertools.accumulate(dims, initial=0))
        succ = [[] for _ in range(offset[-1])]
        for a, m in zip(q.arrows, rows):
            for i, row in enumerate(m):
                for k, _ in row:
                    succ[offset[a.tail] + k].append(offset[a.head] + i)
        expected = max(helpers.longest_walks(succ), default=0) < N
        assert oracle._supports_vanish(q, N, dims, rows) == expected
        verdicts.append(expected)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_supports_vanish_offsets_each_vertex_block():
    """Edges run from the tail's block to the head's: on x -> y with dims
    2 and 1, the one entry gives one edge, from x's second basis vector to
    y's, so the longest walk has 1 edge."""
    q = helpers.a2()
    rows = [[((1, 4),)]]
    assert oracle._supports_vanish(q, 2, [2, 1], rows)
    assert not oracle._supports_vanish(q, 1, [2, 1], rows)
    assert oracle._supports_vanish(q, 1, [2, 1], [[()]])  # no edge: every walk is empty
