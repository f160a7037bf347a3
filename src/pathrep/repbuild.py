"""Construction of the two faithful representations: the symbolic block
representation of the full path semigroup, and the prime-labelled graded
representation of a truncation.

The symbolic construction gives each commutative-cycle vertex one dimension
and each noncommutative one two, and gives each arrow one block, by one rule,
over its formal variables tau/eta/zeta.  The graded construction
gives each vertex one basis vector per admissible grade (or a single
ungraded vector), and sends a grade-k vector along an arrow to the next
admissible grade above k, scaled by an injectively allocated label (a prime
by default, or a fresh formal variable).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from math import isqrt, log

from .dimension import analysis
from .paths import Path
from .polyring import KINDS, MultiPoly, PolyMatrix, Variable, identity, mat_mul, variable_table
from .quiver import Quiver

# The most (arrow, grade) labels and dense matrix entries one truncated
# construction may allocate (see the README's scale limits).
LABEL_LIMIT = 2_000_000
DENSE_LIMIT = 10_000_000


def _prime_limit(n: int) -> int:
    """A number above the n-th prime: Rosser's bound p_n < n(ln n + ln ln n)
    for n >= 6, with room for rounding, and 12 (p_5 = 11) below that."""
    if n < 6:
        return 12
    return int(n * (log(n) + log(log(n)))) + 2


def _field(data, name: str, kind, where: str = "representation"):
    """``data[name]`` from a representation file, checked for presence and
    type, so that a malformed file fails with a message naming the field."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object")
    if name not in data:
        raise ValueError(f"{where} is missing field {name!r}")
    value = data[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"{where} field {name!r} has the wrong type ({type(value).__name__})"
        )
    return value


def _vertex_dims(data) -> dict[str, int]:
    dims = {}
    for x, d in _field(data, "vertex_dims", dict).items():
        if type(d) is not int or d < 1:
            raise ValueError(
                f"representation field 'vertex_dims' needs a positive integer for {x!r}"
            )
        dims[str(x)] = d
    return dims


def _json_int(value) -> int:
    """``value`` if it is a JSON integer; a float or a bool is rejected, not
    truncated."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _int_matrix(rows) -> tuple:
    """A matrix of JSON integers as a tuple of rows, one or more of one
    nonzero length, as ``PolyMatrix`` takes; one type pass per row."""
    if not all(isinstance(row, list) and {int}.issuperset(map(type, row)) for row in rows):
        raise ValueError("a row is a list of integers")
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("a matrix needs one or more rows of one nonzero length")
    return tuple(map(tuple, rows))


def _entry_json(e):
    return e.to_json() if isinstance(e, MultiPoly) else int(e)


def _arrow_records(matrices) -> list:
    """The ``arrows`` records that ``_arrow_matrices`` reads, one per arrow id in order."""
    return [
        {
            "id": name,
            "shape": [len(m), len(m[0])],
            "matrix": [[_entry_json(e) for e in row] for row in m],
        }
        for name, m in matrices.items()
    ]


def _arrow_matrices(data, parse) -> dict:
    """Arrow id -> ``parse(matrix)`` over the ``arrows`` records, one per id, each fitting its ``shape``."""
    matrices = {}
    for i, a in enumerate(_field(data, "arrows", list)):
        where = f"representation arrows[{i}]"
        name = _field(a, "id", str, where)
        if name in matrices:
            raise ValueError(f"{where} repeats arrow id {name!r}")
        rows = _field(a, "matrix", list, where)
        try:
            matrices[name] = m = parse(rows)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} field 'matrix' is malformed: {exc}") from None
        if "shape" in a and (a["shape"] != [len(m), len(m and m[0])] or {*map(type, a["shape"])} != {int}):
            raise ValueError(f"{where} field 'shape' is not its matrix's [rows, columns]")
    return matrices


@dataclass(frozen=True)
class SymbolicRep:
    """Two-block symbolic representation of the full path semigroup.

    ``dims`` and ``matrices`` are keyed by vertex / arrow id in declaration
    order; ``variables`` lists the tau/eta/zeta generators in their global
    index order.
    """

    dims: dict[str, int]
    matrices: dict[str, PolyMatrix]
    variables: tuple[Variable, ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def to_json(self) -> dict:
        return {
            "kind": "path",
            "vertex_dims": dict(self.dims),
            "variables": [
                {"arrow": v.arrow, "kind": v.kind, "index": v.index}
                for v in self.variables
            ],
            "arrows": _arrow_records(self.matrices),
        }

    @classmethod
    def from_json(cls, data) -> "SymbolicRep":
        """Inverse of ``to_json``, for a rep whose variables table fits it: each row names one of
        its arrows and a kind, no index or (arrow, kind) pair repeats, and every variable an entry
        uses is listed.  Raises ValueError naming a missing, ill-typed or unfitting field."""
        if not isinstance(data, dict) or data.get("kind") != "path":
            raise ValueError("not a path-semigroup representation")
        dims = _vertex_dims(data)
        variables = []
        for i, v in enumerate(_field(data, "variables", list)):
            where = f"representation variables[{i}]"
            variables.append(Variable(
                _field(v, "arrow", str, where),
                _field(v, "kind", str, where),
                _field(v, "index", int, where),
            ))
            if variables[-1].index < 0:
                raise ValueError(f"{where} field 'index' must be >= 0")
        matrices = _arrow_matrices(data, PolyMatrix.from_json)
        pairs, indices = {(v.arrow, v.kind) for v in variables}, {v.index for v in variables}
        if not all(v.arrow in matrices and v.kind in KINDS for v in variables):
            raise ValueError("representation field 'variables' has a row for no arrow, "
                             f"or for a kind not in {KINDS}")
        if not len(pairs) == len(indices) == len(variables):
            raise ValueError("representation field 'variables' repeats an index or an (arrow, kind) pair")
        entries = chain.from_iterable(chain.from_iterable(matrices.values()))
        if not {v for e in entries for mono in e.terms for v, _ in mono} <= indices:
            raise ValueError("representation field 'variables' lacks a variable that an arrow matrix uses")
        return cls(dims, matrices, tuple(variables))


def _block(tau, eta, zeta, rows: int, cols: int) -> PolyMatrix:
    """An arrow's rows x cols block over its tau/eta/zeta polynomials, each
    side 1 or 2: tau at (0, 0), zeta at (rows - 1, cols - 1) unless the
    block is 1x1, and eta at (0, 1) only in the 2x2 case.  So [[tau, eta],
    [0, zeta]], the row (tau zeta), the column (tau; zeta) or the scalar
    (tau)."""
    m = [[tau] * cols for _ in range(rows)]  # every entry but (0, 0) is set below
    if rows + cols > 2:
        m[-1][-1] = zeta
    if rows == cols == 2:
        m[0][1], m[1][0] = eta, MultiPoly.zero()
    return PolyMatrix(m)


def build_path_rep(q: Quiver) -> SymbolicRep:
    """One dimension per commutative-cycle vertex, two per noncommutative
    one, and per arrow x -> y its ``_block`` of shape dim(y) x dim(x)."""
    comp_of, rows, _ = analysis(q)
    dim = [1 if rows[c][2] else 2 for c in comp_of]
    variables = tuple(variable_table(q.arrow_names()).values())
    polys = iter([MultiPoly.variable(v.index) for v in variables])
    matrices = {a.name: _block(tau, eta, zeta, dim[a.head], dim[a.tail])
                for a, tau, eta, zeta in zip(q.arrows, polys, polys, polys)}
    return SymbolicRep(dict(zip(q.vertices, dim)), matrices, variables)


def _label_keys(q: Quiver, N: int) -> list[tuple[str, int]]:
    """Level-N label keys in (arrow declaration, grade) order, for either kind."""
    return [(a.name, k) for a in q.arrows for k in range(N)]


def allocate_primes(q: Quiver, N: int) -> dict[tuple[str, int], int]:
    """Injective (arrow, grade) -> prime table: the keys in (arrow, grade) order
    get 2, 3, 5, 7, ... from one sieve below ``_prime_limit`` of their count.
    The label of grade g in the window (lo, hi) lands in column hi - g."""
    if N < 1:
        raise ValueError("N must be >= 1")
    keys = _label_keys(q, N)
    limit = _prime_limit(len(keys))
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return dict(zip(keys, compress(range(limit), sieve)))


@dataclass(frozen=True)
class GradedRep:
    """Graded representation of the level-N truncated path semigroup.

    ``grades[x]`` lists the basis grades in descending order, so grade g of
    the window (lo, hi) is basis index hi - g and grade-raising arrow
    matrices are strictly upper triangular; it is None for a vertex carrying
    a single ungraded vector.  Matrices are dense tuples of tuples with at
    most one nonzero entry per column, namely the label of (arrow, source
    grade).  ``label_kind`` is "primes" or "symbolic".
    """

    N: int
    dims: dict[str, int]
    grades: dict[str, tuple[int, ...] | None]
    matrices: dict[str, tuple]
    labels: dict[tuple[str, int], object]
    label_kind: str = "primes"
    label_variable_names: tuple[str, ...] = ()

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def _document(self, arrows: list, table: list) -> dict:
        """The rep file's top-level object around its ``arrows`` records and
        its label ``table`` rows, in (arrow, grade) order."""
        data = {
            "kind": "truncated",
            "truncation": self.N,
            "labels": self.label_kind,
            "vertex_dims": dict(self.dims),
            "basis_labels": {
                x: None if g is None else list(g) for x, g in self.grades.items()
            },
            "arrows": arrows,
            "prime_table" if self.label_kind == "primes" else "label_table": table,
        }
        if self.label_kind == "symbolic":
            data["label_variables"] = list(self.label_variable_names)
        return data

    def to_json(self) -> dict:
        table = [
            [arrow, k, _entry_json(v)]
            for (arrow, k), v in sorted(self.labels.items())
        ]
        return self._document(_arrow_records(self.matrices), table)

    @classmethod
    def from_json(cls, data) -> "GradedRep":
        """Inverse of ``to_json``, for a rep whose label table fits it: each row is one of its
        arrows at a grade below N, and each nonzero entry a label (if symbolic, made of label
        monomials).  Raises ValueError naming a missing, ill-typed or unfitting field."""
        if not isinstance(data, dict) or data.get("kind") != "truncated":
            raise ValueError("not a truncated-semigroup representation")
        kind = _field(data, "labels", str)
        if kind not in ("primes", "symbolic"):
            raise ValueError(
                f"representation field 'labels' must be 'primes' or 'symbolic', not {kind!r}"
            )
        symbolic = kind == "symbolic"
        entry = MultiPoly.from_json if symbolic else _json_int
        N = _field(data, "truncation", int)
        if N < 1:
            raise ValueError("representation field 'truncation' must be >= 1")
        dims = _vertex_dims(data)
        grades = _field(data, "basis_labels", dict)
        if grades.keys() != dims.keys():
            raise ValueError(
                "representation field 'basis_labels' needs the vertices of 'vertex_dims'"
            )
        for x, g in grades.items():
            if not (g is None and dims[x] == 1 or isinstance(g, list) and len(g) == dims[x]
                    and {int}.issuperset(map(type, g))):
                raise ValueError(
                    f"representation field 'basis_labels' needs for {x!r} a list of one "
                    f"integer per dimension ({dims[x]}), or null at dimension 1"
                )
            if g and not all(map(int.__gt__, (N, *g), (*g, -1))):
                raise ValueError("representation field 'basis_labels' needs grades strictly descending in 0..N-1")
        grades = {x: None if g is None else tuple(g) for x, g in grades.items()}
        matrices = _arrow_matrices(data, PolyMatrix.from_json if symbolic else _int_matrix)
        table_key = "label_table" if symbolic else "prime_table"
        table = _field(data, table_key, list)
        try:
            labels = {(arrow, _json_int(k)): entry(v) for arrow, k, v in table}
        except (TypeError, ValueError):
            raise ValueError(
                f"representation field {table_key!r} needs [arrow, grade, label] rows"
            ) from None
        if len(labels) != len(table):
            raise ValueError(f"representation field {table_key!r} repeats an (arrow, grade) key")
        if not all(arrow in matrices and 0 <= k < N for arrow, k in labels):
            raise ValueError(f"representation field {table_key!r} has a row for no arrow at a grade below N")
        atoms = (lambda es: {m for e in es for m in e.terms}) if symbolic else (lambda es: set(es) - {0})
        entries = chain.from_iterable(chain.from_iterable(matrices.values()))
        if not atoms(entries) <= (label_atoms := atoms(labels.values())):
            raise ValueError(f"representation field {table_key!r} lacks a label that an arrow matrix holds")
        used = max((v for m in label_atoms for v, _ in m), default=-1) if symbolic else -1
        names = tuple(_field(data, "label_variables", list)) if "label_variables" in data else ()
        if not {str}.issuperset(map(type, names)):
            raise ValueError("representation field 'label_variables' needs a list of names (strings)")
        if len({*names}) < len(names) or used >= len(names) or not symbolic and "label_variables" in data:
            raise ValueError("representation field 'label_variables' must name each variable of "
                             "symbolic labels once")
        return cls(N, dims, grades, matrices, labels, kind, names)


def build_truncated_rep(q: Quiver, N: int, labels: str = "primes") -> GradedRep:
    """Basis per admissible grade, arrows jump to the next admissible grade.

    One rule places every label of an arrow x -> y: an ungraded source acts
    as one vector at grade -1 with the grade-0 label, and a source vector of
    grade k lands in the single vector of an ungraded y, or else on the least
    admissible grade of y above k; grade N-1 dies at a graded y.  Grade g of
    a window (lo, hi) sits at basis index hi - g.  Paths of length >= N then
    vanish automatically: they only ever traverse graded vertices and each
    step strictly raises the grade.
    """
    if labels not in ("primes", "symbolic"):
        raise ValueError("labels must be 'primes' or 'symbolic'")
    if len(q.arrows) * N > LABEL_LIMIT:
        raise ValueError(f"the truncation at N={N} needs a label table of {len(q.arrows) * N:,} "
                         f"(arrow, grade) labels, above the limit of {LABEL_LIMIT:,}")
    comp_of, rows, _ = analysis(q, N)
    window, dim = [rows[c][3] for c in comp_of], [rows[c][4] for c in comp_of]
    entries = sum(dim[a.head] * dim[a.tail] for a in q.arrows)
    if entries > DENSE_LIMIT:
        raise ValueError(f"the truncation at N={N} needs {entries:,} dense matrix entries, "
                         f"above the limit of {DENSE_LIMIT:,}")
    if labels == "primes":
        label_map, label_names, zero = allocate_primes(q, N), (), 0
    else:
        keys = _label_keys(q, N)
        label_map = {key: MultiPoly.variable(i) for i, key in enumerate(keys)}
        label_names, zero = tuple(f"p({a},{k})" for a, k in keys), MultiPoly.zero()
    grades = {x: None if w is None else tuple(range(w[1], w[0] - 1, -1)) for x, w in zip(q.vertices, window)}
    matrices: dict[str, tuple] = {}
    for a in q.arrows:
        m = [[zero] * dim[a.tail] for _ in range(dim[a.head])]
        lo, hi = window[a.tail] or (-1, -1)
        wy = window[a.head]
        for k in range(lo, hi + 1):
            if wy is None:
                # a grade-(N-1) source would force the target to carry a
                # full-length path too, contradicting its empty window
                assert k < N - 1
                row = 0
            elif k == N - 1:
                continue
            else:
                row = wy[1] - max(wy[0], k + 1)
                assert row >= 0, "no admissible grade above the source grade"
            m[row][hi - k] = label_map[(a.name, k if k > 0 else 0)]
        matrices[a.name] = tuple(tuple(r) for r in m)
    return GradedRep(N, dict(zip(q.vertices, dim)), grades, matrices, label_map, labels, label_names)


def rep_of_path(rep, p: Path):
    """The image of a path under a representation, a matrix; None for the
    zero path.

    Trivial paths give identity blocks, composites multiply the arrow
    matrices in composition order (last arrow leftmost); in a truncated
    representation any path of length >= N comes out all-zero by the grade
    structure, with no special-casing.
    """
    if p.is_zero:
        return None
    m = identity(tuple(rep.dims.values())[p.tail])
    arrows = tuple(rep.matrices.values())
    for ai in p.arrows:
        m = mat_mul(arrows[ai], m)
    return PolyMatrix(m) if isinstance(rep, SymbolicRep) else m


def loop_matrices(letters) -> dict[str, PolyMatrix]:
    """Upper-triangular 2x2 matrices [[tau, eta], [0, zeta]], one per letter."""
    letters = list(letters)
    polys = iter([MultiPoly.variable(v.index) for v in variable_table(letters).values()])
    return {letter: _block(tau, eta, zeta, 2, 2)
            for letter, tau, eta, zeta in zip(letters, polys, polys, polys)}


def corner_entry(word, letters=None) -> MultiPoly:
    """Closed form for the upper-right entry of a product of letter matrices.

    For a word w1...wl multiplied in the written order the entry is the sum
    over positions i of tau(w1)...tau(w_{i-1}) * eta(w_i) *
    zeta(w_{i+1})...zeta(wl).  ``letters`` fixes the variable indexing and
    defaults to the sorted letters of the word.
    """
    word = list(word)
    if not word:
        raise ValueError("word must be nonempty")
    if letters is None:
        letters = sorted(set(word))
    table = variable_table(letters)
    terms = Counter()
    for i, w in enumerate(word):
        kinds = [(x, "tau") for x in word[:i]] + [(w, "eta")] + [(x, "zeta") for x in word[i + 1:]]
        terms[tuple(sorted(Counter(table[k].index for k in kinds).items()))] += 1
    return MultiPoly(terms)
