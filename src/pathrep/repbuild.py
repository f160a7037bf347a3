"""Construction of the two faithful representations: the symbolic block
representation of the full path semigroup, and the prime-labelled graded
representation of a truncation.

The symbolic construction gives each commutative-cycle vertex one dimension
and each noncommutative one two, and fills arrow matrices from a four-case
template over the formal variables tau/eta/zeta.  The graded construction
gives each vertex one basis vector per admissible grade (or a single
ungraded vector), and sends a grade-k vector along an arrow to the next
admissible grade above k, scaled by an injectively allocated label (a prime
by default, or a fresh formal variable).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt, log

from .dimension import classify_path, k_profile
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


def _primes():
    """2, 3, 5, 7, ... in order.  Each round sieves below the limit for
    twice as many primes as are known and yields the new ones."""
    known = start = 0
    while True:
        limit = _prime_limit(2 * known or 1)
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
        new = list(compress(range(start, limit), sieve[start:]))
        yield from new
        known, start = known + len(new), limit


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


def _int_row(row) -> tuple:
    """A matrix row of JSON integers, as a tuple; one type pass per row."""
    if not isinstance(row, list) or not {int}.issuperset(map(type, row)):
        raise ValueError("a row is a list of integers")
    return tuple(row)


def _arrow_matrices(data, parse) -> dict:
    """Arrow id -> ``parse(matrix)`` over the ``arrows`` records."""
    matrices = {}
    for i, a in enumerate(_field(data, "arrows", list)):
        where = f"representation arrows[{i}]"
        name = _field(a, "id", str, where)
        rows = _field(a, "matrix", list, where)
        try:
            matrices[name] = parse(rows)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} field 'matrix' is malformed: {exc}") from None
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
            "arrows": [
                {
                    "id": name,
                    "shape": [m.rows, m.cols],
                    "matrix": m.to_json(),
                }
                for name, m in self.matrices.items()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "SymbolicRep":
        """Inverse of ``to_json``; raises ValueError naming a missing or
        ill-typed field."""
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
        matrices = _arrow_matrices(data, PolyMatrix.from_json)
        return cls(dims, matrices, tuple(variables))


def build_path_rep(q: Quiver) -> SymbolicRep:
    """One dimension per commutative-cycle vertex, two per noncommutative one.

    Arrow matrices, shaped target-dim x source-dim:
    2x2 [[tau, eta], [0, zeta]] between two-dimensional vertices, the row
    (tau zeta) into a one-dimensional target, the column (tau; zeta) out of
    a one-dimensional source, and the scalar (tau) between one-dimensional
    vertices.  eta appears only in the 2x2 case.
    """
    doubled = set(classify_path(q).noncommutative)
    table = variable_table(q.arrow_names())
    dims = {x: 2 if x in doubled else 1 for x in q.vertices}
    matrices: dict[str, PolyMatrix] = {}
    for a in q.arrows:
        tau = MultiPoly.variable(table[(a.name, "tau")].index)
        eta = MultiPoly.variable(table[(a.name, "eta")].index)
        zeta = MultiPoly.variable(table[(a.name, "zeta")].index)
        source_doubled = q.vertices[a.tail] in doubled
        target_doubled = q.vertices[a.head] in doubled
        if source_doubled and target_doubled:
            rows = [[tau, eta], [MultiPoly.zero(), zeta]]
        elif source_doubled:
            rows = [[tau, zeta]]
        elif target_doubled:
            rows = [[tau], [zeta]]
        else:
            rows = [[tau]]
        matrices[a.name] = PolyMatrix(rows)
    variables = tuple(sorted(table.values(), key=lambda v: v.index))
    return SymbolicRep(dims, matrices, variables)


def allocate_primes(q: Quiver, N: int) -> dict[tuple[str, int], int]:
    """Injective (arrow, grade) -> prime table: pairs in declaration-then-
    grade order get 2, 3, 5, 7, ..."""
    if N < 1:
        raise ValueError("N must be >= 1")
    gen = _primes()
    return {(a.name, k): next(gen) for a in q.arrows for k in range(N)}


def _symbolic_labels(q: Quiver, N: int):
    labels = {}
    names = []
    idx = 0
    for a in q.arrows:
        for k in range(N):
            labels[(a.name, k)] = MultiPoly.variable(idx)
            names.append(f"p({a.name},{k})")
            idx += 1
    return labels, names


@dataclass(frozen=True)
class GradedRep:
    """Graded representation of the level-N truncated path semigroup.

    ``grades[x]`` lists the basis grades in descending order (so grade-
    raising arrow matrices are strictly upper triangular), or is None for a
    vertex carrying a single ungraded vector.  Matrices are dense tuples of
    tuples with at most one nonzero entry per column, namely the label of
    (arrow, source grade).  ``label_kind`` is "primes" or "symbolic".
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

    def _entry_json(self, e):
        return e.to_json() if isinstance(e, MultiPoly) else int(e)

    def to_json(self) -> dict:
        data = {
            "kind": "truncated",
            "truncation": self.N,
            "labels": self.label_kind,
            "vertex_dims": dict(self.dims),
            "basis_labels": {
                x: None if g is None else list(g) for x, g in self.grades.items()
            },
            "arrows": [
                {
                    "id": name,
                    "shape": [len(m), len(m[0])],
                    "matrix": [[self._entry_json(e) for e in row] for row in m],
                }
                for name, m in self.matrices.items()
            ],
        }
        table_key = "prime_table" if self.label_kind == "primes" else "label_table"
        data[table_key] = [
            [arrow, k, self._entry_json(v)]
            for (arrow, k), v in sorted(self.labels.items())
        ]
        if self.label_kind == "symbolic":
            data["label_variables"] = list(self.label_variable_names)
        return data

    @classmethod
    def from_json(cls, data) -> "GradedRep":
        """Inverse of ``to_json``; raises ValueError naming a missing or
        ill-typed field."""
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
        grades = {x: None if g is None else tuple(g) for x, g in grades.items()}
        matrices = _arrow_matrices(
            data, PolyMatrix.from_json if symbolic else lambda rows: tuple(map(_int_row, rows))
        )
        table_key = "label_table" if symbolic else "prime_table"
        table = _field(data, table_key, list)
        try:
            labels = {(arrow, _json_int(k)): entry(v) for arrow, k, v in table}
        except (TypeError, ValueError):
            raise ValueError(
                f"representation field {table_key!r} needs [arrow, grade, label] rows"
            ) from None
        names = ()
        if "label_variables" in data:
            names = tuple(_field(data, "label_variables", list))
        return cls(N, dims, grades, matrices, labels, kind, names)


def build_truncated_rep(q: Quiver, N: int, labels: str = "primes") -> GradedRep:
    """Basis per admissible grade, arrows jump to the next admissible grade.

    Rules, for an arrow x -> y and a source basis vector:
      - grade N-1 at a graded source with graded target dies;
      - grade k < N-1 between graded vertices goes to the least admissible
        grade of y above k;
      - a graded source feeding an ungraded target hits its single vector
        (full-length grades cannot occur here);
      - an ungraded source acts with the grade-0 label, landing on the
        least admissible grade of a graded target or the single vector.
    Paths of length >= N then vanish automatically: they only ever traverse
    graded vertices and each step strictly raises the grade.
    """
    if labels not in ("primes", "symbolic"):
        raise ValueError("labels must be 'primes' or 'symbolic'")
    if len(q.arrows) * N > LABEL_LIMIT:
        raise ValueError(f"the truncation at N={N} needs a label table of {len(q.arrows) * N:,} "
                         f"(arrow, grade) labels, above the limit of {LABEL_LIMIT:,}")
    kp = k_profile(q, N)
    entries = sum(kp.d[q.vertices[a.head]] * kp.d[q.vertices[a.tail]] for a in q.arrows)
    if entries > DENSE_LIMIT:
        raise ValueError(f"the truncation at N={N} needs {entries:,} dense matrix entries, "
                         f"above the limit of {DENSE_LIMIT:,}")
    symbolic = labels == "symbolic"
    if symbolic:
        label_map, label_names = _symbolic_labels(q, N)
    else:
        label_map, label_names = allocate_primes(q, N), []
    zero = MultiPoly.zero() if symbolic else 0
    grades: dict[str, tuple[int, ...] | None] = {}
    pos: dict[str, dict[int, int]] = {}
    dims: dict[str, int] = {}
    for x in q.vertices:
        w = kp.window[x]
        if w is None:
            grades[x] = None
            dims[x] = 1
        else:
            lo, hi = w
            desc = tuple(range(hi, lo - 1, -1))
            grades[x] = desc
            dims[x] = len(desc)
            pos[x] = {g: i for i, g in enumerate(desc)}
    matrices: dict[str, tuple] = {}
    for a in q.arrows:
        x = q.vertices[a.tail]
        y = q.vertices[a.head]
        m = [[zero] * dims[x] for _ in range(dims[y])]
        wx = kp.window[x]
        wy = kp.window[y]
        if wx is not None:
            for k in range(wx[0], wx[1] + 1):
                col = pos[x][k]
                if wy is not None:
                    if k == N - 1:
                        continue
                    j = max(wy[0], k + 1)
                    assert j <= wy[1], "no admissible grade above the source grade"
                    m[pos[y][j]][col] = label_map[(a.name, k)]
                else:
                    # a grade-(N-1) source would force the target to carry a
                    # full-length path too, contradicting its empty window
                    assert k < N - 1
                    m[0][col] = label_map[(a.name, k)]
        else:
            row = pos[y][wy[0]] if wy is not None else 0
            m[row][0] = label_map[(a.name, 0)]
        matrices[a.name] = tuple(tuple(r) for r in m)
    return GradedRep(N, dims, grades, matrices, label_map, labels, tuple(label_names))


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
    table = variable_table(letters)
    out = {}
    for letter in letters:
        tau, eta, zeta = (
            MultiPoly.variable(table[(letter, kind)].index) for kind in KINDS
        )
        out[letter] = PolyMatrix([[tau, eta], [MultiPoly.zero(), zeta]])
    return out


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
    total = MultiPoly.zero()
    for i in range(len(word)):
        term = MultiPoly.const(1)
        for j in range(i):
            term = term * MultiPoly.variable(table[(word[j], "tau")].index)
        term = term * MultiPoly.variable(table[(word[i], "eta")].index)
        for j in range(i + 1, len(word)):
            term = term * MultiPoly.variable(table[(word[j], "zeta")].index)
        total = total + term
    return total
