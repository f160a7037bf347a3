"""Sparse multivariate polynomials over Python's exact integers, plus small
rectangular matrices.  Every matrix is a tuple of rows, over any ring
(``identity``, ``mat_mul``); ``PolyMatrix`` is that tuple over ``MultiPoly``.

Monomials are stored in a canonical sorted form, so polynomial equality is
structural and exact; this is what makes symbolic representation images
directly comparable.  No division, no floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# A monomial: ((var_index, exponent), ...) sorted by var index, exponents >= 1.
Mono = tuple

KINDS = ("tau", "eta", "zeta")
_DECIMAL = re.compile("-?[0-9]+").fullmatch  # a coefficient string as to_json writes it


@dataclass(frozen=True)
class Variable:
    """A formal transcendental attached to an arrow.

    Variables are globally ordered by (arrow declaration position, kind
    order tau < eta < zeta); ``index`` is that position.
    """

    arrow: str
    kind: str
    index: int

    @property
    def name(self) -> str:
        return f"{self.kind}({self.arrow})"


def variable_table(arrow_names) -> dict[tuple[str, str], Variable]:
    """The tau/eta/zeta triple for each arrow, canonically indexed; a
    repeated arrow name is refused, as its triple would not sit at its position."""
    table: dict[tuple[str, str], Variable] = {}
    for i, arrow in enumerate(arrow_names):
        if (arrow, "tau") in table:
            raise ValueError(f"duplicate arrow id {arrow!r}")
        for j, kind in enumerate(KINDS):
            table[(arrow, kind)] = Variable(arrow, kind, 3 * i + j)
    return table


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


class MultiPoly:
    """A sparse polynomial: map from monomial to nonzero integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Mono, int] = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        if type(c) is not int:  # a float or bool would be written as a coefficient no reader takes
            raise ValueError(f"a constant polynomial needs an int, not {c!r}")
        return cls({(): c})

    @classmethod
    def variable(cls, index: int) -> "MultiPoly":
        return cls({((index, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @staticmethod
    def _coerce(value):
        if isinstance(value, MultiPoly):
            return value
        if type(value) is int:
            return MultiPoly.const(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return MultiPoly(terms)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return MultiPoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {()}:  # a constant equals, so hashes as, its integer
            return hash(self.terms.get((), 0))
        return hash(self.key())

    def sorted_terms(self) -> list[tuple[Mono, int]]:
        """Terms in the canonical graded order (total degree, then monomial)."""
        return sorted(self.terms.items(), key=lambda item: (_mono_deg(item[0]), item[0]))

    def key(self) -> tuple:
        """Canonical hashable form; equal polynomials have equal keys."""
        return tuple((m, c) for m, c in self.sorted_terms())

    def evaluate(self, point, modulus: int) -> int:
        """The value modulo ``modulus`` with each variable ``v`` set to
        ``point(v)``; a ring homomorphism, so equal polynomials get equal
        values and products evaluate to products."""
        total = 0
        for mono, coeff in self.terms.items():
            for v, e in mono:
                coeff = coeff * pow(point(v), e, modulus) % modulus
            total += coeff
        return total % modulus

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed or zero."""
        degrees = {_mono_deg(m) for m in self.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def __repr__(self):
        if self.is_zero:
            return "MultiPoly(0)"
        return f"MultiPoly({dict(self.sorted_terms())!r})"

    def to_json(self) -> list:
        return [
            {"coeff": str(c), "exps": [[v, e] for v, e in m]}
            for m, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data) -> "MultiPoly":
        """Inverse of ``to_json``; raises ValueError on a malformed term."""
        terms = {}
        try:
            for term in data:
                mono = tuple(sorted((v, e) for v, e in term["exps"]))
                # a repeated variable would lose exponents in _mono_mul, a repeated monomial a term
                if mono in terms or len(dict(mono)) != len(mono) or not all(
                    type(v) is int and type(e) is int and v >= 0 and e >= 1
                    for v, e in mono
                ):
                    raise ValueError
                coeff = term["coeff"]
                if type(coeff) is not int and not _DECIMAL(coeff):
                    raise ValueError
                terms[mono] = int(coeff)
        except (TypeError, KeyError, ValueError):
            raise ValueError(
                "a polynomial is a list of terms {\"coeff\": integer or decimal string, "
                "\"exps\": [[variable >= 0, exponent >= 1], ...]} with distinct integer "
                "variables and exponents, each monomial once"
            ) from None
        return cls(terms)


def identity(size: int) -> tuple:
    """The size x size integer identity matrix, as a tuple of rows; its
    entries equal, and hash as, the constant polynomials 1 and 0, so it
    serves every ring here."""
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def mat_mul(a, b) -> tuple:
    """The exact product a @ b of matrices given as sequences of rows, over
    any ring (integers, ``MultiPoly``), as a tuple of rows."""
    rows, mid, cols = len(a), len(b), len(b[0])
    if len(a[0]) != mid:
        raise ValueError(f"shape mismatch: {rows}x{len(a[0])} @ {mid}x{cols}")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(cols))
        for i in range(rows)
    )


class PolyMatrix(tuple):
    """A rectangular matrix over MultiPoly: the tuple of its rows, each a
    tuple of entries, in the form ``mat_mul`` takes.  It equals and hashes
    as its rows, and ``+`` and ``*`` join and repeat rows, as for tuples."""

    __slots__ = ()

    def __new__(cls, rows):
        """The matrix with these rows, ``int`` entries made constants."""
        rows = tuple(
            tuple(e if isinstance(e, MultiPoly) else MultiPoly.const(e) for e in row)
            for row in rows
        )
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("a matrix needs one or more rows of one nonzero length")
        return super().__new__(cls, rows)

    @classmethod
    def identity(cls, size: int) -> "PolyMatrix":
        return cls(identity(size))

    rows = property(len)
    cols = property(lambda self: len(self[0]))

    def entry(self, i: int, j: int) -> MultiPoly:
        return self[i][j]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return PolyMatrix(mat_mul(self, other))

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self))

    def evaluate(self, point, modulus: int) -> tuple:
        """Every entry evaluated (see ``MultiPoly.evaluate``), as a tuple of
        rows of integers in ``range(modulus)``."""
        return tuple(tuple(e.evaluate(point, modulus) for e in row) for row in self)

    def key(self) -> tuple:
        return tuple(tuple(e.key() for e in row) for row in self)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self]

    @classmethod
    def from_json(cls, data) -> "PolyMatrix":
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ValueError("a matrix is a list of rows")
        return cls([[MultiPoly.from_json(e) for e in row] for row in data])
