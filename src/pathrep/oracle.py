"""Independent brute-force verification of representations.

A truncated representation is checked completely: every semigroup element
is enumerated and compared.  A path-semigroup representation is checked up
to a length bound (faithfulness beyond the bound is a theorem; the bound
guards the implementation).  The lower-bound search over the two-element
field exhausts every dimension splitting and every arrow assignment on
deliberately tiny instances.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass

from .paths import Path, head_counts, path_str, walk
from .polyring import identity
from .quiver import Quiver, length_profile
from .repbuild import GradedRep, SymbolicRep

EFFECTIVE = "effective"
COLLISION = "collision"
ZERO_ACTION = "zero_action"
RELATION_VIOLATION = "relation_violation"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a verification run.

    ``checked`` counts the semigroup elements examined, the zero element
    included.  A non-effective status always carries a concrete witness:
    the offending path, or the colliding pair.
    """

    status: str
    checked: int
    max_length: int
    witness: tuple[str, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.status == EFFECTIVE

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "checked": self.checked,
            "max_length": self.max_length,
            "witness": None if self.witness is None else list(self.witness),
        }


# Fingerprints live modulo the Mersenne prime 2^61 - 1.
_P = (1 << 61) - 1

# The most elements one verification may check (see the README's scale limits).
VERIFY_BUDGET = 2_000_000


def _check_budget(q: Quiver, max_len: int, flag: str | None = None):
    """Refuse, before walking, a check of more than ``VERIFY_BUDGET``
    elements: the zero element and every path of length at most max_len.
    The paths are counted by head vertex (``paths.head_counts``), not
    built, up to the level that passes the budget.  When the counts equal
    those saved at an earlier level, every later level repeats them with
    that period, so whole periods are added at once and a huge bound costs
    no more levels than the counts take to repeat.  Saving the counts at
    power-of-two levels (Brent's cycle detection) finds a repeat soon after
    it starts, and keeps one level.  ``flag`` names the length bound a
    caller can lower."""
    total, length = 1, 0  # the zero element counts too
    saved = (None, 0, 0)  # counts at the last power-of-two level, that level, the total before it
    for ending in head_counts(q):
        if length > max_len:
            return
        if ending == saved[0]:
            period, gain = length - saved[1], total - saved[2]
            skip = min((VERIFY_BUDGET - total) // gain, (max_len - length) // period)
            length, total = length + skip * period, total + skip * gain
        elif not length & (length - 1):
            saved = (ending, length, total)
        total += sum(ending)
        if total > VERIFY_BUDGET:
            alone = f" by length {length} alone" if length < max_len else ""
            message = (f"verifying paths up to length {max_len} checks {total:,} elements"
                       f"{alone}, above the budget of {VERIFY_BUDGET:,}")
            if flag and length > 1:
                message += f"; the largest {flag} that fits is {length - 1}"
            raise ValueError(message)
        length += 1


def _check_match(rep, q: Quiver):
    if tuple(rep.dims) != q.vertices or tuple(rep.matrices) != q.arrow_names():
        raise ValueError("representation does not match the quiver")
    for a in q.arrows:
        m = rep.matrices[a.name]
        rows, cols = rep.dims[q.vertices[a.head]], rep.dims[q.vertices[a.tail]]
        if len(m) != rows or any(len(row) != cols for row in m):
            raise ValueError(
                f"arrow {a.name!r} needs a {rows}x{cols} matrix (head dim x tail dim)"
            )


def verify_truncated(rep: GradedRep, q: Quiver, N: int) -> VerifyReport:
    """Complete faithfulness check of a truncated representation.

    Enumerates every element (all nonzero paths of length < N, the trivial
    paths, and the zero element) on its exact images; see ``_check_exact``.
    """
    if not isinstance(rep, GradedRep):
        raise ValueError("verify_truncated needs a truncated representation")
    if rep.N != N:
        raise ValueError(f"representation was built for N={rep.N}, not N={N}")
    _check_match(rep, q)
    _check_budget(q, N - 1)
    return _check_exact(rep, q, N)


def _check_exact(rep, q: Quiver, N: int, relation: bool = True) -> VerifyReport:
    """``_check_truncated`` on the exact images of ``rep``, the one exact
    check of both kinds.

    Each image is carried as its columns, and a column as the sorted tuple
    of the ``(row, value)`` pairs of its nonzero entries; each vertex
    starts from its identity block.  A graded arrow has at most one
    nonzero per column, so a step costs about one product per column
    instead of a dense matrix product.  The step sums exactly and drops
    zero sums, whatever the number of nonzero entries in a column, so the
    form is canonical: two images are equal, or zero, exactly when their
    dense matrices are, and the reports are those of the dense comparison.
    """
    arrow_cols = [
        tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*m))
        for m in rep.matrices.values()
    ]
    return _check_truncated(
        q,
        N,
        lambda v: tuple(((j, 1),) for j in range(rep.dims[q.vertices[v]])),
        lambda ai, m: _map_columns(arrow_cols[ai], m),
        relation,
    )


def _map_columns(a_cols, m_cols) -> tuple:
    """The columns of a @ m, from the sparse columns of both: column j of
    the product sums ``a * v`` into row i for every nonzero ``v`` at row k
    of m's column j and every nonzero ``a`` at row i of a's column k."""
    out = []
    for col in m_cols:
        sums: dict = {}
        for k, v in col:
            for i, a in a_cols[k]:
                sums[i] = sums.get(i, 0) + a * v
        out.append(tuple(sorted([(i, s) for i, s in sums.items() if s])))
    return tuple(out)


def _check_truncated(q: Quiver, N: int, start, step, relation: bool = True) -> VerifyReport:
    """Check the images that ``paths.walk(q, N, start, step)`` gives: paths
    shorter than N act nonzero and pairwise differently and, with
    ``relation``, every length-N composite acts as zero.  The path kind has
    no relation level, so its walk stops at length N - 1.  Images with
    different endpoints act on different blocks, so comparisons key on
    (source, target, image); an image is a hashable tuple of rows or
    columns, and is zero when none of them holds a truthy item.  The walk
    takes no step past the first fault.
    """
    checked = 1  # the zero element
    seen: dict = {}  # (source, target, image) -> the first path with it
    for length, level in walk(q, N if relation else N - 1, start, step):
        for path in level:
            tail, head, arrows, m = path
            zero = not any(map(any, m))
            if length == N:
                if not zero:
                    return VerifyReport(RELATION_VIOLATION, checked, N - 1, _witness(q, path))
                continue
            checked += 1
            if zero:
                return VerifyReport(ZERO_ACTION, checked, N - 1, _witness(q, path))
            other = seen.setdefault((tail, head, m), path)
            if other is not path:
                return VerifyReport(COLLISION, checked, N - 1, _witness(q, other, path))
    return VerifyReport(EFFECTIVE, checked, N - 1)


def _witness(q: Quiver, *paths) -> tuple[str, ...]:
    return tuple(path_str(q, Path(*p[:3])) for p in paths)


def _point(index: int) -> int:
    """The value that variable ``index`` takes in a fingerprint: fixed and
    pseudo-random, so that distinct polynomial images rarely agree there."""
    return random.Random(index).randrange(1, _P)


def _mul_mod(a_rows, b_cols, modulus: int):
    """The columns of a @ b over the integers mod ``modulus``, from the rows
    of a and the columns of b; a walk's images are kept as their columns,
    so its products need no transposing."""
    return tuple(
        [tuple([sum(map(operator.mul, r, c)) % modulus for r in a_rows]) for c in b_cols]
    )


def verify_path_rep(rep: SymbolicRep, q: Quiver, max_len: int | None = None) -> VerifyReport:
    """Bounded faithfulness check of a path-semigroup representation.

    All paths of length <= max_len (default 2n + 2, enough to exercise
    every first-return cycle and inter-component transition at this scale)
    must act nonzero and pairwise differently.

    One check, ``_check_truncated`` without a relation level, runs in at
    most two passes.  The first walks probes: each vertex starts from a
    fixed column v of nonzero powers of a value no variable takes, and a
    path with image M carries ``F(M) v``, F evaluating at ``_point`` modulo
    the prime ``_P``.  That is a homomorphism, so equal images have equal
    probes and a zero image has a zero probe.  Probes all nonzero and
    pairwise different in their blocks prove the images so too, and that
    pass's ``effective`` is exact.  Any other outcome reruns the check on
    the exact images (``_check_exact``), and their report is returned.
    """
    if not isinstance(rep, SymbolicRep):
        raise ValueError("verify_path_rep needs a path-semigroup representation")
    _check_match(rep, q)
    if max_len is None:
        max_len = 2 * q.n + 2
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    _check_budget(q, max_len, "--max-len")
    point = functools.cache(_point)  # one value per variable index
    r = point(len(rep.variables))
    probes = [(tuple(pow(r, k, _P) for k in range(1, rep.dims[x] + 1)),) for x in q.vertices]
    arrow_fps = [m.evaluate(point, _P) for m in rep.matrices.values()]
    report = _check_truncated(q, max_len + 1, probes.__getitem__,
                              lambda ai, f: _mul_mod(arrow_fps[ai], f, _P), relation=False)
    if report.ok:
        return report
    return _check_exact(rep, q, max_len + 1, relation=False)


def verify_filtration(rep: GradedRep, q: Quiver) -> VerifyReport:
    """Audit the grade structure of a truncated representation.

    Every arrow matrix must have at most one nonzero entry per column, and
    that entry must send its basis vector strictly upward in grade without
    ever reaching grade N.  Vertices with an ungraded vector sit at an
    effective grade equal to the longest path into them.
    """
    if not isinstance(rep, GradedRep):
        raise ValueError("verify_filtration needs a truncated representation")
    _check_match(rep, q)
    prof = length_profile(q)
    basis_grades: dict[str, tuple[int, ...]] = {}
    for x in q.vertices:
        g = rep.grades[x]
        basis_grades[x] = g if g is not None else (int(prof[x][0]),)
    checked = 0
    for a in q.arrows:
        src = basis_grades[q.vertices[a.tail]]
        tgt = basis_grades[q.vertices[a.head]]
        m = rep.matrices[a.name]
        for col in range(len(src)):
            checked += 1
            nonzero_rows = [row for row in range(len(tgt)) if m[row][col]]
            if len(nonzero_rows) > 1:
                return VerifyReport(RELATION_VIOLATION, checked, 0, (a.name,))
            if nonzero_rows:
                g_src = src[col]
                g_tgt = tgt[nonzero_rows[0]]
                if not (g_src < g_tgt <= rep.N - 1):
                    return VerifyReport(RELATION_VIOLATION, checked, 0, (a.name,))
    return VerifyReport(EFFECTIVE, checked, 0)


def exhaustive_lower_bound_f2(q: Quiver, N: int, total_dim: int) -> bool:
    """Whether some faithful representation of the level-N truncation exists
    with the given total dimension, over the two-element field.

    Tries every splitting of total_dim over the vertices and every 0/1
    assignment of arrow matrices, checking the truncation relations and
    pairwise distinctness of all element images.  Refuses instances beyond
    the tractability guard.
    """
    if N < 1 or total_dim < 1:
        raise ValueError("N and total_dim must be >= 1")
    if total_dim > 4 or len(q.arrows) * total_dim * total_dim > 20:
        raise ValueError(
            "exhaustive search bounds exceeded: "
            "need total_dim <= 4 and |arrows| * total_dim^2 <= 20"
        )
    for dims in _compositions(total_dim, q.n):
        if 0 in dims:
            continue  # a trivial path would act as zero, clashing with the zero element
        if _f2_assignment_exists(q, N, dims):
            return True
    return False


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _f2_assignment_exists(q: Quiver, N: int, dims) -> bool:
    shapes = [(dims[a.head], dims[a.tail]) for a in q.arrows]
    choices = [range(2 ** (r * c)) for r, c in shapes]
    start = [identity(d) for d in dims].__getitem__
    for assignment in itertools.product(*choices):
        mats = [_bits_to_matrix(bits, r, c) for bits, (r, c) in zip(assignment, shapes)]
        if _check_truncated(q, N, start, lambda ai, m: _mul_mod(mats[ai], m, 2)).ok:
            return True
    return False


def _bits_to_matrix(bits: int, rows: int, cols: int):
    return tuple(
        tuple((bits >> (i * cols + j)) & 1 for j in range(cols)) for i in range(rows)
    )
