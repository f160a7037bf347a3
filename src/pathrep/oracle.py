"""Independent brute-force verification of representations.

A truncated representation is checked completely: every semigroup element
is proved to act nonzero and distinctly, or is enumerated and compared.  A
path-semigroup representation is checked up to a length bound (faithfulness
beyond the bound is a theorem; the bound guards the implementation).  The
lower-bound search over the two-element field exhausts every dimension
splitting and every arrow assignment on deliberately tiny instances.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass

from .paths import Path, head_counts, path_str, walk
from .quiver import Quiver, analyse_graph, component_arrays
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
# A probe's key weighs its coordinate k by _KEY_BASE^k: SplitMix64's golden-ratio constant.
_KEY_BASE = 0x9E3779B97F4A7C15 % _P

# The most elements one verification may check (see the README's scale limits).
VERIFY_BUDGET = 2_000_000


def _check_budget(q: Quiver, max_len: int, flag: str | None = None) -> int:
    """The number of elements a check covers, the zero element and every
    path of length at most max_len; refuse, before walking, more than
    ``VERIFY_BUDGET``.  The paths are counted by head vertex
    (``paths.head_counts``), not built, up to the level that passes the
    budget.  When the counts equal those saved at an earlier level, every
    later level repeats them with that period, so whole periods are added
    at once and a huge bound costs no more levels than the counts take to
    repeat.  Saving the counts at power-of-two levels (Brent's cycle
    detection) finds a repeat soon after it starts, and keeps one level.
    ``flag`` names the length bound a caller can lower."""
    total, length = 1, 0  # the zero element counts too
    saved = (None, 0, 0)  # counts at the last power-of-two level, that level, the total before it
    for ending in head_counts(q):
        if length > max_len:
            break
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
    return total


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
    """Complete faithfulness check of a truncated representation: the
    nonzero paths of length < N, the trivial paths and the zero element act
    nonzero and pairwise differently, and every length-N composite as zero
    (``_verify``, with the relation level)."""
    if not isinstance(rep, GradedRep):
        raise ValueError("verify_truncated needs a truncated representation")
    if rep.N != N:
        raise ValueError(f"representation was built for N={rep.N}, not N={N}")
    return _verify(rep, q, N - 1, relation=True)


def _verify(rep, q: Quiver, max_len: int, relation: bool) -> VerifyReport:
    """The one check of both kinds: paths of length at most max_len and,
    with ``relation``, the length max_len + 1 composites that must be zero.
    Each arrow is scanned once into exact sparse rows (``_sparse``).  The
    probe pass (``_probe_blocks``) on those rows through F (integers mod
    ``_P``, polynomials evaluated there at ``_point``, once per variable)
    and, with ``relation``, the support proof (``_supports_vanish``) are
    exact when they pass; otherwise the exact walk (``_check_exact``)
    decides.  Each start probe holds the powers of r, ``_point`` at the
    first index above every variable used, so r is no variable's value."""
    _check_match(rep, q)
    checked = _check_budget(q, max_len, None if relation else "--max-len")
    dims = list(rep.dims.values())
    rows = [_sparse(m) for m in rep.matrices.values()]
    points: dict = {}  # variable index -> its value

    def point(index: int) -> int:
        return points[index] if index in points else points.setdefault(index, _point(index))

    fps = [[tuple([(k, e % _P if isinstance(e, int) else e.evaluate(point, _P)) for k, e in row])
            for row in m] for m in rows]
    r = _point(max(points, default=-1) + 1)
    starts = [tuple(pow(r, k, _P) for k in range(1, d + 1)) for d in dims]
    if _probe_blocks(q, max_len, starts, fps) and (
            not relation or _supports_vanish(q, max_len + 1, dims, rows)):
        return VerifyReport(EFFECTIVE, checked, max_len)
    return _check_exact(q, max_len + 1, dims, rows, relation)


def _sparse(m) -> tuple:
    """A matrix's rows, each the ``(column, entry)`` pairs of its nonzero entries."""
    return tuple(tuple([(k, e) for k, e in enumerate(row) if e]) for row in m)


def _supports_vanish(q: Quiver, N: int, dims, rows) -> bool:
    """Whether supports prove every length-N composite zero: entry (i, j)
    of a path's image sums over the walks from basis vector j to i along the
    path in the graph with an edge k -> i for each pair (k, _) in row i of
    an arrow's sparse ``rows``, so no walk of N edges proves it.  The
    longest walk is the largest l- of ``quiver.analyse_graph``, INF past a cycle."""
    offset = list(itertools.accumulate(dims, initial=0))
    out: list = [[] for _ in range(offset[-1])]  # successor nodes, as in the quiver's own successor table
    for a, m in zip(q.arrows, rows):
        for i, row in enumerate(m):
            for k, _ in row:
                out[offset[a.tail] + k].append(offset[a.head] + i)
    return max(analyse_graph(out)[3], default=0) < N


def _check_exact(q: Quiver, N: int, dims, rows, relation: bool) -> VerifyReport:
    """``_check_truncated`` on the exact images of the arrows with sparse
    ``rows`` (see ``_sparse``), the one exact check of both kinds.

    Each image is carried as its sparse rows, each vertex starting from its
    identity block, and each step maps them through the arrow
    (``_map_rows``).  A graded arrow has at most one nonzero per column, so
    a step costs about one product per nonzero entry of the prefix's image
    instead of a dense matrix product.  The step sums exactly and drops
    zero sums, whatever the number of nonzero entries in a row, so the
    form is canonical: two images are equal exactly when their dense
    matrices are, and a zero row is ``()``, so an image is zero exactly
    when its matrix is; the reports are those of the dense comparison.
    """
    identities = [tuple(((j, 1),) for j in range(d)) for d in dims]
    status = _check_truncated(q, N, identities.__getitem__, lambda ai, m: _map_rows(rows[ai], m), relation)
    return _report(q, N, *status)


def _map_rows(a_rows, m_rows) -> tuple:
    """The sparse rows of a @ m, from the sparse rows of both: row i of the
    product sums ``a * v`` into column j for every nonzero ``a`` at column k
    of a's row i and every nonzero ``v`` at column j of m's row k."""
    out = []
    for row in a_rows:
        sums: dict = {}
        for k, a in row:
            for j, v in m_rows[k]:
                sums[j] = sums.get(j, 0) + a * v
        out.append(tuple(sorted([(j, s) for j, s in sums.items() if s])))
    return tuple(out)


def _check_truncated(q: Quiver, N: int, start, step, relation: bool = True):
    """Check the images that ``paths.walk(q, N, start, step)`` gives: paths
    shorter than N act nonzero and pairwise differently and, with
    ``relation``, every length-N composite acts as zero.  The path kind has
    no relation level, so its walk stops at length N - 1.  An image is a
    hashable tuple, zero exactly when none of its items is truthy.  Images
    with different endpoints act on different blocks, so the store keys on
    (source, target, hash of the image) and keeps the first path's arrows,
    not its image: a path that finds its key re-derives that path's image
    from ``start`` by ``step`` and compares exactly, and distinct images
    that share a hash are keyed on the image itself.  The walk takes no
    step past the first fault.  Returns ``(status, checked, fault)``,
    ``fault`` the walk tuples of the offending path or colliding pair
    (empty when effective); only ``_report`` names them.
    """
    checked = 1  # the zero element
    seen: dict = {}  # (source, target, hash of an image) -> the arrows of the first path with it
    for path in walk(q, N if relation else N - 1, start, step):
        tail, head, arrows, m = path
        if len(arrows) == N:
            if any(m):
                return RELATION_VIOLATION, checked, (path,)
            continue
        checked += 1
        if not any(m):
            return ZERO_ACTION, checked, (path,)
        other = seen.setdefault((tail, head, hash(m)), arrows)
        if other is not arrows and functools.reduce(lambda v, ai: step(ai, v), other, start(tail)) != m:
            other = seen.setdefault((tail, head, m), arrows)
        if other is not arrows:
            return COLLISION, checked, ((tail, head, other), path)
    return EFFECTIVE, checked, ()


def _report(q: Quiver, N: int, status: str, checked: int, fault) -> VerifyReport:
    """The report of a ``_check_truncated`` outcome, its fault's paths named."""
    witness = tuple(path_str(q, Path(*p[:3])) for p in fault)
    return VerifyReport(status, checked, N - 1, witness or None)


def _point(index: int) -> int:
    """The value that variable ``index`` takes in a fingerprint: fixed and
    pseudo-random (SplitMix64), so that distinct images rarely agree there."""
    z = (index + 1) * 0x9E3779B97F4A7C15 % (1 << 64)
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % (1 << 64)
    z = (z ^ z >> 27) * 0x94D049BB133111EB % (1 << 64)
    return (z ^ z >> 31) % (_P - 1) + 1


def _lane_width(arrow_fps, dims) -> int:
    """The bits W of one lane of a packed probe block: the least multiple of
    64 that is at least 124 + the bit length of the largest row pair count
    or vertex dimension.  A lane holds less than 2^62 between steps (for
    any count below 2^59), so a row's sum of c products of a value below
    2^61 by a lane, or a key's sum of d, stays below 2^(W - 1) and no lane
    carries into its neighbour before a fold."""
    most = max([*map(len, itertools.chain.from_iterable(arrow_fps)), *dims, 0])
    return (124 + most.bit_length() + 63) // 64 * 64


def _lane_masks(width: int, n: int) -> tuple:
    """The masks of the low 61 bits of each of n lanes, and of the W - 61
    bits above them shifted down by 61: the two halves of a fold mod 2^61 - 1."""
    lane = width // 8
    return (int.from_bytes(_P.to_bytes(lane, "little") * n, "little"),
            int.from_bytes(((1 << width - 61) - 1).to_bytes(lane, "little") * n, "little"))


def _mul_probes(a_rows, n: int, coords, low: int, high: int) -> list:
    """Coordinates of a @ probes mod ``_P`` for a block of n probes, from a's
    sparse rows mod ``_P`` (see ``_verify``) and the block's coordinates.  One
    probe is a tuple of plain integers, reduced with one ``%`` per row.
    From two on, coordinate k is one integer whose lane j of W bits holds
    coordinate k of probe j, so each product and sum runs over the whole
    block as one big-integer operation, in C; the sum is then folded twice
    mod 2^61 - 1 lane by lane (``low`` and ``high`` from ``_lane_masks``),
    which leaves each lane below 2^62."""
    if n == 1:
        return [sum([a * coords[k] for k, a in row]) % _P for row in a_rows]
    out = []
    for row in a_rows:
        s = sum([a * coords[k] for k, a in row])
        s = (s & low) + (s >> 61 & high)
        out.append((s & low) + (s >> 61 & high))
    return out


def _probe_keys(n: int, coords, weights, width: int, low: int, high: int) -> list:
    """The key K = sum of w_k * X_k mod ``_P`` of each probe X of a block
    (see ``_mul_probes``), in [0, _P]: a linear map, so equal probes have
    equal keys and a zero probe the key 0 or _P.  A packed block's keys
    are summed over all lanes at once, folded three times into [0, _P]
    and read as the low 64-bit word of each lane."""
    key = sum(map(operator.mul, weights, coords))
    for _ in range(3):
        key = (key & low) + (key >> 61 & high)
    words = memoryview(key.to_bytes(width // 8 * n, sys.byteorder)).cast("Q")
    step = width // 64
    return words[(step - 1) * (sys.byteorder == "big")::step].tolist()


def _probe_blocks(q: Quiver, max_len: int, starts, arrow_fps) -> bool:
    """``_check_truncated``'s verdict on probes, without its order: whether
    no probe of a path of length at most max_len is zero and no two in one
    (source, target) block are equal.  A path with image M carries the
    probe F(M) v: F a ring homomorphism onto the integers mod ``_P``
    (``arrow_fps`` gives F of each arrow as sparse rows), and v its
    source's start column of powers of a value no variable takes.  Equal
    images have equal probes and a zero image has a zero probe, so a pass
    proves the images nonzero and distinct, exactly.

    A level maps each (source, head) block to its probe count n and
    coordinates (see ``_mul_probes``); no path is built.  Each block steps
    through each arrow out of its head in one ``_mul_probes`` call, and the
    blocks that reach one (source, h) are joined lane-wise by a shift and
    an or.  Then each new block is checked on its keys (``_probe_keys``,
    with weights the powers of ``_KEY_BASE``): no key is zero, and the
    block's set of keys grows by n.  A nonzero key proves the probe
    nonzero and distinct keys prove the probes distinct; a zero or equal
    key fails the pass like a zero or equal probe.  A fault ends the pass
    at the end of its level."""
    dims = list(map(len, starts))
    width = _lane_width(arrow_fps, dims)
    weights = [pow(_KEY_BASE, k, _P) for k in range(max(dims, default=0))]
    lanes, low, high = 1, 0, 0  # masks for up to `lanes` lanes, grown on demand
    moves = q.out_arrows
    level = {(v, v): (1, starts[v]) for v in range(q.n)}
    seen: dict = {}  # (source, target) -> the key of every probe in that block
    for length in range(max_len + 1):
        if length:
            stepped: dict = {}
            for (source, head), (n, coords) in level.items():
                for ai, h in moves[head]:
                    out = _mul_probes(arrow_fps[ai], n, coords, low, high)
                    joined = stepped.get((source, h))
                    if joined is None:
                        stepped[source, h] = (n, out)
                    else:
                        shift = width * joined[0]
                        stepped[source, h] = (joined[0] + n, [x | y << shift for x, y in zip(joined[1], out)])
            if not stepped:
                break
            level = stepped
        for block, (n, coords) in level.items():
            images = seen.setdefault(block, set())
            size = len(images)
            if n == 1:
                images.add(sum(map(operator.mul, weights, coords)) % _P)
            else:
                if n > lanes:
                    lanes = 2 * n
                    low, high = _lane_masks(width, lanes)
                images.update(_probe_keys(n, coords, weights, width, low, high))
            if len(images) != size + n or 0 in images or _P in images:
                return False
    return True


def verify_path_rep(rep: SymbolicRep, q: Quiver, max_len: int | None = None) -> VerifyReport:
    """Bounded faithfulness check of a path-semigroup representation
    (``_verify``, without a relation level).

    All paths of length <= max_len (default 2n + 2, enough to exercise
    every first-return cycle and inter-component transition at this scale)
    must act nonzero and pairwise differently.
    """
    if not isinstance(rep, SymbolicRep):
        raise ValueError("verify_path_rep needs a path-semigroup representation")
    if max_len is None:
        max_len = 2 * q.n + 2
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return _verify(rep, q, max_len, relation=False)


def verify_filtration(rep: GradedRep, q: Quiver) -> VerifyReport:
    """Audit the grade structure of a truncated representation.

    Every arrow matrix must have at most one nonzero entry per column, and
    that entry must send its basis vector strictly upward in grade without
    ever reaching grade N.  Vertices with an ungraded vector sit at an
    effective grade equal to the longest path into them: INF when a cycle
    leads into them, so that no nonzero entry may enter or leave them.
    Grades that do not fit the dims, one per dimension, are refused.
    """
    if not isinstance(rep, GradedRep):
        raise ValueError("verify_filtration needs a truncated representation")
    _check_match(rep, q)
    for x, d in rep.dims.items():
        g = rep.grades.get(x, ())
        if not (g is None and d == 1 or isinstance(g, tuple) and len(g) == d):
            raise ValueError(f"vertex {x!r} needs a tuple of one grade per dimension ({d}), or None at dimension 1")
    comp_of, _, _, lminus, _ = component_arrays(q)
    basis_grades = [rep.grades[x] or (lminus[comp_of[i]],) for i, x in enumerate(q.vertices)]
    checked = 0
    for a in q.arrows:
        tgt = basis_grades[a.head]
        for g_src, col in zip(basis_grades[a.tail], _sparse(zip(*rep.matrices[a.name]))):
            checked += 1
            if len(col) > 1 or col and not g_src < tgt[col[0][0]] <= rep.N - 1:
                return VerifyReport(RELATION_VIOLATION, checked, 0, (a.name,))
    return VerifyReport(EFFECTIVE, checked, 0)


def exhaustive_lower_bound_f2(q: Quiver, N: int, total_dim: int) -> bool:
    """Whether some faithful representation of the level-N truncation exists
    with the given total dimension, over the two-element field.

    Tries every splitting of total_dim into dims >= 1 (else a trivial path is
    zero) and, arrow by arrow, every 0/1 matrix, checked at once on the quiver
    of the arrows so far: its elements keep their images in the whole quiver,
    so its fault fails every extension.  Refuses instances past the guard.
    """
    if N < 1 or total_dim < 1:
        raise ValueError("N and total_dim must be >= 1")
    if total_dim > 4 or len(q.arrows) * total_dim * total_dim > 20:
        raise ValueError("exhaustive search bounds exceeded: "
                         "need total_dim <= 4 and |arrows| * total_dim^2 <= 20")
    arrows = [(a.name, q.vertices[a.tail], q.vertices[a.head]) for a in q.arrows]
    prefixes = [Quiver(q.vertices, arrows[:k]) for k in range(1, len(arrows) + 1)]  # indices as in q
    maps = [None] * len(arrows)  # maps[i] is arrow i's table while it is assigned

    def extends(k: int) -> bool:  # whether the first k arrows' maps extend to a faithful assignment
        if k == len(arrows):
            return True
        for maps[k] in _f2_maps(dims[q.arrows[k].head], dims[q.arrows[k].tail]):
            if (_check_truncated(prefixes[k], N, start, lambda i, m: tuple(map(maps[i].__getitem__, m)))[0]
                    == EFFECTIVE and extends(k + 1)):
                return True
        return False

    for cuts in itertools.combinations(range(1, total_dim), q.n - 1):
        dims = [b - a for a, b in itertools.pairwise((0, *cuts, total_dim))]
        start = [tuple(1 << j for j in range(d)) for d in dims].__getitem__
        if extends(0):
            return True
    return False


def _f2_maps(rows: int, cols: int):
    """Every linear map F2^cols -> F2^rows as its table, entry x the bit mask of
    the image of the vector with mask x, built as it is reached, in column-mask
    tuple order: a table t of j columns extended by column v has t[x] ^ v at x + 2^j."""
    tables = iter([(0,)])
    for _ in range(cols):
        tables = (t + tuple([y ^ v for y in t]) for t in tables for v in range(1 << rows))
    return tables
