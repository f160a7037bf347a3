"""Exact computation of minimal faithful matrix representations of path
semigroups and truncated path semigroups of finite quivers.

The public surface is the names imported below."""

from .dimension import (
    Stabilization,
    analysis,
    d_value,
    effdim_path,
    effdim_truncated,
    line_quiver_effdim,
    stabilization,
)
from .oracle import (
    VerifyReport,
    exhaustive_lower_bound_f2,
    verify_filtration,
    verify_path_rep,
    verify_truncated,
)
from .paths import (
    ZERO,
    CycleBasis,
    Path,
    arrow_path,
    compose,
    enumerate_paths,
    factorize_cycle,
    first_return_cycles,
    make_path,
    path_str,
    trivial,
)
from .polyring import KINDS, MultiPoly, PolyMatrix, Variable, variable_table
from .quiver import (
    INF,
    Arrow,
    ExtLen,
    Quiver,
    QuiverError,
    component_arrays,
    parse_quiver,
)
from .repbuild import (
    GradedRep,
    SymbolicRep,
    allocate_primes,
    build_path_rep,
    build_truncated_rep,
    corner_entry,
    loop_matrices,
    rep_of_path,
)
