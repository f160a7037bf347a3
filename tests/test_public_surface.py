"""The package's public surface, pinned: adding or removing a public name
is a deliberate edit of the list below."""

import inspect

import pathrep

PUBLIC = [
    "Arrow", "CycleBasis", "ExtLen", "GradedRep", "INF", "KINDS", "MultiPoly", "Path", "PolyMatrix", "Quiver",
    "QuiverError", "Stabilization", "SymbolicRep", "Variable", "VerifyReport", "ZERO", "allocate_primes",
    "analysis", "arrow_path", "build_path_rep", "build_truncated_rep", "component_arrays", "compose",
    "corner_entry", "d_value", "effdim_path", "effdim_truncated", "enumerate_paths",
    "exhaustive_lower_bound_f2", "factorize_cycle", "first_return_cycles", "line_quiver_effdim",
    "loop_matrices", "make_path", "parse_quiver", "path_str", "rep_of_path", "stabilization", "trivial",
    "variable_table", "verify_filtration", "verify_path_rep", "verify_truncated",
]


def test_public_names_are_the_pinned_list():
    """Names without a leading underscore, submodules left out."""
    names = sorted(n for n in dir(pathrep) if not n.startswith("_") and not inspect.ismodule(getattr(pathrep, n)))
    assert names == PUBLIC == sorted(PUBLIC)
