"""Checks of the program's outputs against ``reference``, and the negative
controls.  Each check returns a list of error strings; empty means passed.
They run outside the timed part and read the files the program wrote."""

from __future__ import annotations

import json
import os
import random

import reference


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_quiver(path):
    with open(path, encoding="utf-8") as fh:
        return reference.parse_quiver(fh.read())


def _check_report(where, report, max_length, expected_checked):
    want = {"status": "effective", "checked": expected_checked,
            "max_length": max_length, "witness": None}
    if report != want:
        return [f"{where}: verify reported {report}, expected {want}"]
    return []


def path_verify_elements(quiver) -> int:
    """The elements ``verify QUIVER`` must check: 1 (the zero element) plus
    the number of paths of length at most 2n + 2."""
    return 1 + sum(reference.path_counts(quiver, 2 * len(quiver[0]) + 2))


def check_path_verify(inst) -> tuple[list[str], int]:
    """``verify QUIVER --json``: effective, and ``checked`` is
    :func:`path_verify_elements`."""
    q = _read_quiver(inst.quiver)
    expected = path_verify_elements(q)
    report = _load(inst.outputs[0])
    return (_check_report(inst.quiver, report, 2 * len(q[0]) + 2, expected),
            report.get("checked", 0))


def check_graded(inst) -> tuple[list[str], int]:
    """``construct --truncate N`` then ``verify --rep``: block dimensions
    from the formula, labels allocated in order, and an effective verdict
    that checked 1 plus every path of length below N."""
    q = _read_quiver(inst.quiver)
    N, labels = inst.N, inst.labels
    rep = _load(inst.outputs[0])
    errors = []
    dims = reference.truncated_dims(q, N)
    if rep.get("vertex_dims") != dims:
        errors.append(f"{inst.quiver} N={N}: vertex_dims differ from the formula")
    if (rep.get("kind"), rep.get("truncation"), rep.get("labels")) != ("truncated", N, labels):
        errors.append(f"{inst.quiver} N={N}: wrong kind, truncation or labels")
    order = [(a, k) for a, _, _ in q[1] for k in range(N)]
    if labels == "primes":
        want = dict(zip(order, reference.primes(len(order))))
        table = rep.get("prime_table", [])
        got = {(a, k): p for a, k, p in table}
    else:
        want = {key: [{"coeff": "1", "exps": [[i, 1]]}] for i, key in enumerate(order)}
        table = rep.get("label_table", [])
        got = {(a, k): p for a, k, p in table}
    if len(table) != len(order) or got != want:
        errors.append(f"{inst.quiver} N={N}: {labels} label table is not the first {len(order)} labels in order")
    report = _load(inst.outputs[1])
    expected = 1 + sum(reference.path_counts(q, N - 1))
    errors += _check_report(f"{inst.quiver} N={N} {labels}", report, N - 1, expected)
    return errors, report.get("checked", 0)


def check_analyze(inst) -> tuple[list[str], int]:
    """``analyze --truncate N --json``: every per-vertex field and total
    from the reference analysis; ``scc`` must group the vertices as the
    reference components do and number them successors first."""
    q = _read_quiver(inst.quiver)
    vertices, totals, comp = reference.analyze_report(q, inst.N)
    data = _load(inst.outputs[0])
    got = data.get("vertices", {})
    errors = []
    if list(got) != q[0]:
        return [f"{inst.quiver}: vertex list differs"], 0
    for v, want in vertices.items():
        entry = {k: got[v].get(k) for k in want}
        if entry != want:
            errors.append(f"{inst.quiver}: vertex {v} has {entry}, expected {want}")
            break
    if data.get("totals") != totals:
        errors.append(f"{inst.quiver}: totals {data.get('totals')}, expected {totals}")
    scc = [got[v]["scc"] for v in q[0]]
    pairing = set(zip(scc, comp))
    if len(pairing) != len(set(scc)) or len(pairing) != len(set(comp)):
        errors.append(f"{inst.quiver}: scc grouping differs from the reference components")
    index = {v: i for i, v in enumerate(q[0])}
    for _, t, h in q[1]:
        if scc[index[t]] < scc[index[h]]:
            errors.append(f"{inst.quiver}: scc numbering puts {t} before its successor {h}")
            break
    return errors, len(q[0])


def _control(run_cli, workdir, qpath, extra, rng):
    """One control; returns an error string, or None when it passed."""
    n_arrows = len(_read_quiver(qpath)[1])
    rep_path = os.path.join(workdir, "control-rep.json")
    bad_path = os.path.join(workdir, "control-bad.json")
    out_path = os.path.join(workdir, "control-out.json")
    rc = run_cli(["construct", qpath, *extra, "--out", rep_path])
    if rc != 0:
        return f"control construct {qpath} {extra} exited {rc}"
    rep = _load(rep_path)
    victim = rep["arrows"][rng.randrange(n_arrows)]
    zero = [] if rep["kind"] == "path" else 0
    victim["matrix"] = [[zero for _ in row] for row in victim["matrix"]]
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    rc = run_cli(["verify", qpath, "--rep", bad_path, "--json", "--out", out_path])
    status = _load(out_path).get("status") if rc in (0, 1) else None
    if rc != 1 or status != "zero_action":
        return (f"control {rep['kind']} {qpath} (arrow {victim['id']} zeroed): "
                f"exit {rc}, status {status}; expected exit 1, zero_action")
    return None


def negative_controls(run_cli, workdir, quiver_paths, seed) -> tuple[list[str], int]:
    """Representations with one arrow's matrix set to zero are not faithful,
    so ``verify --rep`` must exit 1 with status ``zero_action``, for the
    path kind and for the truncated kind (N = 3).  A control that raises
    counts as a failed control; it does not end the run.

    Returns the errors and the number of controls run.
    """
    rng = random.Random(seed + 3)
    errors = []
    runs = 0
    for qpath in quiver_paths:
        for extra in ([], ["--truncate", "3"]):
            runs += 1
            try:
                error = _control(run_cli, workdir, qpath, extra, rng)
            except Exception as exc:  # a crash is a failed control, not a crash of the run
                error = f"control {qpath} {extra} raised {type(exc).__name__}: {exc}"
            if error:
                errors.append(error)
    return errors, runs
