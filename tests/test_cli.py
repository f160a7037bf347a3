import copy
import gc
import json
import os
import pickle
import random
import re
import stat
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import pathrep
from pathrep import cli, repbuild
from pathrep.cli import _dumps, _graded_json, main
from pathrep.dimension import analysis, d_value, effdim_path, effdim_table, effdim_truncated, stabilization
from pathrep.polyring import MultiPoly
from pathrep.quiver import INF, Quiver, component_arrays, ext_to_json, parse_quiver
from pathrep.repbuild import GradedRep, build_path_rep, build_truncated_rep

LOOP = "vertex x\narrow a: x -> x\n"
TWO_LOOPS = "vertex x\narrow a: x -> x\narrow b: x -> x\n"
KRONECKER = "vertex x\nvertex y\narrow a: x -> y\narrow b: x -> y\n"
A2 = "vertex x\nvertex y\narrow a: x -> y\n"
A3 = "vertex x\nvertex y\nvertex z\narrow a: x -> y\narrow b: y -> z\n"


@pytest.fixture
def qfile(tmp_path):
    def write(text, name="q.quiver"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_analyze_loop_truncated(qfile, capsys):
    assert main(["analyze", qfile(LOOP), "--truncate", "5"]) == 0
    out = capsys.readouterr().out
    assert "eff.dim(P) = 1" in out
    assert "eff.dim(P_5) = 5" in out


def test_analyze_a3(qfile, capsys):
    assert main(["analyze", qfile(A3), "--truncate", "2"]) == 0
    assert "eff.dim(P_2) = 4" in capsys.readouterr().out


def test_analyze_two_loops(qfile, capsys):
    assert main(["analyze", qfile(TWO_LOOPS)]) == 0
    assert "eff.dim(P) = 2" in capsys.readouterr().out


def test_analyze_json_deterministic(qfile, capsys):
    path = qfile(LOOP)
    assert main(["analyze", path, "--truncate", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--truncate", "3", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["vertices"]["x"]["l_minus"] == "inf"
    assert data["vertices"]["x"]["K"] == [0, 2]
    assert data["totals"]["effdim_truncated"] == 3


def test_construct_a2_truncated(qfile, capsys):
    assert main(["construct", qfile(A2), "--truncate", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "truncated"
    assert data["arrows"][0]["matrix"] == [[2]]


def test_construct_two_loops_symbolic(qfile, capsys):
    assert main(["construct", qfile(TWO_LOOPS)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "path"
    assert data["vertex_dims"] == {"x": 2}
    assert [a["shape"] for a in data["arrows"]] == [[2, 2], [2, 2]]


def test_construct_truncation_level_one(qfile, capsys):
    assert main(["construct", qfile(A2), "--truncate", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertex_dims"] == {"x": 1, "y": 1}
    assert data["arrows"][0]["matrix"] == [[0]]


def test_construct_deterministic(qfile, capsys):
    path = qfile(KRONECKER)
    assert main(["construct", path, "--truncate", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["construct", path, "--truncate", "3"]) == 0
    assert first == capsys.readouterr().out


def test_consecutive_commands_share_no_state(qfile, capsys):
    # one parser serves every call of main; no flag may outlive its command
    path = qfile(A2)
    assert main(["verify", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "effective"
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out.startswith("status: effective\n")
    assert main(["construct", path, "--truncate", "2", "--labels", "symbolic"]) == 0
    assert json.loads(capsys.readouterr().out)["labels"] == "symbolic"
    assert main(["construct", path, "--truncate", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["labels"] == "primes"
    assert data["arrows"][0]["matrix"] == [[2]]


def test_verify_truncated_ok(qfile, capsys):
    assert main(["verify", qfile(LOOP), "--truncate", "3"]) == 0
    assert "status: effective" in capsys.readouterr().out


def test_verify_path_rep_ok(qfile, capsys):
    assert main(["verify", qfile(KRONECKER), "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert "status: effective" in out


def test_verify_sabotaged_rep_file(qfile, tmp_path, capsys):
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    data["arrows"][1]["matrix"] = data["arrows"][0]["matrix"]
    rep_path.write_text(json.dumps(data))
    code = main(["verify", quiver_path, "--rep", str(rep_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "collision" in out
    assert "a" in out and "b" in out


@pytest.mark.parametrize("args", [[], ["--truncate", "2"]], ids=["path", "truncated"])
def test_verify_rep_repeated_arrow_record(qfile, tmp_path, capsys, args):
    """A second record for arrow a is refused, whether it copies a's record
    or carries b's matrix (which, as the last record, made a collide
    with b)."""
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, *args, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    a, b = data["arrows"]
    for repeat in (dict(a), {**a, "matrix": b["matrix"]}):
        data["arrows"] = [a, b, repeat]
        rep_path.write_text(json.dumps(data))
        assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "arrows[2] repeats arrow id 'a'" in err


@pytest.mark.parametrize("labels, table, edit, message", [
    ("symbolic", "label_table", lambda d: d["label_table"].append(["a", 0, d["label_table"][1][2]]),
     "representation field 'label_table' repeats an (arrow, grade) key"),
    ("primes", "prime_table", lambda d: d["prime_table"].append(["a", 0, d["prime_table"][1][2]]),
     "representation field 'prime_table' repeats an (arrow, grade) key"),
    ("symbolic", "label_table", lambda d: d.update(label_variables=[1, 2]),
     "representation field 'label_variables' needs a list of names (strings)"),
    ("primes", "prime_table", lambda d: d["prime_table"][0].__setitem__(2, 999),
     "representation field 'prime_table' lacks a label that an arrow matrix holds"),
    ("symbolic", "label_table", lambda d: d["label_table"][0].__setitem__(2, [{"coeff": "1", "exps": [[9, 1]]}]),
     "representation field 'label_table' lacks a label that an arrow matrix holds"),
    ("primes", "prime_table", lambda d: d["prime_table"].append(["zz", 7, 11]),
     "representation field 'prime_table' has a row for no arrow at a grade below N"),
    ("primes", "prime_table", lambda d: d["prime_table"][2].__setitem__(1, 3),
     "representation field 'prime_table' has a row for no arrow at a grade below N"),
    ("symbolic", "label_table", lambda d: d["label_table"][2].__setitem__(1, -1),
     "representation field 'label_table' has a row for no arrow at a grade below N"),
], ids=["repeated-label-key", "repeated-prime-key", "label-variables-not-names", "changed-prime",
        "changed-label", "row-of-no-arrow", "row-past-the-last-grade", "row-below-grade-0"])
def test_verify_rep_bad_label_table_names_the_file(qfile, tmp_path, capsys, labels, table, edit, message):
    """The loop's rep at N = 3 exits 2, naming the field and the file, when
    its label table repeats an (arrow, grade) key, which let the later row
    win, or its label variables are not names; or when the table does not
    fit the rep: a label its matrix holds is changed, or a row names an
    arrow the quiver lacks or a grade outside 0..N - 1."""
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    args = ["construct", quiver_path, "--truncate", "3", "--labels", labels, "--out", str(rep_path)]
    assert main(args) == 0
    data = json.loads(rep_path.read_text())
    assert table in data
    edit(data)
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert capsys.readouterr().err == f"error: {rep_path}: {message}\n"


_NO_ROW = "representation field 'variables' has a row for no arrow, or for a kind not in ('tau', 'eta', 'zeta')"
_REPEATS = "representation field 'variables' repeats an index or an (arrow, kind) pair"
_LACKS = "representation field 'variables' lacks a variable that an arrow matrix uses"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(variables=[]), _LACKS),
    (lambda d: d["variables"].pop(4), _LACKS),
    (lambda d: d["variables"][0].update(arrow="zz"), _NO_ROW),
    (lambda d: d["variables"][0].update(kind="omega"), _NO_ROW),
    (lambda d: d["variables"][1].update(index=0), _REPEATS),
    (lambda d: d["variables"].append({"arrow": "a", "kind": "tau", "index": 6}), _REPEATS),
    (lambda d: d["variables"].append(dict(d["variables"][0])), _REPEATS),
], ids=["emptied", "used-row-dropped", "row-of-no-arrow", "row-of-no-kind", "repeated-index",
        "repeated-pair", "repeated-row"])
def test_verify_rep_bad_variables_table_names_the_file(qfile, tmp_path, capsys, edit, message):
    """The two-loop path rep, whose 2x2 matrices use all six variables,
    exits 2 naming the field and the file when its variables table does
    not fit it."""
    quiver_path = qfile(TWO_LOOPS)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    edit(data)
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert capsys.readouterr().err == f"error: {rep_path}: {message}\n"


def test_verify_rep_with_a_repeated_monomial_names_the_file(qfile, tmp_path, capsys):
    """An entry of the Kronecker path rep written ``t - t``, its term and
    the term negated, is refused: read as its last term it was ``-t``, a
    matrix the file does not state."""
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    entry = data["arrows"][0]["matrix"][0][0]
    term = entry[0]
    entry.append({"coeff": str(-int(term["coeff"])), "exps": term["exps"][::-1]})
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rep_path}: ") and "each monomial once" in err


@pytest.mark.parametrize("matrix, status", [(lambda a: [[[] for _ in row] for row in a], "zero_action"),
                                            (lambda a: a, "collision")], ids=["zeroed", "copied"])
def test_verify_sabotaged_path_rep_file_reaches_the_verifier(qfile, tmp_path, capsys, matrix, status):
    """A path rep whose arrow b is zeroed, or carries a's matrix, keeps a
    variables table that fits it, so the verifier reports the fault."""
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    data["arrows"][1]["matrix"] = matrix(data["arrows"][0]["matrix"])
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == status


def _repeat_key(data, path, key, first):
    """``data`` as JSON text, with the object at ``path`` writing ``key``
    twice: first with the value ``first``, then with its own."""
    holder, path = {"": copy.deepcopy(data)}, ("", *path)
    parent = holder
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = {"\0": None, **parent[path[-1]]}
    return json.dumps(holder[""]).replace('"\\u0000": null', f"{json.dumps(key)}: {json.dumps(first)}")


def _rep_file_faults(data):
    """``(name, field, edited)`` for each fault of a rep file that loads no
    rep: ``edited`` is the changed data, or the file's text where a key is
    written twice, and the error must name ``field``."""
    def edited(change):
        d = copy.deepcopy(data)
        change(d)
        return d

    arrow = data["arrows"][0]
    polynomial = data.get("labels") != "primes"
    zero = [] if polynomial else 0
    zeroed = [[zero for _ in row] for row in arrow["matrix"]]
    x = next(iter(data["vertex_dims"]))
    faults = [
        ("repeated-top-level-key", "'arrows'",
         _repeat_key(data, (), "arrows", [{**arrow, "matrix": zeroed}, *data["arrows"][1:]])),
        ("repeated-vertex", repr(x), _repeat_key(data, ("vertex_dims",), x, 5)),
        ("repeated-arrow-field", "'matrix'", _repeat_key(data, ("arrows", 0), "matrix", zeroed)),
        ("shape-not-numbers", "'shape'", edited(lambda d: d["arrows"][0].update(shape=["x", None]))),
        ("shape-too-big", "'shape'", edited(lambda d: d["arrows"][0].update(shape=[9, 9]))),
        ("shape-of-floats", "'shape'", edited(lambda d: d["arrows"][0].update(shape=[*map(float, arrow["shape"])]))),
        ("matrix-ragged", "arrows[0] field 'matrix'", edited(lambda d: d["arrows"][0]["matrix"][-1].pop())),
        ("matrix-empty-row", "arrows[0] field 'matrix'",
         edited(lambda d: d["arrows"][0].update(matrix=[[]], shape=[1, 0]))),
    ]
    if data["kind"] == "path":
        faults.append(("variable-index-negative", "variables[0] field 'index'",
                       edited(lambda d: d["variables"][0].update(index=-7))))
    if polynomial:
        r, c = next((r, c) for r, row in enumerate(arrow["matrix"]) for c, e in enumerate(row) if e)
        faults.append(("repeated-term-field", "'coeff'",
                       _repeat_key(data, ("arrows", 0, "matrix", r, c, 0), "coeff", "0")))
    if data["kind"] == "truncated":
        top = data["truncation"] - 1
        faults += [
            ("grades-repeated", "'basis_labels'", edited(lambda d: d["basis_labels"].update({x: [7, 7, 7]}))),
            ("grades-ascending", "'basis_labels'", edited(lambda d: d["basis_labels"].update({x: [0, 1, 2]}))),
            ("grade-above-N", "'basis_labels'", edited(lambda d: d["basis_labels"].update({x: [top + 1, 1, 0]}))),
            ("grade-below-0", "'basis_labels'", edited(lambda d: d["basis_labels"].update({x: [top, 0, -1]}))),
        ]
    if not polynomial:
        faults.append(("label-variables-on-primes", "'label_variables'",
                       edited(lambda d: d.update(label_variables=[]))))
    elif data["kind"] == "truncated":
        faults += [
            ("label-variables-emptied", "'label_variables'", edited(lambda d: d.update(label_variables=[]))),
            ("label-variables-short", "'label_variables'", edited(lambda d: d["label_variables"].pop())),
            ("label-variables-repeated", "'label_variables'",
             edited(lambda d: d["label_variables"].__setitem__(1, d["label_variables"][0]))),
        ]
    return faults


@pytest.mark.parametrize("args", [[], ["--truncate", "3"], ["--truncate", "3", "--labels", "symbolic"]],
                         ids=["path", "primes", "symbolic"])
def test_rep_file_loads_only_what_fits(qfile, tmp_path, capsys, args):
    """The loop's rep exits 2, naming the file and the field, when the file
    writes a key twice (``json`` alone keeps the last value), states a
    shape, grades or label variables that do not fit, holds a ragged or
    empty matrix row, or numbers a variable below 0; ``from_json`` refuses
    the same data.  Every built rep of the suite, the truncated ones at
    N = 1..4, still loads back equal to itself."""
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, *args, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    if args:  # three grades, which the grade edits keep
        assert data["basis_labels"] == {"x": [2, 1, 0]}
    load = repbuild.GradedRep.from_json if args else repbuild.SymbolicRep.from_json
    for name, field, edited in _rep_file_faults(data):
        rep_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rep_path}: ") and field in err and "Traceback" not in err, name
        if isinstance(edited, str):
            load(json.loads(edited))  # the last value of each key fits
        else:
            with pytest.raises(ValueError, match=re.escape(field)):
                load(edited)
    labels = "symbolic" if "symbolic" in args else "primes"
    for q in helpers.suite():
        reps = [build_truncated_rep(q, N, labels) for N in range(1, 5)] if args else [build_path_rep(q)]
        for rep in reps:
            rep_path.write_text(_graded_json(rep) if args else _dumps(rep.to_json()))
            assert cli._load_rep(str(rep_path)) == rep


def test_verify_rep_file_roundtrip_ok(qfile, tmp_path, capsys):
    quiver_path = qfile(A3)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--out", str(rep_path)]) == 0
    assert main(["verify", quiver_path, "--rep", str(rep_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "effective"
    assert data["witness"] is None


def test_construct_symbolic_labels_roundtrip(qfile, tmp_path, capsys):
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    args = ["construct", quiver_path, "--truncate", "2", "--labels", "symbolic",
            "--out", str(rep_path)]
    assert main(args) == 0
    data = json.loads(rep_path.read_text())
    assert data["labels"] == "symbolic" and "label_table" in data
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 0


def test_verify_rep_truncation_mismatch(qfile, tmp_path, capsys):
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--out", str(rep_path)]) == 0
    for level in ("3", "1"):
        assert main(["verify", quiver_path, "--rep", str(rep_path), "--truncate", level]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N=2" in err and f"N={level}" in err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"kind": "path", "vertex_dims": {"x": 1}, "variables": [], '
    '"arrows": [{"id": "a", "shape": [1, 1], "matrix": ' + "[" * 5000 + "]" * 5000 + "}]}",
], ids=["brackets", "matrix"])
def test_verify_rep_nested_too_deeply(qfile, tmp_path, capsys, text):
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(text)
    assert main(["verify", qfile(LOOP), "--rep", str(rep_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(rep_path) in err


def test_quiver_file_not_utf8_names_the_file(tmp_path, capsys):
    quiver_path = tmp_path / "q.quiver"
    quiver_path.write_bytes(b"vertex x\n\xff\n")
    assert main(["analyze", str(quiver_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {quiver_path}: 'utf-8' codec can't decode byte 0xff")


def test_quiver_file_with_a_byte_order_mark(qfile, tmp_path, capsys):
    """A UTF-8 byte-order mark, as some editors write, is not part of the
    first line; CRLF line ends read as LF ones."""
    marked = tmp_path / "bom.quiver"
    marked.write_bytes(b"\xef\xbb\xbf" + A3.replace("\n", "\r\n").encode())
    outputs = []
    for path in (qfile(A3), str(marked)):
        assert main(["analyze", path, "--truncate", "2", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_rep_file_with_a_byte_order_mark(qfile, tmp_path, capsys):
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--out", str(rep_path)]) == 0
    rep_path.write_bytes(b"\xef\xbb\xbf" + rep_path.read_bytes())
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 0
    assert "status: effective" in capsys.readouterr().out


@pytest.mark.parametrize("data", [b"not json", b'{"kind": "path", "vertex_dims": {"x": 1',
                                  b'{"kind": "\xff"}'],
                         ids=["not-json", "cut-off", "not-utf8"])
def test_verify_rep_that_does_not_decode_names_the_file(qfile, tmp_path, capsys, data):
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    rep_path.write_bytes(data)
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rep_path}: ") and quiver_path not in err


@pytest.mark.parametrize("data, message", [
    ({"kind": "nope"}, "unrecognized representation kind 'nope'"),
    ({"kind": "path", "vertex_dims": {"x": 1}}, "representation is missing field 'variables'"),
    ({"kind": "truncated", "labels": "primes", "truncation": 0},
     "representation field 'truncation' must be >= 1"),
], ids=["unknown-kind", "missing-field", "bad-truncation"])
def test_verify_rep_with_bad_content_names_the_file(qfile, tmp_path, capsys, data, message):
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {rep_path}: {message}\n" and quiver_path not in err


@pytest.mark.parametrize("command", ["analyze", "construct", "verify", "stabilize"])
def test_bad_quiver_names_the_file(qfile, tmp_path, capsys, command):
    quiver_path = qfile("vertex x\nvertex x\n")
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(build_path_rep(helpers.loop()).to_json()))
    args = [command, quiver_path] + (["--rep", str(rep_path)] if command == "verify" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {quiver_path}: line 2: duplicate vertex id 'x'\n"
    assert str(rep_path) not in err


def test_verify_rep_mismatch_names_no_file(qfile, tmp_path, capsys):
    # a rep that does not fit the quiver concerns both files, so neither is named
    quiver_path = qfile(A2)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(build_path_rep(helpers.loop()).to_json()))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: representation does not match the quiver\n"


def test_verify_rep_wrong_matrix_shape(qfile, tmp_path, capsys):
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    assert data["vertex_dims"] == {"x": 1}
    data["arrows"][0].update(shape=[2, 2], matrix=[[[], []], [[], []]])
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert "arrow 'a' needs a 1x1 matrix" in capsys.readouterr().err


def test_verify_rep_ragged_symbolic_truncated_matrix(qfile, tmp_path, capsys):
    quiver_path = qfile(A2)
    rep_path = tmp_path / "rep.json"
    args = ["construct", quiver_path, "--truncate", "2", "--labels", "symbolic",
            "--out", str(rep_path)]
    assert main(args) == 0
    data = json.loads(rep_path.read_text())
    data["arrows"][0]["matrix"] = [[[]], [[], []]]
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert "arrows[0] field 'matrix' is malformed" in capsys.readouterr().err


def test_verify_rep_missing_field(qfile, tmp_path, capsys):
    quiver_path = qfile(A2)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    del data["basis_labels"]
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert "missing field 'basis_labels'" in capsys.readouterr().err


@pytest.mark.parametrize("basis_labels", [{"x": None}, {"x": [], "y": None}])
def test_verify_rep_basis_labels_must_fit_vertex_dims(qfile, tmp_path, capsys, basis_labels):
    quiver_path = qfile(A2)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "3", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    assert data["basis_labels"] == {"x": None, "y": None}
    data["basis_labels"] = basis_labels
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert "field 'basis_labels'" in capsys.readouterr().err


def test_verify_rep_not_an_object(qfile, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    rep_path.write_text("[1, 2]")
    assert main(["verify", qfile(A2), "--rep", str(rep_path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_verify_truncate_and_max_len_exclusive(qfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", qfile(A2), "--truncate", "2", "--max-len", "7"])
    assert exc.value.code == 2
    assert "--max-len: not allowed with argument --truncate" in capsys.readouterr().err


def test_verify_path_rep_file_rejects_truncate(qfile, tmp_path, capsys):
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--out", str(rep_path)]) == 0
    assert main(["verify", quiver_path, "--rep", str(rep_path), "--truncate", "3"]) == 2
    assert "--truncate does not apply" in capsys.readouterr().err


def test_verify_truncated_rep_file_rejects_max_len(qfile, tmp_path, capsys):
    quiver_path = qfile(KRONECKER)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--out", str(rep_path)]) == 0
    assert main(["verify", quiver_path, "--rep", str(rep_path), "--max-len", "9"]) == 2
    assert "--max-len does not apply" in capsys.readouterr().err


def test_construct_labels_need_truncate(qfile, capsys):
    assert main(["construct", qfile(A2), "--labels", "symbolic"]) == 2
    assert "--labels applies only with --truncate" in capsys.readouterr().err


def test_seed_flag_is_gone(qfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", qfile(A2), "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, path, value", [
    (["--truncate", "2"], ("arrows", 0, "matrix"), [[2.9]]),
    (["--truncate", "2"], ("arrows", 0, "matrix"), [[True]]),
    (["--truncate", "2"], ("prime_table", 0, 2), 2.0),
    (["--truncate", "2"], ("vertex_dims", "x"), True),
    ([], ("arrows", 0, "matrix", 0, 0, 0, "coeff"), 1.5),
    ([], ("arrows", 0, "matrix", 0, 0, 0, "exps", 0, 1), 1.0),
])
def test_verify_rep_rejects_non_integer_numbers(qfile, tmp_path, capsys, args, path, value):
    quiver_path = qfile(A2)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, *args, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    *outer, last = path
    node = data
    for key in outer:
        node = node[key]
    node[last] = value
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("coeff, code", [
    *[(text, 2) for text in [" 1", "1 ", "1\n", "+1", "1_0", "\u0661", "\uff11", "", "-", "--1", "0x1", "1.0"]],
    *[(text, 0) for text in ["1", "-1", "0001", str(10**30)]],
])
def test_verify_rep_takes_decimal_coefficients_only(qfile, tmp_path, capsys, coeff, code):
    """A coefficient string is what ``MultiPoly.to_json`` writes, an optional
    minus and ASCII digits; the spaces, sign, underscores and other digits
    that ``int`` would take are input errors that name the file.  A decimal
    coefficient on the one label leaves the rep effective."""
    quiver_path = qfile(A2)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--truncate", "2", "--labels", "symbolic", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    data["arrows"][0]["matrix"][0][0][0]["coeff"] = coeff
    rep_path.write_text(json.dumps(data))
    assert main(["verify", quiver_path, "--rep", str(rep_path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error:") and str(rep_path) in err
    else:
        assert "effective" in out


def _count_analyses(monkeypatch):
    """Count the runs of the one routine that fills the quiver's analysis
    cache, as opposed to the calls of the views built from it."""
    import pathrep.quiver

    calls = []
    original = pathrep.quiver._analyse
    monkeypatch.setattr(pathrep.quiver, "_analyse", lambda q: calls.append(q) or original(q))
    return calls


def test_stabilize_computes_the_length_profile_once(qfile, monkeypatch, capsys):
    calls = _count_analyses(monkeypatch)
    assert main(["stabilize", qfile(A3)]) == 0
    assert len(calls) == 1


def test_analyze_computes_the_analysis_once(qfile, monkeypatch, capsys):
    calls = _count_analyses(monkeypatch)
    text = TWO_LOOPS + "vertex y\nvertex z\narrow c: x -> y\narrow d: y -> z\n"
    assert main(["analyze", qfile(text), "--truncate", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["totals"]["effdim_truncated"] == 6
    assert len(calls) == 1



@pytest.mark.parametrize("flags", [["--json"], [], ["--truncate", "3"]], ids=["json", "table", "table-truncated"])
def test_analyze_computes_the_analysis_once_in_every_form(qfile, monkeypatch, capsys, flags):
    calls = _count_analyses(monkeypatch)
    text = TWO_LOOPS + "vertex y\nvertex z\narrow c: x -> y\narrow d: y -> z\n"
    assert main(["analyze", qfile(text), *flags]) == 0
    assert len(calls) == 1


def test_library_views_share_one_analysis(monkeypatch):
    """``effdim_path``, ``effdim_truncated`` at two levels, ``stabilization``
    and ``effdim_table`` on one quiver run the analysis once in all."""
    calls = _count_analyses(monkeypatch)
    q = _mixed_quiver()
    effdim_path(q)
    effdim_truncated(q, 3)
    effdim_truncated(q, 5)
    stabilization(q)
    effdim_table(q, 4)
    assert calls == [q]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_of_an_analysed_quiver_carries_no_analysis(clone):
    q = _mixed_quiver()
    arrays = component_arrays(q)
    twin = clone(q)
    assert twin._components is None
    assert component_arrays(twin) == arrays and type(component_arrays(twin)) is type(arrays)
    assert analysis(twin) == analysis(q) and type(analysis(twin)) is type(analysis(q))
    assert q._components is not None and component_arrays(q) == arrays  # the original keeps its own


def _views(q):
    return q.arrows, q.arrow_index, q.out_arrows


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_copy_has_the_arrow_views_of_its_original(clone, read_first):
    """Before and after the arrow views are first read, a copy or a pickle
    equals its original, hashes alike, has the same views and carries no
    analysis."""
    q, fresh = _mixed_quiver(), _mixed_quiver()
    component_arrays(q)
    if read_first:
        _views(q)
    twin = clone(q)
    assert twin == q and hash(twin) == hash(q) == hash(fresh)
    assert twin._components is None
    assert _views(twin) == _views(q) == _views(fresh)
    assert list(twin.arrow_index.items()) == list(fresh.arrow_index.items())  # in declaration order


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--json"], ["analyze", "--truncate", "3"],
                                  ["analyze", "--json", "--truncate", "3"], ["stabilize"], ["stabilize", "--json"]],
                         ids=["analyze", "analyze-json", "analyze-truncated", "analyze-json-truncated", "stabilize",
                              "stabilize-json"])
def test_analyze_and_stabilize_build_no_arrow_view(qfile, monkeypatch, capsys, argv):
    """The analysis reads the quiver's successor table alone: the arrow
    tuples, the arrow index and the ``(arrow, head)`` pair table are never
    built, and the output is the one a quiver with every view built gives."""
    parsed = []

    def keep(text, read_views=False):
        parsed.append(q := parse_quiver(text))
        if read_views:
            _views(q)
        return q

    monkeypatch.setattr(cli, "parse_quiver", keep)
    path = qfile(_quiver_text(_mixed_quiver()))
    assert main([argv[0], path, *argv[1:]]) == 0
    out = capsys.readouterr().out
    [q] = parsed
    assert (q._arrows, q._arrow_index, q._out_arrows) == (None, None, None)
    monkeypatch.setattr(cli, "parse_quiver", lambda text: keep(text, read_views=True))
    assert main([argv[0], path, *argv[1:]]) == 0
    assert capsys.readouterr().out == out


def test_construct_has_no_json_flag(qfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", qfile(A2), "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_stabilize_a3(qfile, capsys):
    assert main(["stabilize", qfile(A3)]) == 0
    out = capsys.readouterr().out
    assert "a = 0" in out and "b = 3" in out and "threshold = 3" in out
    rows = [line.split() for line in out.splitlines() if line[:1].isdigit()]
    assert [(int(n), int(v)) for n, v in rows] == [(1, 3), (2, 4), (3, 3), (4, 3)]


def test_stabilize_loop_json(qfile, capsys):
    assert main(["stabilize", qfile(LOOP), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["a"], data["b"], data["threshold"]) == (1, 0, 1)
    assert data["table"] == [[1, 1], [2, 2]]


def test_formula_single_segment(capsys):
    assert main(["formula", "3", "--truncate", "2"]) == 0
    assert "eff.dim(P_2) = 4" in capsys.readouterr().out


def test_formula_multi_segment_json(capsys):
    assert main(["formula", "3,2", "--truncate", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"segments": [3, 2], "N": 2, "effdim": 5}


def test_formula_bad_segments(capsys):
    assert main(["formula", "3;2", "--truncate", "2"]) == 2
    assert "error:" in capsys.readouterr().err


NOT_DECIMAL = ["1_0", " 2 ", "\uff12", "\u0663"]  # int() reads them as 10, 2, 2 and 3


@pytest.mark.parametrize("text", NOT_DECIMAL)
def test_truncate_takes_ascii_digits_only(qfile, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", qfile(A2), "--truncate", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --truncate: not a decimal number: {text!r}" in err and "_positive_int" not in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--truncate", "abc"], "argument --truncate: not a decimal number: 'abc'"),
    (["verify", "--max-len", "+3"], "argument --max-len: not a decimal number: '+3'"),
    (["formula", "3", "--truncate", "0"], "argument --truncate: must be >= 1"),
])
def test_bad_levels_name_the_option_not_a_function(qfile, argv, message, capsys):
    if argv[0] != "formula":
        argv.insert(1, qfile(A2))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "_positive_int" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit")
def test_truncate_past_the_int_digit_limit_gets_its_message(qfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", qfile(A2), "--truncate", "9" * (sys.get_int_max_str_digits() + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --truncate: a number has at most 2,000 digits" in err and "_positive_int" not in err


def test_a_number_past_max_digits_is_refused_and_one_at_it_prints(qfile, capsys):
    """Every total, sum or product of two numbers of ``MAX_DIGITS`` digits
    prints within the interpreter's int digit limit; one more is refused."""
    at, past = "9" * cli.MAX_DIGITS, "9" * (cli.MAX_DIGITS + 1)
    two_cycle = qfile("vertex x\nvertex y\narrow a: x -> y\narrow b: y -> x\n")
    assert main(["analyze", two_cycle, "--truncate", at, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["totals"]["effdim_truncated"] == 2 * int(at)
    assert main(["formula", f"{at},2", "--truncate", at]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", two_cycle, "--truncate", past])
    assert exc.value.code == 2
    assert "argument --truncate: a number has at most 2,000 digits" in capsys.readouterr().err
    assert main(["formula", f"3,{past}", "--truncate", "2"]) == 2
    assert capsys.readouterr().err == "error: cannot parse segment list: a number has at most 2,000 digits\n"


@pytest.mark.parametrize("text", NOT_DECIMAL)
def test_formula_segments_take_ascii_digits_only(text, capsys):
    assert main(["formula", f"3,{text}", "--truncate", "2"]) == 2
    assert "cannot parse segment list" in capsys.readouterr().err


def test_parse_error_exit_code(qfile, capsys):
    assert main(["analyze", qfile("vertex x\nbogus line\n")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/q.quiver"]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_flag_writes_file(qfile, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", qfile(LOOP), "--json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["totals"]["effdim_path"] == 1


OUT_COMMANDS = {
    "analyze": ["analyze", KRONECKER, "--truncate", "3", "--json"],
    "construct": ["construct", KRONECKER, "--truncate", "2"],
    "verify": ["verify", KRONECKER, "--json"],
    "stabilize": ["stabilize", KRONECKER],
    "formula": ["formula", "3,2", "--truncate", "4"],
}


def _out_argv(qfile, command):
    return [qfile(a) if a == KRONECKER else a for a in OUT_COMMANDS[command]]


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_over_a_longer_or_shorter_file_holds_the_printed_bytes(qfile, tmp_path, capsys, command):
    """``--out`` writes over an existing file in place; what is left is
    exactly what the command prints, whether the old file was longer or
    shorter."""
    argv = _out_argv(qfile, command)
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    target = tmp_path / "out.txt"
    for old in (b"#" * (2 * len(printed) + 7), b"#" * (len(printed) // 2)):
        target.write_bytes(old)
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed


def test_out_file_mode_and_inode(qfile, tmp_path, capsys):
    """A new file gets mode 0o666 less the umask; an existing file keeps
    its inode, so a second hard link to it sees the new bytes."""
    argv = _out_argv(qfile, "formula")
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target, link = tmp_path / "out.txt", tmp_path / "link.txt"
    mask = os.umask(0o027)
    try:
        assert main([*argv, "--out", str(target)]) == 0
    finally:
        os.umask(mask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    target.write_text("an older and longer report\n" * 5)
    os.link(target, link)
    assert main([*argv, "--out", str(target)]) == 0
    assert link.read_text() == target.read_text() == printed
    assert link.stat().st_ino == target.stat().st_ino


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_out_dev_null(qfile, capsys):
    assert main(["verify", qfile(A3), "--json", "--out", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_out_directory_is_an_input_error(qfile, tmp_path, capsys):
    assert main(["analyze", qfile(A3), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_empty_name_is_an_input_error(qfile, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*_out_argv(qfile, command), "--out", ""])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --out: needs a file name" in err


def test_shipped_sample_quivers(capsys):
    import pathlib

    samples = pathlib.Path(__file__).resolve().parent.parent / "quivers"
    paths = sorted(samples.glob("*.quiver"))
    assert len(paths) == 5
    for path in paths:
        assert main(["analyze", str(path), "--truncate", "3"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("module", ["pathrep.cli", "pathrep"])
def test_module_invocation(qfile, module):
    # the child imports the package that this run imported, wherever it is
    src = os.path.dirname(os.path.dirname(pathrep.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "analyze", qfile(LOOP), "--truncate", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "eff.dim(P_2) = 2" in proc.stdout


FUZZ_REPS = [
    (KRONECKER, build_truncated_rep(parse_quiver(KRONECKER), 2).to_json()),
    (LOOP, build_truncated_rep(parse_quiver(LOOP), 3, labels="symbolic").to_json()),
    (TWO_LOOPS, build_path_rep(parse_quiver(TWO_LOOPS)).to_json()),
    (A3, build_path_rep(parse_quiver(A3)).to_json()),
]

def _locations(node, where=()):
    """Every place in a JSON value, as a key path; () is the whole value."""
    yield where
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _locations(child, where + (key,))


@given(st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_rep_survives_mutated_files(tmp_path, capsys, data):
    """One field or entry of a built rep file replaced by an arbitrary JSON
    value: ``verify --rep`` gives a report or an input error, and never
    raises.  One replacement at a time keeps each walk as short as the
    built file's, since a faithful non-nilpotent rep of two loops at a huge
    truncation level would make any verifier walk exponentially many paths."""
    quiver_text, rep = data.draw(st.sampled_from(FUZZ_REPS))
    where = data.draw(st.sampled_from(list(_locations(rep))))
    value = data.draw(helpers.JSON_VALUES)
    if where:
        rep = copy.deepcopy(rep)
        node = rep
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        rep = value
    quiver_path = tmp_path / "q.quiver"
    quiver_path.write_text(quiver_text)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep))
    assert main(["verify", str(quiver_path), "--rep", str(rep_path)]) in (0, 1, 2)
    capsys.readouterr()


@given(helpers.REP_JSON, st.sampled_from([LOOP, A2]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_rep_survives_arbitrary_json(tmp_path, capsys, value, quiver_text):
    """``verify --rep`` on any JSON value reports or exits with an input
    error; it never raises."""
    quiver_path = tmp_path / "q.quiver"
    quiver_path.write_text(quiver_text)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(value))
    assert main(["verify", str(quiver_path), "--rep", str(rep_path)]) in (0, 1, 2)
    capsys.readouterr()


# JSON_VALUES widened: non-ASCII and lone-surrogate text, infinities and NaN,
# big negative integers, tuples, non-string keys and nested empty containers.
WIDE_JSON = st.recursive(
    helpers.JSON_VALUES
    | st.text(st.characters(min_codepoint=0x80, exclude_categories=()), max_size=4)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 1e300, [], {}, (),
                       [[]], [{}], {"": {}}, {"a": []}])
    | st.integers(max_value=-(2**64)),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.dictionaries(st.none() | st.booleans() | st.integers() | st.floats(), inner, max_size=3),
    max_leaves=10,
)


@given(WIDE_JSON)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_the_stdlib(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def _large_quiver(n=2000, seed=5):
    """A quiver of the benchmark's large-analysis size: a strongly connected
    core feeding and fed by long acyclic parts, ids declared shuffled."""
    rng = random.Random(seed)
    ids = [f"x{i}" for i in range(n)]
    core, rest = ids[: n // 4], ids[n // 4 :]
    pairs = list(zip(core, core[1:] + core[:1]))
    pairs += [(rng.choice(core), rng.choice(core)) for _ in core]
    pairs += [(rest[i], rest[min(len(rest) - 1, i + rng.randint(1, 8))])
              for i in range(len(rest) - 1) for _ in range(2)]
    pairs += [(rng.choice(core), rng.choice(rest)) for _ in range(20)]
    pairs += [(rng.choice(rest), rng.choice(core)) for _ in range(20)]
    rng.shuffle(ids)
    return Quiver(ids, [(f"e{j}", t, h) for j, (t, h) in enumerate(pairs)])


def _quiver_text(q):
    return "".join(f"vertex {v}\n" for v in q.vertices) + "".join(
        f"arrow {a.name}: {q.vertices[a.tail]} -> {q.vertices[a.head]}\n" for a in q.arrows)


@st.composite
def small_quivers(draw):
    """Up to 7 vertices and 10 arrows: loops, parallel arrows, isolated
    vertices, and vertices of bounded and unbounded l- and l+."""
    ids = draw(st.lists(st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True),
                        min_size=1, max_size=7, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=10))
    return Quiver(ids, [(f"e{j}", t, h) for j, (t, h) in enumerate(pairs)])


@given(small_quivers(), st.sampled_from([None, 1, 2, "n + 1", 10**20]))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_analyze_json_rows_match_the_report(qfile, capsys, q, N):
    """``analyze --json`` writes its rows by template; the bytes are those
    of the stdlib on ``helpers.reference_report``.  Its totals and block
    dimensions, summed in one pass, agree with the closed form ``d_value``,
    and the library functions read the same pass."""
    N = q.n + 1 if N == "n + 1" else N
    flags = [] if N is None else ["--truncate", str(N)]
    assert main(["analyze", qfile(_quiver_text(q)), *flags, "--json"]) == 0
    data = helpers.reference_report(q, N)
    assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"
    totals = data["totals"]
    comp_of, _, _, lminus, lplus = component_arrays(q)
    prof = [(lminus[c], lplus[c]) for c in comp_of]
    assert totals["a"] == sum(lm == lp == INF for lm, lp in prof) and totals["threshold"] == q.n
    for M in (q.n, q.n + 1):
        assert sum(d_value(lm, lp, M) for lm, lp in prof) == totals["a"] * M + totals["b"]
    stab = stabilization(q)
    assert (totals["a"], totals["b"], totals["threshold"]) == (stab.a, stab.b, stab.threshold)
    noncomm = sum(not entry["commutative"] for entry in data["vertices"].values())
    assert totals["effdim_path"] == q.n + noncomm == effdim_path(q)
    if N is not None:
        assert totals["effdim_truncated"] == sum(d_value(lm, lp, N) for lm, lp in prof)
        assert totals["effdim_truncated"] == effdim_truncated(q, N)
        _, rows, _ = analysis(q, N)
        for (lm, lp), c, entry in zip(prof, comp_of, data["vertices"].values()):
            assert entry["d"] == d_value(lm, lp, N)
            _, _, _, window, d = rows[c]
            assert (entry["K"], entry["d"]) == (window and list(window), d)



def _reference_analysis(q, N):
    """``analyze --json``'s data built vertex by vertex from the brute-force
    ``helpers.reference_components`` and ``d_value`` alone, apart from the
    per-component pass of ``dimension.analysis``.  The window is the grades
    k with k <= l- and N - 1 - k <= l+; b is read off the sum of ``d_value``
    at the threshold, where it equals a * n + b."""
    reference = helpers.reference_components(q)
    prof = [(lm, lp) for _, _, _, lm, lp in reference]
    vertices = {}
    for x, (scc, size, internal, lm, lp) in zip(q.vertices, reference):
        entry = vertices[x] = {"l_minus": ext_to_json(lm), "l_plus": ext_to_json(lp), "scc": scc,
                               "commutative": not internal or internal == size}
        if N is not None:
            lo, hi = (0 if lp == INF else max(0, N - 1 - lp)), min(N - 1, lm)
            entry["K"] = [lo, hi] if lo <= hi else None
            entry["d"] = d_value(lm, lp, N)
            assert entry["d"] == (hi - lo + 1 if lo <= hi else 1)
    a = sum(lm == lp == INF for lm, lp in prof)
    totals = {"effdim_path": q.n + sum(not e["commutative"] for e in vertices.values())}
    if N is not None:
        totals["effdim_truncated"] = sum(e["d"] for e in vertices.values())
    totals.update(a=a, b=sum(d_value(lm, lp, q.n) for lm, lp in prof) - a * q.n, threshold=q.n)
    return {"vertices": vertices, "totals": totals}


def _assert_analyze_matches_the_reference(path, q, N, capsys):
    """``analyze --json`` is the stdlib's text of the reference, and each
    row of the text table holds the reference's cells."""
    flags = [] if N is None else ["--truncate", str(N)]
    data = _reference_analysis(q, N)
    assert main(["analyze", path, *flags, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"
    assert main(["analyze", path, *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [[x, str(e["scc"]), "yes" if e["commutative"] else "no", str(e["l_minus"]),
             str(e["l_plus"])] + ([] if N is None else ["-" if e["K"] is None else "[%d,%d]" % tuple(e["K"]),
                                                         str(e["d"])])
            for x, e in data["vertices"].items()]
    assert [line.split() for line in lines[3:3 + q.n]] == rows


def _mixed_quiver():
    """A simple cycle (c1, c2), a non-simple component (x, w: a loop at x
    and a return through w), a vertex with one loop, and singletons before,
    between and after them, on a chain and alone, declared out of order."""
    arrows = [("s", "c1", "c2"), ("t", "c2", "c1"), ("u", "c2", "x"), ("a", "x", "x"), ("b", "x", "w"),
              ("c", "w", "x"), ("d", "w", "z"), ("e", "p", "c1"), ("f", "z", "o"), ("g", "o", "o"),
              ("h", "p", "q"), ("i", "q", "m"), ("j", "m", "n"), ("k", "w", "y")]
    return Quiver(["z", "x", "p", "c2", "o", "w", "q", "n", "c1", "r", "y", "m"], arrows)


@pytest.mark.parametrize("N", [None, 1, 3, 7])
def test_analyze_matches_a_per_vertex_reference(qfile, capsys, N):
    for q in (_large_quiver(), _mixed_quiver()):
        _assert_analyze_matches_the_reference(qfile(_quiver_text(q)), q, N, capsys)


@given(small_quivers(), st.sampled_from([None, 1, 2, "n + 1", 10**20]))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_analyze_matches_a_per_vertex_reference_on_small_quivers(qfile, capsys, q, N):
    N = q.n + 1 if N == "n + 1" else N
    _assert_analyze_matches_the_reference(qfile(_quiver_text(q)), q, N, capsys)


def test_analyze_takes_a_level_beyond_the_floats(qfile, capsys):
    """A level above 1e308 meets INF as an integer: ``N - 1 - INF`` would
    raise OverflowError."""
    N = 10**400
    assert main(["analyze", qfile(_quiver_text(helpers.loop_with_tail())), "--truncate", str(N), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [v["K"] for v in data["vertices"].values()] == [[0, N - 1], [N - 2, N - 1], [N - 1, N - 1]]
    assert data["totals"]["effdim_truncated"] == N + 3


def test_json_writer_matches_the_stdlib_on_command_outputs(qfile, capsys):
    q = _large_quiver()
    data = helpers.reference_report(q, 3)
    assert len(data["vertices"]) == 2000
    assert _dumps(data) == json.dumps(data, indent=2)
    assert main(["analyze", qfile(_quiver_text(q)), "--truncate", "3", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"
    small = helpers.loop_with_tail()
    for rep in (build_truncated_rep(small, 3), build_truncated_rep(small, 3, labels="symbolic"),
                build_path_rep(helpers.triangle_chord()), build_path_rep(small)):
        data = rep.to_json()
        assert _dumps(data) == json.dumps(data, indent=2)


def test_truncated_label_table_above_the_limit_exits_2(qfile, capsys):
    """A2 at N = 2,000,001 needs one label more than the limit; both commands
    refuse before allocating any."""
    path = qfile(A2)
    for command in ("construct", "verify"):
        assert main([command, path, "--truncate", "2000001"]) == 2
        err = capsys.readouterr().err
        assert "label table of 2,000,001 (arrow, grade) labels" in err
        assert "limit of 2,000,000" in err
    with pytest.raises(ValueError, match="label table of 2,000,004"):
        build_truncated_rep(helpers.kronecker(), 1_000_002, labels="symbolic")


def test_truncated_dense_size_above_the_limit_exits_2(capsys):
    """The one-loop quiver at N = 20,000 passes the label limit but would
    store a 20,000 x 20,000 matrix; both commands refuse before building it."""
    import pathlib
    import time

    loop = str(pathlib.Path(__file__).resolve().parent.parent / "quivers" / "loop.quiver")
    for command in ("construct", "verify"):
        began = time.perf_counter()
        assert main([command, loop, "--truncate", "20000"]) == 2
        assert time.perf_counter() - began < 1
        err = capsys.readouterr().err
        assert "needs 400,000,000 dense matrix entries" in err
        assert "limit of 10,000,000" in err


def test_truncated_dense_size_limit_is_inclusive_and_admits_the_largest_input(monkeypatch):
    """The guard counts d(head) * d(tail) over the arrows: the loop at N has
    N * N entries.  The largest build in the tests, the benchmark and the
    README, the 3,000-vertex directed line at N = 50, is under the limit."""
    monkeypatch.setattr(repbuild, "DENSE_LIMIT", 16)
    assert build_truncated_rep(helpers.loop(), 4).dims == {"x": 4}
    with pytest.raises(ValueError, match="needs 25 dense matrix entries, above the limit of 16"):
        build_truncated_rep(helpers.loop(), 5)
    monkeypatch.undo()
    line = helpers.a_line(3000)
    comp_of, rows, _ = analysis(line, 50)
    d = [rows[c][4] for c in comp_of]
    entries = sum(d[a.head] * d[a.tail] for a in line.arrows)
    assert entries == 7_335_800 <= repbuild.DENSE_LIMIT


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The cyclic collector switched on or off before the test, and as it
    was after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _failing_rep(qfile, tmp_path):
    """A quiver file and a rep file of it that ``verify --rep`` rejects."""
    quiver_path = qfile(KRONECKER)
    rep = build_truncated_rep(parse_quiver(KRONECKER), 2).to_json()
    rep["arrows"][1]["matrix"] = rep["arrows"][0]["matrix"]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep))
    return [quiver_path, "--rep", str(rep_path)]


def test_a_command_pauses_the_collector_and_restores_it(collector, qfile, tmp_path, monkeypatch,
                                                        capsys):
    """The collector is off while a command runs, and its earlier state
    returns after every way out of ``main``: exit 0, 1 or 2, or an
    exception."""
    states = []
    for name, command in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda ns, command=command: states.append(gc.isenabled()) or command(ns))
    assert main(["analyze", qfile(A3)]) == 0
    assert gc.isenabled() is collector
    assert main(["verify", *_failing_rep(qfile, tmp_path)]) == 1
    assert gc.isenabled() is collector
    assert main(["construct", qfile("vertex x\nvertex x\n")]) == 2
    assert gc.isenabled() is collector

    def raising(ns):
        states.append(gc.isenabled())
        raise RuntimeError("escapes main")

    monkeypatch.setitem(cli._COMMANDS, "analyze", raising)
    with pytest.raises(RuntimeError, match="escapes main"):
        main(["analyze", qfile(A3)])
    assert gc.isenabled() is collector
    assert states == [False] * 4
    capsys.readouterr()


def _assert_rows_written_exactly(rep):
    data = rep.to_json()
    text = _graded_json(rep)
    assert text == _dumps(data)
    assert text == json.dumps(data, indent=2)
    return text


def test_truncated_rep_writer_matches_the_stdlib_on_built_and_read_reps():
    """Every suite rep at N = 1..4 with both label kinds, and a directed
    line, as built and as read back from its JSON, whose entries are all
    new objects outside the label table."""
    reps = [build_truncated_rep(q, N, labels=labels) for q in helpers.suite()
            for N in range(1, 5) for labels in ("primes", "symbolic")]
    reps.append(build_truncated_rep(helpers.a_line(30), 8))
    for rep in reps:
        text = _assert_rows_written_exactly(rep)
        assert _assert_rows_written_exactly(GradedRep.from_json(json.loads(text))) == text


def test_truncated_rep_writer_matches_the_stdlib_on_odd_reps(qfile, capsys):
    """Variants whose entries lie outside the label table, a quiver with no
    arrows, hand-made entries and an arrow id that needs escaping."""
    for q in helpers.suite(20):
        for labels in ("primes", "symbolic"):
            for _, variant in helpers.truncated_variants(build_truncated_rep(q, 3, labels=labels)):
                _assert_rows_written_exactly(variant)
    for labels in ("primes", "symbolic"):
        rep = build_truncated_rep(Quiver(["x", "y"], []), 2, labels=labels)
        assert _assert_rows_written_exactly(rep).count('"arrows": []') == 1
        assert main(["construct", qfile("vertex x\nvertex y\n"), "--truncate", "2",
                     "--labels", labels]) == 0
        assert capsys.readouterr().out == _dumps(rep.to_json()) + "\n"
    primes = build_truncated_rep(helpers.kronecker(), 2)
    odd = ((1, -1), (2**70, 0))
    _assert_rows_written_exactly(replace(primes, dims={"x": 2, "y": 2},
                                         matrices={"a": odd, "b": odd[::-1]}))
    symbolic = build_truncated_rep(helpers.kronecker(), 2, labels="symbolic")
    a0, b0 = symbolic.labels["a", 0], symbolic.labels["b", 0]
    _assert_rows_written_exactly(replace(symbolic, matrices={
        "a": ((a0 + b0, MultiPoly.const(-1)), (MultiPoly.const(2**70), MultiPoly.zero())),
        "b": ((1, -1), (a0, b0 * a0 + 2))}))
    data = json.loads(_graded_json(primes))
    data["vertex_dims"] = {"\u00e9\"": 1, "y": 1}
    data["basis_labels"] = {"\u00e9\"": None, "y": None}
    data["arrows"][0]["id"] = "\u00e9\""
    data["prime_table"] = [["\u00e9\"" if row[0] == "a" else row[0], *row[1:]]
                           for row in data["prime_table"]]
    escaped = _assert_rows_written_exactly(GradedRep.from_json(data))
    assert '"\\u00e9\\""' in escaped


def _refusals():
    """``pytest.param(call, message)`` for each refused argument that no
    other test reaches: ``call`` is a library call that raises ValueError
    with ``message``, or CLI arguments that exit 2 with it."""
    q = helpers.loop()
    path_rep, graded = build_path_rep(q), build_truncated_rep(q, 2)
    bare_row = path_rep.to_json()
    bare_row["arrows"][0]["matrix"] = [5]
    cases = {
        "formula-empty-segment": (["formula", "0", "--truncate", "3"], "a segment needs at least one vertex"),
        "analysis-N-0": (lambda: pathrep.dimension.analysis(q, 0), "N must be >= 1"),
        "allocate-primes-N-0": (lambda: pathrep.allocate_primes(q, 0), "N must be >= 1"),
        "build-unknown-labels": (lambda: build_truncated_rep(q, 2, labels="x"),
                                 "labels must be 'primes' or 'symbolic'"),
        "trivial-unknown-vertex": (lambda: pathrep.trivial(q, "y"), "unknown vertex 'y'"),
        "arrow-path-unknown-arrow": (lambda: pathrep.arrow_path(q, "b"), "unknown arrow 'b'"),
        "make-path-no-arrow": (lambda: pathrep.make_path(q, []),
                               "make_path needs at least one arrow; use trivial() otherwise"),
        "enumerate-paths-below-0": (lambda: pathrep.enumerate_paths(q, -1), "max_len must be >= 0"),
        "first-return-cycles-0": (lambda: pathrep.first_return_cycles(q, "x", 0), "max_len must be >= 1"),
        "verify-path-rep-0": (lambda: pathrep.verify_path_rep(path_rep, q, 0), "max_len must be >= 1"),
        "f2-search-N-0": (lambda: pathrep.exhaustive_lower_bound_f2(q, 0, 1), "N and total_dim must be >= 1"),
        "verify-truncated-path-rep": (lambda: pathrep.verify_truncated(path_rep, q, 2),
                                      "verify_truncated needs a truncated representation"),
        "verify-filtration-path-rep": (lambda: pathrep.verify_filtration(path_rep, q),
                                       "verify_filtration needs a truncated representation"),
        "verify-path-rep-truncated": (lambda: pathrep.verify_path_rep(graded, q),
                                      "verify_path_rep needs a path-semigroup representation"),
        "rep-file-row-not-a-list": (lambda: repbuild.SymbolicRep.from_json(bare_row),
                                    "representation arrows[0] field 'matrix' is malformed: a matrix is a list of rows"),
        "rep-file-unknown-labels": (lambda: GradedRep.from_json({**graded.to_json(), "labels": "x"}),
                                    "representation field 'labels' must be 'primes' or 'symbolic', not 'x'"),
        # a repeated name would number its variables at its last position
        "variable-table-repeated-name": (lambda: pathrep.variable_table(["a", "b", "a"]), "duplicate arrow id 'a'"),
        "loop-matrices-repeated-letter": (lambda: pathrep.loop_matrices("aa"), "duplicate arrow id 'a'"),
        "corner-entry-repeated-letter": (lambda: pathrep.corner_entry("a", "aa"), "duplicate arrow id 'a'"),
        # a float or bool coefficient would be written as a string that no reader takes
        "poly-matrix-float": (lambda: pathrep.PolyMatrix([[1.5]]), "a constant polynomial needs an int, not 1.5"),
        "poly-matrix-bool": (lambda: pathrep.PolyMatrix([[True]]), "a constant polynomial needs an int, not True"),
        "const-float": (lambda: MultiPoly.const(2.5), "a constant polynomial needs an int, not 2.5"),
    }
    return [pytest.param(call, message, id=name) for name, (call, message) in cases.items()]


@pytest.mark.parametrize("call, message", _refusals())
def test_refused_arguments_pin_their_message(call, message, capsys):
    if isinstance(call, list):
        assert main(call) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
