import copy
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import pathrep
from pathrep import repbuild
from pathrep.cli import _dumps, main
from pathrep.dimension import k_profile, report
from pathrep.quiver import Quiver, parse_quiver
from pathrep.repbuild import build_path_rep, build_truncated_rep

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


def test_verify_rep_wrong_matrix_shape(qfile, tmp_path, capsys):
    quiver_path = qfile(LOOP)
    rep_path = tmp_path / "rep.json"
    assert main(["construct", quiver_path, "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    assert data["vertex_dims"] == {"x": 1}
    data["arrows"][0]["matrix"] = [[[], []], [[], []]]
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


def _count_analyses(monkeypatch):
    """Count the SCC and length-profile computations, as opposed to the
    calls of ``sccs`` and ``length_profile``, which return the stored result
    after the first."""
    import pathrep.quiver

    calls = {"sccs": 0, "length_profile": 0}
    for name in calls:
        original = getattr(pathrep.quiver, "_compute_" + name)

        def counted(q, name=name, original=original):
            calls[name] += 1
            return original(q)

        monkeypatch.setattr(pathrep.quiver, "_compute_" + name, counted)
    return calls


def test_stabilize_computes_the_length_profile_once(qfile, monkeypatch, capsys):
    calls = _count_analyses(monkeypatch)
    assert main(["stabilize", qfile(A3)]) == 0
    assert calls == {"sccs": 1, "length_profile": 1}


def test_analyze_computes_the_analysis_once(qfile, monkeypatch, capsys):
    calls = _count_analyses(monkeypatch)
    text = TWO_LOOPS + "vertex y\nvertex z\narrow c: x -> y\narrow d: y -> z\n"
    assert main(["analyze", qfile(text), "--truncate", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["totals"]["effdim_truncated"] == 6
    assert calls == {"sccs": 1, "length_profile": 1}


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


def test_shipped_sample_quivers(capsys):
    import pathlib

    samples = pathlib.Path(__file__).resolve().parent.parent / "quivers"
    paths = sorted(samples.glob("*.quiver"))
    assert len(paths) == 5
    for path in paths:
        assert main(["analyze", str(path), "--truncate", "3"]) == 0
        capsys.readouterr()


def test_module_invocation(qfile):
    # the child imports the package that this run imported, wherever it is
    src = os.path.dirname(os.path.dirname(pathrep.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pathrep.cli", "analyze", qfile(LOOP), "--truncate", "2"],
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


def test_json_writer_matches_the_stdlib_on_command_outputs(qfile, capsys):
    q = _large_quiver()
    data = report(q, 3)
    assert len(data["vertices"]) == 2000
    assert _dumps(data) == json.dumps(data, indent=2)
    text = "".join(f"vertex {v}\n" for v in q.vertices) + "".join(
        f"arrow {a.name}: {q.vertices[a.tail]} -> {q.vertices[a.head]}\n" for a in q.arrows)
    assert main(["analyze", qfile(text), "--truncate", "3", "--json"]) == 0
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
    kp = k_profile(line, 50)
    entries = sum(kp.d[line.vertices[a.head]] * kp.d[line.vertices[a.tail]] for a in line.arrows)
    assert entries == 7_335_800 <= repbuild.DENSE_LIMIT
