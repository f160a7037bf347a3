"""Golden digests of both constructions: one JSON line per case with the
SHA-256 of what ``construct`` prints, compared with a file under
``tests/golden``.  ``truncated_rep_digests.jsonl`` holds ``construct
--truncate N --labels L`` for the 200 suite quivers at N = 1..4 and the
sample quivers at N = 1..7, each with both label kinds;
``path_rep_digests.jsonl`` holds ``construct`` (the path rep) for the suite
quivers and the sample quivers.

The byte-for-byte goldens cover five quivers, whose path reps have only 1x1
and 2x2 arrow blocks; these digests pin the same bytes over the suite, which
has all four block shapes, and over the deeper levels.  After a deliberate
output change, rewrite both files with ``PYTHONPATH=src python
tests/test_rep_digests.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import helpers
from pathrep.cli import main
from pathrep.repbuild import build_path_rep

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "truncated_rep_digests.jsonl"
PATH_GOLDEN = GOLDEN.with_name("path_rep_digests.jsonl")
QUIVERS = sorted((ROOT / "quivers").glob("*.quiver"))


def quiver_text(q) -> str:
    return "".join([*(f"vertex {v}\n" for v in q.vertices),
                    *(f"arrow {a.name}: {q.vertices[a.tail]} -> {q.vertices[a.head]}\n" for a in q.arrows)])


def quiver_files(directory: pathlib.Path) -> list:
    """``(name, path, top)`` for the suite quivers, written to files in
    ``directory`` and truncated at N = 1..4, then for the sample quivers,
    truncated at N = 1..7."""
    files = []
    for i, q in enumerate(helpers.suite()):
        path = directory / f"suite{i}.quiver"
        path.write_text(quiver_text(q), encoding="utf-8")
        files.append((f"suite {i}", path, 4))
    return files + [(path.stem, path, 7) for path in QUIVERS]


def digest_line(case: str, args: list) -> str:
    """The JSON line of ``construct *args``'s printed bytes, labelled ``case``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["construct", *args])
    assert code == 0, f"{case}: exit {code}"
    return json.dumps({"case": case, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})


def digest_lines(directory: pathlib.Path):
    """Yield one JSON line per truncated case, its label first."""
    for name, path, top in quiver_files(directory):
        for N in range(1, top + 1):
            for labels in ("primes", "symbolic"):
                yield digest_line(f"{name} N={N} {labels}",
                                  [str(path), "--truncate", str(N), "--labels", labels])


def path_digest_lines(directory: pathlib.Path):
    """Yield one JSON line per path-rep case, its label first."""
    for name, path, _ in quiver_files(directory):
        yield digest_line(f"{name} path", [str(path)])


def _compare(golden: pathlib.Path, actual: list, count: int):
    expected = golden.read_text(encoding="utf-8").splitlines()
    for want, got in zip(expected, actual):
        assert got == want, f"first differing case:\n  golden: {want}\n  now:    {got}"
    assert len(actual) == len(expected) == count


def test_truncated_rep_digests_match_the_golden(tmp_path):
    _compare(GOLDEN, list(digest_lines(tmp_path)), 2 * (200 * 4 + len(QUIVERS) * 7))


def test_path_rep_digests_match_the_golden(tmp_path):
    _compare(PATH_GOLDEN, list(path_digest_lines(tmp_path)), 200 + len(QUIVERS))


def test_the_suite_path_reps_hold_all_four_block_shapes():
    shapes = {(m.rows, m.cols) for q in helpers.suite() for m in build_path_rep(q).matrices.values()}
    assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for golden, lines in ((GOLDEN, digest_lines), (PATH_GOLDEN, path_digest_lines)):
            text = "".join(line + "\n" for line in lines(pathlib.Path(directory)))
            golden.write_text(text, encoding="utf-8")
