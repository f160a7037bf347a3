"""Golden digests of the graded construction: one JSON line per case with the
SHA-256 of what ``construct --truncate N --labels L`` prints, for the 200
suite quivers at N = 1..4 and the sample quivers at N = 1..7, each with
both label kinds, compared with ``tests/golden/truncated_rep_digests.jsonl``.

The byte-for-byte goldens cover five quivers at N = 3; these digests pin the
same bytes over the suite and the deeper levels.  After a deliberate output
change, rewrite the file with ``PYTHONPATH=src python tests/test_rep_digests.py``
and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import helpers
from pathrep.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "truncated_rep_digests.jsonl"
QUIVERS = sorted((ROOT / "quivers").glob("*.quiver"))


def quiver_text(q) -> str:
    return "".join([*(f"vertex {v}\n" for v in q.vertices),
                    *(f"arrow {a.name}: {q.vertices[a.tail]} -> {q.vertices[a.head]}\n" for a in q.arrows)])


def digest_lines(directory: pathlib.Path):
    """Yield one JSON line per case, its label first; suite quivers are
    written to files in ``directory``."""
    cases = []
    for i, q in enumerate(helpers.suite()):
        path = directory / f"suite{i}.quiver"
        path.write_text(quiver_text(q), encoding="utf-8")
        cases += [(f"suite {i}", path, N) for N in range(1, 5)]
    cases += [(path.stem, path, N) for path in QUIVERS for N in range(1, 8)]
    for name, path, N in cases:
        for labels in ("primes", "symbolic"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["construct", str(path), "--truncate", str(N), "--labels", labels])
            assert code == 0, f"{name} N={N} {labels}: exit {code}"
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            yield json.dumps({"case": f"{name} N={N} {labels}", "sha256": digest})


def test_truncated_rep_digests_match_the_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = list(digest_lines(tmp_path))
    for want, got in zip(expected, actual):
        assert got == want, f"first differing case:\n  golden: {want}\n  now:    {got}"
    assert len(actual) == len(expected) == 2 * (200 * 4 + len(QUIVERS) * 7)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        lines = list(digest_lines(pathlib.Path(directory)))
    GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
