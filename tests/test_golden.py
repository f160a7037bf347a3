"""Golden CLI outputs: every sample quiver under a fixed set of commands,
compared byte for byte with the files in ``tests/golden/``.

The files pin what refactorings must not change.  After a deliberate output
change, rewrite them with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import pathlib

import pytest

from pathrep.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
QUIVERS = sorted((ROOT / "quivers").glob("*.quiver"))

COMMANDS = (
    ("analyze",),
    ("analyze", "--json"),
    ("analyze", "--truncate", "3", "--json"),
    ("construct",),
    ("construct", "--truncate", "3"),
    ("construct", "--truncate", "3", "--labels", "symbolic"),
    ("verify",),
    ("verify", "--truncate", "3", "--json"),
    ("stabilize", "--json"),
)

CASES = [(path, command) for path in QUIVERS for command in COMMANDS]


def golden_file(path, command):
    return GOLDEN / f"{path.stem}.{'_'.join(a.strip('-') for a in command)}.txt"


def run(path, command, capsys):
    code = main([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize(
    "path,command", CASES, ids=[golden_file(p, c).stem for p, c in CASES]
)
def test_golden_output(path, command, capsys):
    assert run(path, command, capsys).encode() == golden_file(path, command).read_bytes()


@pytest.mark.parametrize("path", QUIVERS, ids=[p.stem for p in QUIVERS])
@pytest.mark.parametrize("labels", [(), ("--labels", "symbolic")], ids=["primes", "symbolic"])
def test_golden_truncated_rep_verifies_as_built(path, labels, capsys):
    """Each golden truncated rep, read back by ``verify --rep``, passes the
    label-table check and gives the report of the rep built in place."""
    rep = golden_file(path, ("construct", "--truncate", "3", *labels))
    report = run(path, ("verify", "--rep", str(rep), "--json"), capsys)
    assert report.encode() == golden_file(path, ("verify", "--truncate", "3", "--json")).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for path, command in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([command[0], str(path), *command[1:]])
        if code != 0:
            raise SystemExit(f"{path.name} {' '.join(command)}: exit {code}")
        golden_file(path, command).write_text(buffer.getvalue(), encoding="utf-8")
