"""Command-line front end: analyze, construct, verify, stabilize, formula.

Exit codes: 0 on success (and on a verification that reports effective),
1 when a verification fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote
from operator import add

from .dimension import analysis, effdim_table, line_quiver_effdim, stabilization
from .oracle import verify_path_rep, verify_truncated
from .quiver import INF, Quiver, QuiverError, ext_to_json, parse_quiver
from .repbuild import GradedRep, SymbolicRep, _entry_json, build_path_rep, build_truncated_rep


# The most digits a number on the command line may have: a sum or product of
# two such numbers still prints within the interpreter's 4,300-digit limit.
MAX_DIGITS = 2000


def _decimal(text: str) -> int:
    """ASCII digits only: ``int`` also reads signs, spaces, ``_`` and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal number: {text!r}")
    if len(text) > MAX_DIGITS:
        raise ValueError(f"a number has at most {MAX_DIGITS:,} digits")
    return int(text)


def _positive_int(text: str) -> int:
    try:
        value = _decimal(text)
    except ValueError as exc:  # argparse would name this function instead
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _file_name(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("needs a file name")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    building it costs more than parsing a command line with it."""
    parser = argparse.ArgumentParser(
        prog="pathrep",
        description="Minimal faithful matrix representations of path semigroups of finite quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, quiver=True, json_output=True):
        if quiver:
            p.add_argument("quiver", help="quiver file (vertex/arrow lines)")
        if json_output:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", type=_file_name, metavar="FILE",
                       help="write output to FILE instead of stdout")

    p = sub.add_parser("analyze", help="per-vertex table and dimension totals")
    common(p)
    p.add_argument("--truncate", type=_positive_int, metavar="N", help="truncation level")

    p = sub.add_parser("construct", help="emit a representation as JSON")
    common(p, json_output=False)
    p.add_argument("--truncate", type=_positive_int, metavar="N",
                   help="build the truncated representation (default: path semigroup)")
    p.add_argument("--labels", choices=("primes", "symbolic"),
                   help="label type for the truncated construction (default: primes)")

    p = sub.add_parser("verify", help="build (or load) a representation and verify it")
    common(p)
    bound = p.add_mutually_exclusive_group()
    bound.add_argument("--truncate", type=_positive_int, metavar="N", help="truncation level")
    bound.add_argument("--max-len", type=_positive_int, metavar="L", dest="max_len",
                       help="length bound for the path-semigroup check (default 2n+2)")
    p.add_argument("--rep", metavar="FILE", dest="rep_path",
                   help="verify this representation JSON instead of building one")

    p = sub.add_parser("stabilize", help="affine stabilization coefficients and table")
    common(p)

    p = sub.add_parser("formula", help="closed form for an orientation of a line quiver")
    common(p, quiver=False)
    p.add_argument("segments", help="comma-separated vertex counts of the directed segments, e.g. 3,2")
    p.add_argument("--truncate", type=_positive_int, metavar="N", required=True,
                   help="truncation level")

    for name, p in sub.choices.items():  # so each command's own parser names it too
        p.set_defaults(command=name)
    return parser


@functools.cache
def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser by name, from ``build_parser()``'s subparsers action."""
    return next(a.choices for a in build_parser()._actions if a.dest == "command")


def _emit(text: str, ns: argparse.Namespace):
    if ns.out is None:
        print(text)
        return
    # Written over the old bytes and cut at the new end: on ext4, emptying
    # the file first made each write seven to eight times slower.
    with open(os.open(ns.out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.writelines((text, "\n"))  # ``text + "\n"`` would copy the whole text once more
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a device or a pipe cannot be cut
            fh.truncate()


# Every leaf type the CLI writes, with its C encoding.
_LEAVES = {str: _quote, int: int.__repr__, bool: {False: "false", True: "true"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.  With an indent the
    stdlib encodes every item in Python; here Python only walks the
    containers, and each leaf is encoded in C."""
    if type(obj) in _LEAVES:
        return _LEAVES[type(obj)](obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets, items = "{}", [
            (_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": "
            + (_LEAVES[type(v)](v) if type(v) in _LEAVES else _dumps(v, inner))
            for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_LEAVES[type(v)](v) if type(v) in _LEAVES else _dumps(v, inner) for v in obj]
    else:  # any other leaf, floats and subclasses too, as the stdlib writes it
        return json.dumps(obj)
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1] if items else brackets


def _load_quiver(ns: argparse.Namespace) -> Quiver:
    with open(ns.quiver, encoding="utf-8-sig") as fh:  # a byte-order mark is not text
        try:
            return parse_quiver(fh.read())
        except ValueError as exc:  # undecodable text or a QuiverError
            raise ValueError(f"{ns.quiver}: {exc}") from None


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


# A component's text in ``analyze --json``, after each member's id, without and with N.
_VERTEX = ': {\n      "l_minus": %s,\n      "l_plus": %s,\n      "scc": %d,\n      "commutative": %s'
_VERTEX_N = _VERTEX + ',\n      "K": %s,\n      "d": %d\n    }'
_VERTEX += "\n    }"


def _analysis_json(q: Quiver, comp_of: list[int], rows: list[tuple], totals: dict, truncated: bool) -> str:
    """``analyze --json``'s text, the bytes of ``_dumps`` on the object of
    each vertex's row and the totals, from ``analysis``: one text per
    component, and per vertex only its quoted id joined to its component's
    text."""
    inf, boolean = {INF: _dumps(ext_to_json(INF))}, _LEAVES[bool]  # an int is written as it is
    if truncated:
        texts = [_VERTEX_N % (inf.get(lm, lm), inf.get(lp, lp), c, boolean(comm),
                              "null" if w is None else "[\n        %d,\n        %d\n      ]" % w, d)
                 for c, (lm, lp, comm, w, d) in enumerate(rows)]
    else:
        texts = [_VERTEX % (inf.get(lm, lm), inf.get(lp, lp), c, boolean(comm))
                 for c, (lm, lp, comm, _, _) in enumerate(rows)]
    body = ",\n    ".join(map(add, map(_quote, q.vertices), map(texts.__getitem__, comp_of)))
    return '{\n  "vertices": {\n    ' + body + '\n  },\n  "totals": ' + _dumps(totals, "\n  ") + "\n}"


class _Raw(str):
    """JSON text, which ``_dumps`` writes as it stands."""


_LEAVES[_Raw] = str

# An arrow record and a label table row of ``construct --truncate`` as
# ``_dumps`` writes them: matrix rows sit at depth 8, their entries at depth
# 10, and a label in the table at depth 6.
_ARROW = ('{\n      "id": %s,\n      "shape": [\n        %d,\n        %d\n      ],'
          '\n      "matrix": [\n        %s\n      ]\n    }')
_TABLE_ROW = "[\n      %s,\n      %s,\n      %s\n    ]"
_ROW, _ENTRY = ",\n        ", ",\n          "


def _graded_json(rep: GradedRep) -> str:
    """``_dumps(rep.to_json())``, byte for byte, with each matrix row one
    ``join``.  Each label's text is made once, from the label table, and
    serves both places it appears.  Entries are looked up by identity: a
    built rep holds its labels and one zero, and any other entry (every
    entry of a rep read from a file is a new object) gets its own text."""
    table = sorted(rep.labels.items())
    label_texts = [_dumps(_entry_json(v), "\n      ") for _, v in table]
    texts = {id(v): t.replace("\n", "\n    ") for (_, v), t in zip(table, label_texts)}

    def row(r):
        try:
            return "[\n          " + _ENTRY.join(map(texts.__getitem__, map(id, r))) + "\n        ]"
        except KeyError:  # an entry met for the first time
            texts.update((id(e), _dumps(_entry_json(e), "\n          ")) for e in r)
            return row(r)

    arrows = [_Raw(_ARROW % (_dumps(name), len(m), len(m[0]), _ROW.join(map(row, m))))
              for name, m in rep.matrices.items()]
    return _dumps(rep._document(arrows, [_Raw(_TABLE_ROW % (_dumps(arrow), _dumps(k), t))
                                         for ((arrow, k), _), t in zip(table, label_texts)]))


def cmd_analyze(ns: argparse.Namespace) -> int:
    q = _load_quiver(ns)
    truncated = ns.truncate is not None
    comp_of, rows, totals = analysis(q, ns.truncate)
    if ns.json:
        _emit(_analysis_json(q, comp_of, rows, totals, truncated), ns)
        return 0
    lines = [f"quiver: {q.n} vertices, {len(q.arrow_names())} arrows", ""]
    cells = [[str(c), "yes" if comm else "no", str(lm), str(lp)]
             + (["-" if w is None else f"[{w[0]},{w[1]}]", str(d)] if truncated else [])
             for c, (lm, lp, comm, w, d) in enumerate(rows)]
    table = [["vertex", "scc", "commutative", "l-", "l+"] + (["K", "d"] if truncated else [])]
    table += [[x, *cells[c]] for x, c in zip(q.vertices, comp_of)]
    lines += [_table(table), "", f"eff.dim(P) = {totals['effdim_path']}"]
    if truncated:
        lines.append(f"eff.dim(P_{ns.truncate}) = {totals['effdim_truncated']}")
    lines.append(f"stabilization: a={totals['a']} b={totals['b']} threshold={totals['threshold']}")
    _emit("\n".join(lines), ns)
    return 0


def cmd_construct(ns: argparse.Namespace) -> int:
    q = _load_quiver(ns)
    if ns.truncate is None:
        if ns.labels is not None:
            raise QuiverError("--labels applies only with --truncate")
        _emit(_dumps(build_path_rep(q).to_json()), ns)
    else:
        _emit(_graded_json(build_truncated_rep(q, ns.truncate, labels=ns.labels or "primes")), ns)
    return 0


def _json_object(pairs) -> dict:
    """A rep file's JSON object, whose keys must differ: ``json`` would keep a repeated key's last value."""
    if len(obj := dict(pairs)) < len(pairs):  # popped in order, the repeated key is the first found gone
        raise ValueError(f"a JSON object repeats key {next(k for k, _ in pairs if obj.pop(k, obj) is obj)!r}")
    return obj


def _load_rep(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh, object_pairs_hook=_json_object)
        if not isinstance(data, dict):
            raise ValueError("a representation file must hold a JSON object")
        kind = data.get("kind")
        if kind == "path":
            return SymbolicRep.from_json(data)
        if kind == "truncated":
            return GradedRep.from_json(data)
        raise ValueError(f"unrecognized representation kind {kind!r}")
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # undecodable or malformed content
        raise ValueError(f"{path}: {exc}") from None


def cmd_verify(ns: argparse.Namespace) -> int:
    q = _load_quiver(ns)
    if ns.rep_path is not None:
        rep = _load_rep(ns.rep_path)
    elif ns.truncate is not None:
        rep = build_truncated_rep(q, ns.truncate)
    else:
        rep = build_path_rep(q)
    if isinstance(rep, GradedRep):
        if ns.max_len is not None:
            raise QuiverError("--max-len does not apply to a truncated representation")
        result = verify_truncated(rep, q, ns.truncate or rep.N)
    else:
        if ns.truncate is not None:
            raise QuiverError("--truncate does not apply to a path-semigroup representation")
        result = verify_path_rep(rep, q, ns.max_len)
    if ns.json:
        _emit(_dumps(result.to_json()), ns)
    else:
        lines = [
            f"status: {result.status}",
            f"checked: {result.checked}",
            f"max_length: {result.max_length}",
        ]
        if result.witness:
            lines.append("witness: " + ", ".join(result.witness))
        _emit("\n".join(lines), ns)
    return 0 if result.ok else 1


def cmd_stabilize(ns: argparse.Namespace) -> int:
    q = _load_quiver(ns)
    st = stabilization(q)
    table = [[N, d] for N, d in enumerate(effdim_table(q, q.n + 1), 1)]
    if ns.json:
        data = {"a": st.a, "b": st.b, "threshold": st.threshold, "table": table}
        _emit(_dumps(data), ns)
        return 0
    lines = [f"a = {st.a}", f"b = {st.b}", f"threshold = {st.threshold}", ""]
    rows = [["N", "eff.dim(P_N)"]] + [[str(N), str(v)] for N, v in table]
    lines.append(_table(rows))
    _emit("\n".join(lines), ns)
    return 0


def cmd_formula(ns: argparse.Namespace) -> int:
    try:
        segments = [_decimal(s) for s in ns.segments.split(",")]
    except ValueError as exc:
        raise QuiverError(f"cannot parse segment list: {exc}") from None
    value = line_quiver_effdim(segments, ns.truncate)
    if ns.json:
        data = {"segments": segments, "N": ns.truncate, "effdim": value}
        _emit(_dumps(data), ns)
    else:
        _emit(f"eff.dim(P_{ns.truncate}) = {value}", ns)
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "stabilize": cmd_stabilize,
    "formula": cmd_formula,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command's own parser reads the rest of its line, at about half the cost
    # of the top-level parser, which reads a line that names no command.
    if argv and (command := _command_parsers().get(argv[0])):
        ns, extra = command.parse_known_args(argv[1:])
        if extra:  # worded by the top-level parser, as its own parse words it
            build_parser().error("unrecognized arguments: " + " ".join(extra))
    else:
        ns = build_parser().parse_args(argv)
    # A command makes many containers and no cyclic garbage worth a pass of
    # the collector; its earlier state returns with the command.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[ns.command](ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
