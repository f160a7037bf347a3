"""Command-line front end: analyze, construct, verify, stabilize, formula.

Exit codes: 0 on success (and on a verification that reports effective),
1 when a verification fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .dimension import (
    effdim_path,
    effdim_truncated,
    line_quiver_effdim,
    report,
    stabilization,
)
from .oracle import verify_path_rep, verify_truncated
from .quiver import Quiver, QuiverError, parse_quiver
from .repbuild import GradedRep, SymbolicRep, build_path_rep, build_truncated_rep


@dataclass
class RunConfig:
    command: str
    quiver_path: str | None = None
    N: int | None = None
    max_len: int | None = None
    json_output: bool = False
    out: str | None = None
    seed: int | None = None
    segments: list[int] | None = None
    rep_path: str | None = None
    labels: str = "primes"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathrep",
        description="Minimal faithful matrix representations of path semigroups of finite quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, quiver=True):
        if quiver:
            p.add_argument("quiver", help="quiver file (vertex/arrow lines)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        p.add_argument("--seed", type=int, metavar="S", help="seed for randomized suites")

    p = sub.add_parser("analyze", help="per-vertex table and dimension totals")
    common(p)
    p.add_argument("--truncate", type=_positive_int, metavar="N", help="truncation level")

    p = sub.add_parser("construct", help="emit a representation as JSON")
    common(p)
    p.add_argument("--truncate", type=_positive_int, metavar="N",
                   help="build the truncated representation (default: path semigroup)")
    p.add_argument("--labels", choices=("primes", "symbolic"), default="primes",
                   help="label type for the truncated construction")

    p = sub.add_parser("verify", help="build (or load) a representation and verify it")
    common(p)
    p.add_argument("--truncate", type=_positive_int, metavar="N", help="truncation level")
    p.add_argument("--max-len", type=_positive_int, metavar="L", dest="max_len",
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

    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    cfg.quiver_path = getattr(ns, "quiver", None)
    cfg.N = getattr(ns, "truncate", None)
    cfg.max_len = getattr(ns, "max_len", None)
    cfg.json_output = ns.json
    cfg.out = ns.out
    cfg.seed = ns.seed
    cfg.rep_path = getattr(ns, "rep_path", None)
    cfg.labels = getattr(ns, "labels", "primes")
    if getattr(ns, "segments", None) is not None:
        try:
            cfg.segments = [int(s) for s in ns.segments.split(",")]
        except ValueError:
            raise QuiverError(f"cannot parse segment list {ns.segments!r}") from None
    return cfg


def _emit(text: str, cfg: RunConfig):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_quiver(cfg: RunConfig) -> Quiver:
    with open(cfg.quiver_path, encoding="utf-8") as fh:
        return parse_quiver(fh.read())


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def cmd_analyze(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    data = report(q, cfg.N)
    if cfg.json_output:
        _emit(json.dumps(data, indent=2), cfg)
        return 0
    lines = [f"quiver: {q.n} vertices, {len(q.arrows)} arrows", ""]
    header = ["vertex", "scc", "commutative", "l-", "l+"]
    if cfg.N is not None:
        header += ["K", "d"]
    rows = [header]
    for x in q.vertices:
        v = data["vertices"][x]
        row = [x, str(v["scc"]), "yes" if v["commutative"] else "no",
               str(v["l_minus"]), str(v["l_plus"])]
        if cfg.N is not None:
            w = v["K"]
            row += ["-" if w is None else f"[{w[0]},{w[1]}]", str(v["d"])]
        rows.append(row)
    lines.append(_table(rows))
    lines.append("")
    totals = data["totals"]
    lines.append(f"eff.dim(P) = {totals['effdim_path']}")
    if cfg.N is not None:
        lines.append(f"eff.dim(P_{cfg.N}) = {totals['effdim_truncated']}")
    lines.append(
        f"stabilization: a={totals['a']} b={totals['b']} threshold={totals['threshold']}"
    )
    _emit("\n".join(lines), cfg)
    return 0


def cmd_construct(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    if cfg.N is None:
        rep = build_path_rep(q)
    else:
        rep = build_truncated_rep(q, cfg.N, labels=cfg.labels)
    _emit(json.dumps(rep.to_json(), indent=2), cfg)
    return 0


def _load_rep(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a representation file must hold a JSON object")
    kind = data.get("kind")
    if kind == "path":
        return SymbolicRep.from_json(data)
    if kind == "truncated":
        return GradedRep.from_json(data)
    raise QuiverError(f"unrecognized representation kind {kind!r}")


def cmd_verify(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    if cfg.rep_path is not None:
        rep = _load_rep(cfg.rep_path)
    elif cfg.N is not None:
        rep = build_truncated_rep(q, cfg.N)
    else:
        rep = build_path_rep(q)
    if isinstance(rep, GradedRep):
        if cfg.N is not None and cfg.N != rep.N:
            raise QuiverError(
                f"--truncate {cfg.N} does not match the representation (N={rep.N})"
            )
        result = verify_truncated(rep, q, rep.N)
    else:
        result = verify_path_rep(rep, q, cfg.max_len)
    if cfg.json_output:
        _emit(json.dumps(result.to_json(), indent=2), cfg)
    else:
        lines = [
            f"status: {result.status}",
            f"checked: {result.checked}",
            f"max_length: {result.max_length}",
        ]
        if result.witness:
            lines.append("witness: " + ", ".join(result.witness))
        _emit("\n".join(lines), cfg)
    return 0 if result.ok else 1


def cmd_stabilize(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    st = stabilization(q)
    table = [[N, effdim_truncated(q, N)] for N in range(1, q.n + 2)]
    if cfg.json_output:
        data = {"a": st.a, "b": st.b, "threshold": st.threshold, "table": table}
        _emit(json.dumps(data, indent=2), cfg)
        return 0
    lines = [f"a = {st.a}", f"b = {st.b}", f"threshold = {st.threshold}", ""]
    rows = [["N", "eff.dim(P_N)"]] + [[str(N), str(v)] for N, v in table]
    lines.append(_table(rows))
    _emit("\n".join(lines), cfg)
    return 0


def cmd_formula(cfg: RunConfig) -> int:
    value = line_quiver_effdim(cfg.segments, cfg.N)
    if cfg.json_output:
        data = {"segments": cfg.segments, "N": cfg.N, "effdim": value}
        _emit(json.dumps(data, indent=2), cfg)
    else:
        _emit(f"eff.dim(P_{cfg.N}) = {value}", cfg)
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "stabilize": cmd_stabilize,
    "formula": cmd_formula,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _config(ns)
        return _COMMANDS[cfg.command](cfg)
    except (QuiverError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
