"""Golden verifier reports: one JSON line per ``VerifyReport`` for the 200
suite path reps, their unfaithful variants (each arrow zeroed, the first
two arrows of one shape given one matrix, every nonzero entry set to 1),
and the suite's truncated reps at N = 1..4 with both label kinds, compared
with ``tests/golden/verify_reports.jsonl``; and one line for each of the
same variants of those truncated reps (every arrow zeroed in turn),
compared with ``tests/golden/truncated_variant_reports.jsonl``; and one
line for each variant of the first 150 suite quivers' truncated reps at
N = 2, 3 with a label moved one grade down (``helpers.label_moved_down``),
every one a ``relation_violation``, compared with
``tests/golden/relation_violation_reports.jsonl``.

The files pin what changes to the verifiers must not change.  After a
deliberate report change, rewrite all three
with ``PYTHONPATH=src python tests/test_verify_golden.py`` and review the
diff.
"""

import json
import pathlib

import helpers
from pathrep import oracle
from pathrep.oracle import verify_path_rep, verify_truncated
from pathrep.repbuild import build_path_rep, build_truncated_rep

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "verify_reports.jsonl"
VARIANT_GOLDEN = GOLDEN.with_name("truncated_variant_reports.jsonl")
RELATION_GOLDEN = GOLDEN.with_name("relation_violation_reports.jsonl")


def report_lines():
    """Yield one JSON line per case, its label first."""
    suite = helpers.suite()
    for i, q in enumerate(suite):
        rep = build_path_rep(q)
        variants = [("built", rep), *helpers.unfaithful_variants(rep, q.arrow_names())]
        for label, variant in variants:
            yield json.dumps({"case": f"path {i} {label}", **verify_path_rep(variant, q).to_json()})
    yield from truncated_lines(variants=False)


def truncated_lines(variants):
    """Yield one JSON line per suite truncated rep (N = 1..4, both label
    kinds), or, with ``variants``, per unfaithful variant of one."""
    for i, q in enumerate(helpers.suite()):
        for N in range(1, 5):
            for labels in ("primes", "symbolic"):
                rep = build_truncated_rep(q, N, labels=labels)
                case = f"truncated {i} N={N} {labels}"
                for label, variant in helpers.truncated_variants(rep) if variants else [("", rep)]:
                    report = verify_truncated(variant, q, N)
                    yield json.dumps({"case": f"{case} {label}".rstrip(), **report.to_json()})


def relation_lines():
    """Yield one JSON line per variant of ``helpers.label_moved_down``."""
    for i, q in enumerate(helpers.suite(150)):
        for N in (2, 3):
            for labels in ("primes", "symbolic"):
                for arrow, variant in helpers.label_moved_down(build_truncated_rep(q, N, labels=labels)):
                    report = verify_truncated(variant, q, N)
                    case = f"moved down {i} N={N} {labels} {arrow}"
                    yield json.dumps({"case": case, **report.to_json()})


def _assert_lines_match(golden, lines):
    expected = golden.read_text(encoding="utf-8").splitlines()
    actual = list(lines)
    for want, got in zip(expected, actual):
        assert got == want, f"first differing case:\n  golden: {want}\n  now:    {got}"
    assert len(actual) == len(expected)


def test_verify_reports_match_the_golden():
    _assert_lines_match(GOLDEN, report_lines())


def test_truncated_variant_reports_match_the_golden():
    """8,192 reports, every status but ``relation_violation``: a variant
    keeps or shrinks the supports of the built matrices."""
    _assert_lines_match(VARIANT_GOLDEN, truncated_lines(variants=True))


def test_relation_violation_reports_match_the_golden():
    """Every report of a label moved a grade down is a relation violation,
    with the path of length N that survives as its witness."""
    _assert_lines_match(RELATION_GOLDEN, relation_lines())
    statuses = {json.loads(line)["status"]
                for line in RELATION_GOLDEN.read_text(encoding="utf-8").splitlines()}
    assert statuses == {"relation_violation"}


def test_clashing_probes_leave_the_path_reports_unchanged(monkeypatch):
    """With every variable and r at one value, probes of different images
    clash, so the probe pass fails on effective reps too and
    ``_check_exact`` decides; every report still equals the golden.  The
    cases with more than 1,000 elements, whose exact passes take seconds,
    are left out: 1,179 of the 1,234 path cases remain."""
    golden = [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
              if line.startswith('{"case": "path ')]
    exact = []
    check_exact = oracle._check_exact
    monkeypatch.setattr(oracle, "_point", lambda index: 7)
    monkeypatch.setattr(oracle, "_check_exact",
                        lambda *args, **kw: exact.append(args[0]) or check_exact(*args, **kw))
    lines = iter(golden)
    compared = fallbacks = 0
    for i, q in enumerate(helpers.suite()):
        rep = build_path_rep(q)
        for label, variant in [("built", rep), *helpers.unfaithful_variants(rep, q.arrow_names())]:
            want = next(lines)
            if json.loads(want)["checked"] > 1000:
                continue
            exact.clear()
            report = verify_path_rep(variant, q)
            assert json.dumps({"case": f"path {i} {label}", **report.to_json()}) == want
            compared += 1
            fallbacks += bool(exact) and report.ok
    assert compared == 1179 and fallbacks >= 100  # 120 effective reports came from it


def test_clashing_probes_leave_the_truncated_reports_unchanged(monkeypatch):
    """With every variable and r at one value, probes of different images
    clash, so the probe pass fails on effective reps too and
    ``_check_exact`` decides; every truncated report of both goldens,
    built reps and their variants, still equals the golden."""
    decided = []
    check_exact = oracle._check_exact
    monkeypatch.setattr(oracle, "_point", lambda index: 7)
    monkeypatch.setattr(oracle, "_check_exact",
                        lambda *args: decided.append(check_exact(*args)) or decided[-1])
    built = [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
             if line.startswith('{"case": "truncated ')]
    assert list(truncated_lines(variants=False)) == built
    _assert_lines_match(VARIANT_GOLDEN, truncated_lines(variants=True))
    assert sum(report.ok for report in decided) >= 400  # 462 effective reports came from it


if __name__ == "__main__":
    for golden, lines in [(GOLDEN, report_lines()),
                          (VARIANT_GOLDEN, truncated_lines(variants=True)),
                          (RELATION_GOLDEN, relation_lines())]:
        golden.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
