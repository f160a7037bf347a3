"""Benchmark for pathrep: one workload per process, on one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-path --seed 1 --seconds 10 --trace 0

The program is driven only through ``pathrep.cli.main(argv)``, in process,
with every quiver, representation and output file in a temporary directory
under ``perfbench/out``.  A run sets up (imports ``pathrep``, generates the
inputs from the seed and writes them) at least five times and keeps the
last set, then runs whole rounds of the workload's instances until
``--seconds`` have passed, at least one round.  It then checks every output
of the last round against ``reference`` and runs the negative controls.
Reported times are scaled to a reference machine speed by ``speed.Gauge``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced round, one traced round and the negative controls under
the tracer, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed; it is 2
when the checkout holds no ``src/pathrep``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import checks
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = (5, 15)  # at least, at most
SETUP_SECONDS = 2.0  # set up again while the set-ups so far took less
# suite-path instances with at most this many elements to check take a few
# ms; each runs SMALL_REPEATS times and counts with the median of its runs.
SMALL_ELEMENTS = 500
SMALL_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile leaves this many instances above it
PATHREP_MODULES = ("cli", "quiver", "dimension", "paths", "repbuild", "polyring", "oracle")


@dataclass
class Instance:
    """One timed unit: its CLI commands run back to back."""

    quiver: str
    commands: list
    outputs: list
    N: int | None = None
    labels: str | None = None
    repeat: int = 1


class Writer:
    """Writes a workload's quiver files into one directory and keeps the
    time that took.  Set-up leaves that time out: creating a small file on
    the disk of the machine the benchmark was made on took 0.4-0.6 ms, and
    the total swung by half from run to run, which no gauge of processor
    speed follows, and no change to ``pathrep`` can change it.  The set-up
    gauge may take a burst here too, in the time left out, so that a long
    set-up is gauged throughout."""

    def __init__(self, directory, gauge):
        self.directory = directory
        self.gauge = gauge
        self.seconds = 0.0

    def quiver(self, name, quiver) -> str:
        t = time.perf_counter()
        self.gauge.tick()
        path = workloads.write_quiver(self.directory, name, quiver)
        self.seconds += time.perf_counter() - t
        return path


def _controls(w, seed):
    """Three small suite quivers with at least two arrows, for the controls."""
    picked = [q for q in workloads.suite(seed) if len(q[1]) >= 2][:3]
    return [w.quiver(f"control{i}", q) for i, q in enumerate(picked)]


def prepare_suite_path(seed, w):
    instances = []
    for i, q in enumerate(workloads.suite(seed)):
        qp = w.quiver(f"s{i}", q)
        out = os.path.join(w.directory, f"s{i}-verify.json")
        small = checks.path_verify_elements(q) <= SMALL_ELEMENTS
        instances.append(Instance(qp, [["verify", qp, "--json", "--out", out]], [out],
                                  repeat=SMALL_REPEATS if small else 1))
    return instances, _controls(w, seed)


def _graded(qp, N, labels, stem):
    rep = stem + "-rep.json"
    out = stem + "-verify.json"
    return Instance(
        qp,
        [["construct", qp, "--truncate", str(N), "--labels", labels, "--out", rep],
         ["verify", qp, "--rep", rep, "--json", "--out", out]],
        [rep, out],
        N,
        labels,
    )


def prepare_graded_build(seed, w):
    instances = []
    for i, q in enumerate(workloads.suite(seed)):
        qp = w.quiver(f"s{i}", q)
        for labels in ("primes", "symbolic"):
            for N in workloads.GRADED_LEVELS:
                instances.append(_graded(qp, N, labels, os.path.join(w.directory, f"s{i}-{labels}-{N}")))
    for i, (q, N) in enumerate(workloads.lines(seed)):
        qp = w.quiver(f"line{i}", q)
        instances.append(_graded(qp, N, "primes", os.path.join(w.directory, f"line{i}")))
    return instances, _controls(w, seed)


def prepare_analyze_large(seed, w):
    instances = []
    for i, (q, N) in enumerate(workloads.large(seed)):
        qp = w.quiver(f"big{i}", q)
        out = os.path.join(w.directory, f"big{i}-analyze.json")
        instances.append(Instance(
            qp, [["analyze", qp, "--truncate", str(N), "--json", "--out", out]], [out], N))
    return instances, _controls(w, seed)


WORKLOADS = {
    # name: (prepare, check, what the check's count means)
    "suite-path": (prepare_suite_path, checks.check_path_verify, "semigroup elements checked"),
    "graded-build": (prepare_graded_build, checks.check_graded, "semigroup elements checked"),
    "analyze-large": (prepare_analyze_large, checks.check_analyze, "vertices analysed"),
}


def import_pathrep():
    """Import pathrep afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "pathrep" or m.startswith("pathrep.")]:
        del sys.modules[name]
    importlib.import_module("pathrep.cli")
    return {name: sys.modules["pathrep." + name] for name in PATHREP_MODULES}


def run_round(instances, call, gauge=None):
    """Run every instance; returns (spans, failures), a span being an
    instance's (seconds, start, end).

    An instance runs ``repeat`` times and its time is the median of its
    runs.  Before each run, outside its time, a full collection gives it
    the collector state of a fresh process, which a user running the
    command has; otherwise when the collector's full passes fall, and what
    they cost, would depend on the instances run before.  With a gauge, a
    burst of the speed kernel may run before an instance too.
    """
    spans = []
    failures = []
    for inst in instances:
        if gauge is not None:
            gauge.tick()
        runs = []
        start = time.perf_counter()
        for _ in range(inst.repeat):
            gc.collect()
            t = time.perf_counter()
            for argv in inst.commands:
                try:
                    rc = call(argv)
                except Exception as exc:  # a traceback is a failed operation, not a crash of the run
                    rc = f"{type(exc).__name__}: {exc}"
                if rc != 0:
                    failures.append(f"{' '.join(argv)} -> {rc}")
            runs.append(time.perf_counter() - t)
        spans.append((statistics.median(runs), start, time.perf_counter()))
    return spans, failures


def tail_percentile(per_round):
    """The highest percentile with TAIL_BEYOND of a round's instances above it."""
    return 100.0 * (per_round - TAIL_BEYOND) / per_round


def latencies(times, per_round):
    """``wall_s``, ``instance_ms_p50`` and ``instance_ms_tail`` of the
    instance times of whole rounds, pooled."""
    ordered = sorted(times)
    rounds = len(ordered) // per_round
    return {
        "wall_s": (sum(ordered) / rounds, "s"),
        "instance_ms_p50": (1000 * statistics.median(ordered), "ms"),
        "instance_ms_tail": (1000 * ordered[rounds * (per_round - TAIL_BEYOND) - 1], "ms"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pathrep", "cli.py")):
        print(f"error: no pathrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    prepare, check, work_label = WORKLOADS[args.workload]

    setups = []
    work = None
    setup_gauge = speed.Gauge()
    while len(setups) < SETUP_REPEATS[0] or (
            sum(t for t, _, _ in setups) < SETUP_SECONDS and len(setups) < SETUP_REPEATS[1]):
        if work is not None:
            work.cleanup()
        setup_gauge.sample()
        start = time.perf_counter()
        modules = import_pathrep()
        work = tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-")
        writer = Writer(work.name, setup_gauge)
        instances, control_quivers = prepare(args.seed, writer)
        end = time.perf_counter()
        setups.append((end - start - writer.seconds, start, end))
    setup_gauge.sample()
    try:
        return measure(args, modules, instances, control_quivers, work.name,
                       check, work_label, setups, setup_gauge)
    finally:
        work.cleanup()


def measure(args, modules, instances, control_quivers, workdir, check, work_label,
            setups, setup_gauge):
    cli_main = modules["cli"].main
    tracer = None
    gauge = speed.Gauge()
    # Freeze everything alive now out of the collector's reach.  Most of it
    # is the benchmark's own (instances, file names), which a user's
    # process running one command does not hold; the modules go with it.
    # The full collection before each run then costs microseconds instead
    # of about 5 ms.
    gc.collect()
    gc.freeze()
    spans = []  # every instance of every round: one population of alike rounds
    failures = []
    rounds = 0
    timed_start = time.perf_counter()
    while True:
        round_spans, failed = run_round(instances, cli_main, gauge)
        spans += round_spans
        failures += failed
        rounds += 1
        if args.trace or time.perf_counter() - timed_start >= args.seconds:
            break
    gauge.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_round = sum(len(inst.commands) * inst.repeat for inst in instances)
    attempted = rounds * per_round
    wall = sum(t for t, _, _ in spans) / rounds

    run_cli = cli_main
    if args.trace:
        tracer = tracing.Tracer()
        gc.collect()
        tracer.install(modules)

        def run_cli(argv):
            return tracer.call("cli.main", cli_main, argv)

        traced_spans, failed = run_round(instances, run_cli)
        failures += failed
        attempted += per_round
    errors, controls = checks.negative_controls(run_cli, workdir, control_quivers, args.seed)
    if tracer is not None:
        tracer.uninstall()

    work_done = 0
    for inst in instances:
        problems, count = check(inst)
        errors += problems
        work_done += count

    print(f"workload {args.workload}, seed {args.seed}: {rounds} round(s) of "
          f"{len(instances)} instances; {attempted} operations attempted, "
          f"{len(failures)} failed; {work_done} {work_label} per round; "
          f"{controls} negative controls")
    for line in failures[:10]:
        print(f"FAILED {line}")
    for line in errors[:20]:
        print(f"CHECK FAILED {line}")

    if tracer is None:
        measured = latencies([t for t, _, _ in spans], len(instances))
        measured["setup_s"] = (statistics.median(t for t, _, _ in setups), "s")
        print(f"instance_ms_tail is p{tail_percentile(len(instances)):.2f} of "
              f"{len(spans)} instances; speed kernel {1000 * gauge.kernel_s():.4f} ms timed, "
              f"{1000 * setup_gauge.kernel_s():.4f} ms in set-up, "
              f"{1000 * speed.REFERENCE_S:.4f} ms reference")
        for name, (value, unit) in measured.items():
            print(f"{name} as timed = {value:.6g} {unit}")
        metrics = latencies([t * gauge.scale(a, b) for t, a, b in spans], len(instances))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        setup_s = statistics.median(t * setup_gauge.scale(a, b) for t, a, b in setups)
        metrics["setup_s"] = (setup_s, "s")
    else:
        metrics = tracing.layer_metrics(tracer, sum(t for t, _, _ in traced_spans) - wall)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv.gz"))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = not errors and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
