#!/usr/bin/env python3
"""Benchmark for the arithcurves CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/`` there.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md for the
workloads, the metrics and the timing design (one pinned CPU, times also in
units of a reference loop).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from refloop import Reference  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

HASH_SEED = "0"
SETUP_PROBES = 8          # set-up is also measured this many times in fresh processes
IMPORTTIME_RUNS = 3
REF_INTERVAL = 0.1        # at most this long between two reference samples

END_TO_END = (("setup_s", "s"), ("op_p50_ref", "ref"), ("total_ref", "ref"),
              ("peak_rss_mb", "MB"))

# per-layer metrics: (metric, unit, span, field); values are per traced cycle
SPAN_METRICS = (
    ("cli.run.self_s", "s", "cli.run", "self_s"),
    ("rootsys.build_root_system.self_s", "s", "rootsys.build_root_system", "self_s"),
    ("rootsys.weyl_group.self_s", "s", "rootsys.weyl_group", "self_s"),
    ("rootsys.weyl_group.elements", "count", "rootsys.weyl_group", "elements"),
    ("rootsys.word_matrix.self_s", "s", "rootsys.word_matrix", "self_s"),
    ("rootsys.word_matrix.calls", "count", "rootsys.word_matrix", "calls"),
    ("charmorph.realization.self_s", "s", "charmorph.realization", "self_s"),
    ("charmorph.realization.calls", "count", "charmorph.realization", "calls"),
    ("charmorph.chi_torus.self_s", "s", "charmorph.chi_torus", "self_s"),
    ("chevalley.structure_constants.self_s", "s", "chevalley.structure_constants", "self_s"),
    ("chevalley.build_chevalley_basis.self_s", "s", "chevalley.build_chevalley_basis",
     "self_s"),
    ("chevalley.verify_chevalley.self_s", "s", "chevalley.verify_chevalley", "self_s"),
    ("chevalley.verify_chevalley.jacobi_triples", "count", "chevalley.verify_chevalley",
     "jacobi_triples"),
    ("charmorph.char_coeffs.self_s", "s", "charmorph.char_coeffs", "self_s"),
    ("charmorph.char_coeffs.calls", "count", "charmorph.char_coeffs", "calls"),
    ("curve.characteristic_point.self_s", "s", "curve.characteristic_point", "self_s"),
    ("curve.poly_discriminant.self_s", "s", "curve.poly_discriminant", "self_s"),
    ("arakelov.FractionalIdeal.from_elements.self_s", "s",
     "arakelov.FractionalIdeal.from_elements", "self_s"),
    ("arakelov.FractionalIdeal.from_elements.calls", "count",
     "arakelov.FractionalIdeal.from_elements", "calls"),
    ("arakelov.FractionalIdeal.power.self_s", "s", "arakelov.FractionalIdeal.power", "self_s"),
    ("curve.ramified_primes.self_s", "s", "curve.ramified_primes", "self_s"),
    ("curve.ramified_primes.reported", "count", "curve.ramified_primes", "reported"),
    ("finitefield.is_prime.calls", "count", "finitefield.is_prime", "calls"),
    ("finitefield.is_prime.self_s", "s", "finitefield.is_prime", "self_s"),
    ("curve.smallest_split_prime.self_s", "s", "curve.smallest_split_prime", "self_s"),
    ("curve.smallest_split_prime.factor_calls", "count", "curve.smallest_split_prime",
     "factor_calls"),
    ("curve.covering_degree_check.self_s", "s", "curve.covering_degree_check", "self_s"),
    ("finitefield.factor_pattern.self_s", "s", "finitefield.factor_pattern", "self_s"),
    ("finitefield.factor_pattern.calls", "count", "finitefield.factor_pattern", "calls"),
    ("finitefield.roots_mod_p.self_s", "s", "finitefield.roots_mod_p", "self_s"),
    ("curve.cameral_fiber_rational.self_s", "s", "curve.cameral_fiber_rational", "self_s"),
    ("torsor.slope.self_s", "s", "torsor.slope", "self_s"),
    ("torsor.verify_compatibility.self_s", "s", "torsor.verify_compatibility", "self_s"),
    ("arakelov.arithmetic_degree.self_s", "s", "arakelov.arithmetic_degree", "self_s"),
)
# ops_per_s and op_p50_s are end-to-end figures in seconds, but the machine's
# speed swings too much between runs to hold them to a bound (README.md); they
# are reported from the untraced cycles of the traced run.
PER_LAYER = (("ops_per_s", "1/s"), ("op_p50_s", "s"),
             ("cli.import_s", "s"), ("cli.import_numpy_s", "s"),
             *((m, u) for m, u, _, _ in SPAN_METRICS),
             ("curve.ramified_primes.reported_per_test", "ratio"),
             ("bench.ref_s", "s"), ("bench.trace_overhead_ref", "ref"))


# ---------------------------------------------------------------------------
# executing one operation

class Result:
    __slots__ = ("start", "wall", "rc", "out", "err", "maxrss_kb")

    def __init__(self, start, wall, rc, out, err, maxrss_kb=0):
        self.start, self.wall, self.rc = start, wall, rc
        self.out, self.err, self.maxrss_kb = out, err, maxrss_kb

    def outcome_ok(self, op) -> bool:
        if op.expect == "usage":
            return self.rc == 2 and bool(self.err.strip()) and not self.out.strip()
        if self.rc != 0:
            return False
        try:
            doc = json.loads(self.out)
        except ValueError:
            return False
        return not (isinstance(doc, dict) and "error" in doc)


class ColdExecutor:
    """Each operation in a fresh ``python -m arithcurves.cli`` process."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
                        PYTHONPATH=os.pathsep.join(
                            p for p in (os.path.join(root, "src"),
                                        os.environ.get("PYTHONPATH")) if p))
        self.spans: dict = {}      # aggregate of the traced operations' spans

    def __call__(self, op, traced: bool = False) -> Result:
        spans_path = os.path.join(self.work, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path, *op.argv]
        else:
            cmd = [sys.executable, "-m", "arithcurves.cli", *op.argv]
        with open(os.path.join(self.work, "stdout"), "w+b") as fo, \
                open(os.path.join(self.work, "stderr"), "w+b") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            out = fo.read().decode("utf-8", "replace")
            err = fe.read().decode("utf-8", "replace")
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                merge(self.spans, json.load(fh))
        return Result(start, wall, proc.returncode, out, err, usage.ru_maxrss)


class WarmExecutor:
    """Each operation through ``arithcurves.cli.run(argv, out=...)`` in this process."""

    def __init__(self):
        import arithcurves.cli as cli
        self.cli = cli
        self.tracer = Tracer()

    def __call__(self, op, traced: bool = False) -> Result:
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.run(list(op.argv), out=out)
                except SystemExit as exc:          # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:                  # a traceback, as a cold process would print
                    traceback.print_exc(file=err)
                    rc = 1
            wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        return Result(start, wall, rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# set-up, timed loop, checks

def set_up(name: str, seed: int, root: str, work: str):
    """Input generation, then import + warm-up pass (warm) or one cold start (cold)."""
    start = time.perf_counter()
    wl = workloads.build(name, seed, work)
    if wl.cold:
        execute = ColdExecutor(root, work)
        execute(workloads.Op(list(workloads.COLD_START)))
    else:
        execute = WarmExecutor()
        for op in wl.warmup:
            execute(op)
    return wl, execute, time.perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of a fresh benchmark process for the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def import_times(root: str) -> tuple[float, float]:
    """Cumulative import time of arithcurves.cli and of numpy, from -X importtime."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.path.join(root, "src"))
    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import arithcurves.cli"],
                              capture_output=True, text=True, env=env, check=True)
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum.setdefault(parts[2].strip(), int(parts[1]))
        cli_s.append((cum.get("arithcurves", 0) + cum.get("arithcurves.cli", 0)) / 1e6)
        numpy_s.append(cum.get("numpy", 0) / 1e6)
    return statistics.median(cli_s), statistics.median(numpy_s)


@dataclass
class Record:
    """One attempted operation: which cycle, which op, its result and ref unit."""

    cycle: int
    index: int
    result: Result
    traced: bool
    unit: float = 0.0       # reference time at the operation's midpoint

    @property
    def ref(self) -> float:
        return self.result.wall / self.unit


def run_timed(args, wl, execute, probes: list[float]):
    """Whole cycles of the operation list until ``args.seconds`` have passed.

    In a traced run, cycles alternate untraced / traced, ending on a traced one.
    Set-up probes and reference samples run between operations, never inside a
    timed interval.
    """
    ref = Reference(REF_INTERVAL, fresh_process=wl.cold)
    ref.sample()
    records = []
    start = time.perf_counter()
    last_probe = start
    probe_every = args.seconds / (SETUP_PROBES + 1)
    cycle = 0
    while True:
        traced = bool(args.trace) and cycle % 2 == 1
        for i, op in enumerate(wl.ops):
            res = execute(op, traced)
            ref.maybe_sample()
            records.append(Record(cycle, i, res, traced))
            if op.feeds:
                with open(op.feeds, "w", encoding="utf-8") as fh:
                    fh.write(res.out)
            if (not args.trace and len(probes) < SETUP_PROBES
                    and time.perf_counter() - last_probe >= probe_every):
                ref.sample()
                probes.append(setup_probe(args))
                last_probe = time.perf_counter()
                ref.sample()
        cycle += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or cycle % 2 == 0):
            break
    ref.sample()
    while not args.trace and len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    for rec in records:
        rec.unit = ref.unit(rec.result.start, rec.result.start + rec.result.wall)
    return records, ref


def check_outputs(wl, records) -> list[str]:
    """Failures of the output checks; cycles must also repeat the first one's output."""
    import checks          # sympy: imported only after peak RSS is recorded

    problems = []
    first = {}
    for rec in records:
        op, res = wl.ops[rec.index], rec.result
        if not res.outcome_ok(op):
            continue
        if rec.index in first:
            if (res.rc, res.out) != first[rec.index]:
                problems.append(f"{op.label}: output differs between cycles")
            continue
        first[rec.index] = (res.rc, res.out)
        if op.expect != "ok":
            continue
        try:
            checks.run_check(op, res.out)
        except Exception as exc:           # a failed check, or output the check cannot read
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return problems


def _cycle_totals(records) -> dict[tuple[int, bool], float]:
    totals: dict[tuple[int, bool], float] = {}
    for rec in records:
        key = (rec.cycle, rec.traced)
        totals[key] = totals.get(key, 0.0) + rec.ref
    return totals


def end_to_end(records, setups, peak_rss_mb) -> dict:
    values = {"setup_s": statistics.median(setups),
              "op_p50_ref": statistics.median(rec.ref for rec in records),
              "total_ref": statistics.median(_cycle_totals(records).values()),
              "peak_rss_mb": peak_rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(records, ref, spans, imports) -> dict:
    totals = _cycle_totals(records)
    traced_cycles = sum(1 for _, traced in totals if traced)
    stats = spans.get("stats", {})

    def field(span, key):
        return stats.get(span, {}).get(key, 0) / traced_cycles

    traced_ref = statistics.median(v for (_, t), v in totals.items() if t)
    plain_ref = statistics.median(v for (_, t), v in totals.items() if not t)
    tests = field("curve.ramified_primes", "prime_tests")
    walls = [rec.result.wall for rec in records if not rec.traced]
    values = {"ops_per_s": len(walls) / sum(walls), "op_p50_s": statistics.median(walls),
              "cli.import_s": imports[0], "cli.import_numpy_s": imports[1],
              **{m: field(span, key) for m, _, span, key in SPAN_METRICS},
              "curve.ramified_primes.reported_per_test":
                  field("curve.ramified_primes", "reported") / tests if tests else 0.0,
              "bench.ref_s": statistics.median(ref.values),
              "bench.trace_overhead_ref": traced_ref - plain_ref}
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arithcurves", "cli.py")):
        print("perfbench: run from the root of an arithcurves checkout "
              "(src/arithcurves/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})          # inherited by every process started below

    out_dir = ".perfbench"                  # relative to the checkout root, the cwd
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        wl, execute, setup_s = set_up(args.workload, args.seed, root, work)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        probes: list[float] = []
        records, ref = run_timed(args, wl, execute, probes)
        peak_kb = (max(rec.result.maxrss_kb for rec in records) if wl.cold
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        problems = check_outputs(wl, records)
        if args.trace:
            spans = execute.spans if wl.cold else execute.tracer.summary()
            metrics = per_layer(records, ref, spans, import_times(root))
        else:
            spans = None
            metrics = end_to_end(records, [setup_s, *probes], peak_kb / 1024)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [wl.ops[rec.index].label for rec in records
              if not rec.result.outcome_ok(wl.ops[rec.index])]
    result = {"correct": not problems, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for label in sorted(set(failed)):
        print(f"perfbench: failed operation: {label}", file=sys.stderr)
    if spans and spans.get("absent"):
        print(json.dumps({"absent": spans["absent"]}))
        print(f"perfbench: absent traced functions: {', '.join(spans['absent'])}",
              file=sys.stderr)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cpu": cpu, "result": result, "problems": problems,
              "ops": [{"cycle": rec.cycle, "op": wl.ops[rec.index].label,
                       "rc": rec.result.rc, "wall_s": rec.result.wall, "unit_s": rec.unit,
                       "traced": rec.traced, "ok": rec.result.outcome_ok(wl.ops[rec.index])}
                      for rec in records],
              "spans": spans}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, "results", name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
