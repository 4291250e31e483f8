"""Tests of the benchmark itself (not of arithcurves).

    python3 -m pytest perfbench/selftest.py -q

Run from the root of a checkout.  The file is deliberately not named
``test_*.py``, so the repository's own test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def work():
    path = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def outputs(work):
    """Untraced in-process output of every op of every workload that has a check."""
    execute = run.WarmExecutor()
    found = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, work)
        for op in wl.ops:
            if op.check and op.check not in found and "B4" not in op.argv and "C4" not in op.argv:
                res = execute(op)
                if op.feeds:
                    with open(op.feeds, "w", encoding="utf-8") as fh:
                        fh.write(res.out)
                found[op.check] = (op, json.loads(res.out))
    return found


def _corrupt_rootsys(doc):
    doc["weyl_order"] += 1


def _corrupt_chevalley(doc):
    rec = next(r for r in doc["bracket"] if any(r["result"]))
    k = next(i for i, c in enumerate(rec["result"]) if c)
    rec["result"][k] *= 2


def _corrupt_chi(doc):
    doc["invariants"][-1] = str(int(doc["invariants"][-1].split("/")[0]) + 1)


def _corrupt_degree(doc):
    doc["degree"] = repr(float(doc["degree"]) + 1e-6)


def _corrupt_slope(doc):
    doc["slope"] = repr(float(doc["slope"]) * 1.001)


def _corrupt_curve(doc):
    doc["disc"] = str(int(doc["disc"]) + 1)


def _corrupt_verify(doc):
    doc["ok"] = False


CORRUPT = {"rootsys": _corrupt_rootsys, "chevalley": _corrupt_chevalley,
           "chi_matrix": _corrupt_chi, "chi_torus": _corrupt_chi, "degree": _corrupt_degree,
           "slope": _corrupt_slope, "curve": _corrupt_curve, "verify": _corrupt_verify}


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_check_accepts_output_and_rejects_corruption(outputs, name):
    op, doc = outputs[name]
    checks.CHECKS[name](op, doc)
    bad = copy.deepcopy(doc)
    CORRUPT[name](bad)
    with pytest.raises(checks.CheckFailed):
        checks.CHECKS[name](op, bad)


def test_curve_check_rejects_wrong_ramified_primes(outputs):
    op = workloads.curve_q(3, "").ops[0]
    doc = json.loads(run.WarmExecutor()(op).out)
    checks.check_curve(op, doc)
    doc["ramified"] = doc["ramified"][1:] if doc["ramified"] else [{"p": 2, "pattern": [[1, 2]]}]
    with pytest.raises(checks.CheckFailed):
        checks.check_curve(op, doc)


def _cameral_q_op():
    return next(op for op in workloads.curve_q(3, "").ops if "--cameral" in op.argv)


# (operation, section the operation asks for)
SECTIONS = [
    (lambda: workloads.Op(["rootsys", "--type", "A3", "--weyl"], "rootsys"), "weyl_words"),
    (lambda: workloads.Op(["chevalley", "--type", "A2", "--verify"], "chevalley"), "verification"),
    (lambda: workloads.curve_q(3, "").ops[0], "ramified"),
    (lambda: workloads.curve_q(3, "").ops[0], "covering_ok"),
    (_cameral_q_op, "rational_points"),
]


@pytest.mark.parametrize("make_op, section", SECTIONS,
                         ids=[section for _, section in SECTIONS])
def test_check_rejects_a_missing_section(make_op, section):
    op = make_op()
    doc = json.loads(run.WarmExecutor()(op).out)
    checks.CHECKS[op.check](op, doc)
    del doc[section]
    with pytest.raises(checks.CheckFailed, match=section):
        checks.CHECKS[op.check](op, doc)


def test_curve_check_rejects_rational_points_on_a_curve_that_does_not_split():
    op = workloads.Op(["curve", "--matrix", '[["0","2"],["1","0"]]', "--cameral"], "curve")
    doc = json.loads(run.WarmExecutor()(op).out)
    checks.check_curve(op, doc)            # x^2 - 2: no rational points, none printed
    doc["rational_points"] = [["1", "-1"], ["-1", "1"]]
    with pytest.raises(checks.CheckFailed, match="rational_points"):
        checks.check_curve(op, doc)


def test_traced_and_untraced_outputs_match(work):
    execute = run.WarmExecutor()
    ops = workloads.curve_q(5, work).ops[:2] + workloads.curve_quadratic(5, work).ops[:2]
    for op in ops:
        plain, traced = execute(op), execute(op, traced=True)
        assert (plain.rc, plain.out) == (traced.rc, traced.out)
    assert execute.tracer.stats["cli.run"].calls == len(ops)
    cold = run.ColdExecutor(ROOT, work)
    op = workloads.Op(["chevalley", "--type", "G2", "--verify"])
    plain, traced = cold(op), cold(op, traced=True)
    assert (plain.rc, plain.out, plain.err) == (traced.rc, traced.out, traced.err)
    assert cold.spans["stats"]["chevalley.verify_chevalley"]["calls"] == 1


def test_absent_traced_function_is_reported(work):
    targets = (Target("curve.no_such_function", "arithcurves.curve", "no_such_function"),
               Target("nomodule.f", "arithcurves.no_such_module", "f"),
               Target("curve.spectral_curve", "arithcurves.curve", "spectral_curve"))
    tracer = Tracer(targets)
    with tracer:
        import arithcurves.cli as cli
        import io
        cli.run(["curve", "--matrix", '[["1","2"],["3","4"]]'], out=io.StringIO())
    summary = tracer.summary()
    assert summary["absent"] == ["curve.no_such_function", "nomodule.f"]
    assert summary["stats"]["curve.spectral_curve"]["calls"] == 1


def test_tracer_restores_every_patched_name():
    import arithcurves.curve as curve
    import arithcurves.finitefield as ff
    before = (curve.is_prime, ff.is_prime, curve.FractionalIdeal.__dict__["from_elements"])
    with Tracer():
        assert curve.is_prime is ff.is_prime is not before[0]
    after = (curve.is_prime, ff.is_prime, curve.FractionalIdeal.__dict__["from_elements"])
    assert after == before


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed(work):
    for name in workloads.WORKLOADS:
        a = [op.argv for op in workloads.BUILDERS[name](11, work).ops]
        b = [op.argv for op in workloads.BUILDERS[name](11, work).ops]
        c = [op.argv for op in workloads.BUILDERS[name](12, work).ops]
        assert a == b
        assert a != c


def test_chevalley_check_catches_a_jacobi_failure():
    op = workloads.Op(["chevalley", "--type", "B3", "--center", "1", "--verify"], "chevalley")
    doc = json.loads(run.WarmExecutor()(op).out)
    # [x_a, h] is outside the |N_ab| = p + 1 clause; only Jacobi sees it
    rec = next(r for r in doc["bracket"] if r["x"].startswith("x(") and r["y"].startswith("h("))
    rec["result"][next(i for i, c in enumerate(rec["result"]) if c)] += 1
    with pytest.raises(checks.CheckFailed, match="Jacobi"):
        checks.check_chevalley(op, doc)
