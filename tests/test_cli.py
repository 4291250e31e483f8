import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import arithcurves.cli as cli
from arithcurves import chevalley, curve, rootsys
from arithcurves.arakelov import NumberField
from arithcurves.cli import run
from arithcurves.errors import MAX_TORSOR_RANK, ArithCurvesError
from arithcurves.jsonutil import MAX_LITERAL_DIGITS
from helpers import chi_work, chi_work_message, largest_admitted_entry

CLI = [sys.executable, "-m", "arithcurves.cli"]


def invoke(*args):
    buf = io.StringIO()
    code = run(list(args), out=buf)
    return code, buf.getvalue()


def invoke_usage(capsys, *args):
    """Exit 2 with nothing on stdout; returns stderr."""
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(list(args), out=buf)
    assert exc.value.code == 2 and buf.getvalue() == ""
    return capsys.readouterr().err


def invoke_json(*args):
    code, text = invoke(*args)
    assert code == 0, text
    return json.loads(text)


def test_rootsys_verb():
    doc = invoke_json("rootsys", "--type", "A2")
    assert doc["kind"] == "rootsys"
    assert doc["count"] == 6 and doc["weyl_order"] == 6
    assert doc["gram"] == [["2", "-1"], ["-1", "2"]]


def test_rootsys_unsupported_exits_2():
    proc = subprocess.run(CLI + ["rootsys", "--type", "E8"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unsupported type" in proc.stderr
    assert proc.stdout == ""                      # no partial JSON


def test_chevalley_verb():
    doc = invoke_json("chevalley", "--type", "A1", "--center", "1", "--verify")
    assert doc["dim"] == 4
    assert doc["verification"]["ok"]
    # sl2: [x(1), x(-1)] = h(1)
    rec = next(r for r in doc["bracket"] if r["x"] == "x(1)" and r["y"] == "x(-1)")
    assert rec["result"] == [0, 0, 1, 0]


def test_negative_center_is_a_usage_error(capsys):
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(["chevalley", "--type", "A2", "--center", "-1"], out=buf)
    assert exc.value.code == 2 and buf.getvalue() == ""
    assert "--center" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [chevalley.MAX_CENTER_RANK + 1, 10 ** 9])
def test_center_above_the_limit_is_a_usage_error(capsys, rank):
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(["chevalley", "--type", "A1", "--center", str(rank), "--verify"], out=buf)
    assert exc.value.code == 2 and buf.getvalue() == ""
    assert str(chevalley.MAX_CENTER_RANK) in capsys.readouterr().err


def test_chi_verbs():
    doc = invoke_json("chi", "--matrix", '[["0","1"],["2","0"]]')
    assert doc["invariants"] == ["0", "-2"]
    doc = invoke_json("chi", "--torus-point", '["1","2","3"]', "--type", "gl3")
    assert doc["type"] == "gl_3" and doc["invariants"] == ["6", "11", "6"]


def test_chi_usage_errors():
    proc = subprocess.run(CLI + ["chi"], capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run(CLI + ["chi", "--matrix", "[[1,", ],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("args, code", [
    (["--matrix", "5"], 2),
    (["--matrix", '[["1/0"]]'], 2),
    (["--matrix", '[["a"]]'], 2),
    (["--matrix", "[]"], 2),
    (["--matrix", "[5]"], 2),
    (["--torus-point", "5", "--type", "A2"], 2),
    (["--torus-point", '["a","1","2"]', "--type", "A2"], 2),
    (["--matrix", '[["1","2"]]'], 1),                 # rectangular: a domain error
    (["--matrix", '[["1","2"],["3"]]'], 1),           # ragged: a domain error
])
def test_malformed_chi_input(capsys, args, code):
    buf = io.StringIO()
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            run(["chi", *args], out=buf)
        assert exc.value.code == 2 and buf.getvalue() == ""
        assert args[0] in capsys.readouterr().err
    else:
        assert run(["chi", *args], out=buf) == 1
        assert json.loads(buf.getvalue())["error"]["type"] == "NonSquare"


@pytest.mark.parametrize("text", ["[1, 2, 3]", "7", '"chevalley"'])
def test_verify_non_object_document_is_a_usage_error(tmp_path, capsys, text):
    f = tmp_path / "doc.json"
    f.write_text(text)
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--input", str(f)], out=buf)
    assert exc.value.code == 2 and buf.getvalue() == ""
    assert "--input" in capsys.readouterr().err


def test_slope_non_object_torsor_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "torsor.json"
    f.write_text("[1, 2, 3]")
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(["slope", "--torsor", str(f)], out=buf)
    assert exc.value.code == 2 and buf.getvalue() == ""
    assert "--torsor" in capsys.readouterr().err


def test_verify_negative_center_is_a_domain_error(tmp_path):
    doc = invoke_json("chevalley", "--type", "A1")
    doc["center"] = -1
    f = tmp_path / "neg.json"
    f.write_text(json.dumps(doc))
    code, text = invoke("verify", "--input", str(f))
    assert code == 1
    assert json.loads(text)["error"]["type"] == "DimensionMismatch"


def test_closed_stdout_ends_quietly():
    proc = subprocess.Popen(CLI + ["rootsys", "--type", "B4", "--weyl"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()                  # the reader goes away before any output
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Error" not in err


TORSOR = {"field": "Q(sqrt(-5))", "rank": 2, "ideals": [["1"], ["2", "1+w"]],
          "metrics": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
COMPUTATIONAL = ("cartan", "rootsys", "chevalley", "charmorph", "poly", "arakelov",
                 "finitefield", "curve", "torsor")


LIE = ("charmorph", "cartan", "rootsys", "poly")
# the standard library's exact rationals: `fractions` imports `decimal`
RATIONALS = ("fractions", "decimal")
VERB_MODULES = tuple(f"cli_{name}" for name in cli.VERBS if name != "verify")


@pytest.fixture
def documents(tmp_path):
    """Files a verb reads, named by the placeholders the argv lists below use."""
    files = {"TORSOR": json.dumps(TORSOR),
             "CURVE": invoke("curve", "--matrix", "[[0,1],[2,0]]", "--fibers", "20")[1]}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return lambda argv: [str(tmp_path / a) if a in files else a for a in argv]


@pytest.mark.parametrize("argv, code, absent, present", [
    ([], None, COMPUTATIONAL + ("numpy",) + RATIONALS, ()),
    (["chi", "--matrix", "5"], 2, COMPUTATIONAL + ("dataclasses", "numpy") + RATIONALS,
     ("cli_chi",)),
    (["rootsys", "--type", "A2", "--weyl"], 0,
     ("chevalley", "arakelov", "curve", "numpy", "dataclasses", "linalg") + RATIONALS,
     ("rootsys", "cli_rootsys")),
    (["chevalley", "--type", "B2", "--verify"], 0,
     ("charmorph", "arakelov", "curve", "numpy", "dataclasses", "linalg") + RATIONALS,
     ("chevalley", "cli_chevalley")),
    (["degree", "--field", "Q(i)", "--ideal", '["1+i"]', "--metrics", '["2.0"]'], 0,
     ("rootsys", "chevalley", "numpy", "dataclasses", "finitefield"), ("arakelov", "cli_degree")),
    (["chi", "--torus-point", "[1,2]", "--type", "B2"], 0,
     ("rootsys", "arakelov", "numpy", "dataclasses", "linalg"),
     ("charmorph", "cartan", "cli_chi") + RATIONALS),
    (["chi", "--matrix", '[["1/2", 3], [4, 5]]'], 0,
     LIE + ("arakelov", "numpy", "dataclasses"), ("linalg", "cli_chi")),
    (["curve", "--matrix", "[[0,1],[2,0]]", "--fibers", "20"], 0,
     LIE + ("torsor", "numpy", "dataclasses"), ("curve", "cli_curve")),
    (["slope", "--torsor", "TORSOR", "--char", "2"], 0,
     ("rootsys", "curve", "numpy", "dataclasses"), ("torsor", "linalg", "cli_slope")),
    (["verify", "--input", "TORSOR"], 0, ("rootsys", "curve", "numpy", "dataclasses"),
     ("torsor", "linalg", "cli_slope")),
    (["verify", "--input", "CURVE"], 0, LIE + ("torsor", "numpy", "dataclasses"),
     ("curve", "cli_curve")),
], ids=["import", "usage-error", "rootsys", "chevalley", "degree", "chi", "chi-matrix", "curve",
        "slope", "verify-torsor", "verify-curve"])
def test_each_verb_loads_only_its_modules(documents, argv, code, absent, present):
    """A fresh interpreter that imports the CLI and runs one verb loads only that verb's
    modules: of the verb modules `cli_<verb>`, which hold the readers and builders, only
    the one it runs (`verify` rebuilds through the verb that made its input)."""
    script = textwrap.dedent("""
        import io, json, sys
        import arithcurves.cli as cli
        argv = [str(a) for a in json.loads(sys.argv[1])]
        code = None
        if argv:
            try:
                code = cli.run(argv, out=io.StringIO())
            except SystemExit as exc:
                code = exc.code
        print(json.dumps([code, [m.removeprefix("arithcurves.") for m in sys.modules]]))
    """)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(documents(argv))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got, loaded = json.loads(proc.stdout)
    assert got == code
    assert not set(absent) & set(loaded)
    assert set(present) <= set(loaded)
    assert set(VERB_MODULES) & set(loaded) == set(present) & set(VERB_MODULES)


@pytest.mark.parametrize("argv, code", [
    (["rootsys", "--type", "A2"], 0),
    (["chevalley", "--type", "A1", "--verify"], 0),
    (["chi", "--torus-point", "[1,2]", "--type", "B2"], 0),
    (["chi", "--matrix", "5"], 2),
    (["curve", "--matrix", "[[1,0],[0,1]]", "--fibers", "10"], 1),
    (["degree", "--field", "Q", "--ideal", '["2"]', "--metrics", '["1"]'], 0),
    (["slope", "--torsor", "TORSOR"], 0),
    (["curve", "--matrix", "[[0,1],[2,0]]", "--fibers", "20"], 0),
    (["verify", "--input", "CURVE"], 0),
    (["verify", "--input", "TORSOR"], 0),
], ids=["rootsys", "chevalley", "chi", "usage-error", "domain-error", "degree", "slope", "curve",
        "verify-curve", "verify-torsor"])
def test_module_run_compiles_the_cli_once(tmp_path, documents, argv, code):
    """Under `python -m arithcurves.cli` the dispatcher runs as __main__: a verb module
    that imported `arithcurves.cli` would compile and run it a second time.  The exit is
    a normal one, after `main` froze the collector: atexit hooks still run."""
    report = tmp_path / "modules.json"
    # site imports sitecustomize from the path at start-up, before the -m module runs
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(f"""
        import atexit, gc, json, sys
        atexit.register(lambda: open({str(report)!r}, "w").write(json.dumps(
            [sys.modules["__main__"].__file__, sorted(m for m in sys.modules
                                                      if m.startswith("arithcurves")),
             gc.get_freeze_count() > 0])))
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), *sys.path]))
    proc = subprocess.run(CLI + documents(argv), capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    main, loaded, frozen = json.loads(report.read_text())
    assert main.endswith(os.path.join("arithcurves", "cli.py"))
    assert "arithcurves.cli" not in loaded
    assert any(m.startswith("arithcurves.cli_") for m in loaded)
    assert frozen


@pytest.mark.parametrize("argv, loads_json", [
    (["rootsys", "--type", "A2", "--weyl"], False),
    (["chevalley", "--type", "B2", "--verify"], False),
    (["chi", "--torus-point", "[1,2]", "--type", "B2"], True),
], ids=["rootsys", "chevalley", "chi"])
def test_json_is_loaded_only_to_read_json(tmp_path, argv, loads_json):
    """A Lie verb reads no JSON and prints through `jsonutil.dumps`, so its process never
    imports `json`; a verb with a JSON argument does.  The probe writes with repr, so it
    imports nothing itself."""
    report = tmp_path / "json.txt"
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(f"""
        import atexit, sys
        atexit.register(lambda: open({str(report)!r}, "w").write(repr("json" in sys.modules)))
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), *sys.path]))
    proc = subprocess.run(CLI + argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert report.read_text() == repr(loads_json)


def test_run_leaves_the_collector_as_it_was():
    """Only `main`, which ends the process, freezes the collector: callers of `run` in a
    long-lived process keep normal collection."""
    import gc

    before = gc.get_freeze_count()
    invoke_json("rootsys", "--type", "A2")
    assert invoke("curve", "--matrix", "[[1,0],[0,1]]", "--fibers", "10")[0] == 1
    with pytest.raises(SystemExit):
        run(["chi", "--matrix", "5"], out=io.StringIO())
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [
    (["rootsys", "--type", "A2"], 0),
    (["curve", "--matrix", "[[1,0],[0,1]]", "--fibers", "10"], 1),
    (["chi", "--matrix", "5"], 2),
], ids=["ok", "domain-error", "usage-error"])
def test_console_script_entry_matches_the_module_run(argv, code):
    """The console script calls `cli.main` as `-m` does: same stdout, stderr and exit
    code, and the collector is frozen by the time atexit hooks run."""
    script = textwrap.dedent("""
        import atexit, gc, sys
        atexit.register(lambda: print(f"frozen: {gc.get_freeze_count() > 0}", file=sys.stderr))
        from arithcurves.cli import main
        main()
    """)
    entry = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    module = subprocess.run(CLI + argv, capture_output=True, text=True)
    assert entry.returncode == module.returncode == code
    assert entry.stdout == module.stdout
    assert entry.stderr == module.stderr + "frozen: True\n"


def test_degree_verb():
    doc = invoke_json("degree", "--field", "Q(sqrt(-5))",
                      "--ideal", '["2", "1+w"]', "--metrics", '["1"]')
    assert doc["ideal_norm"] == "2"
    assert doc["ideal_hnf"] == [["1", "1"], ["0", "2"]]
    assert abs(float(doc["degree"]) + 0.6931471805599453) < 1e-9


def test_degree_with_4000_digit_generators():
    """The ideal's HNF runs extended Euclid over thousands of steps, in a loop."""
    rng = random.Random(4000)
    a, b, c = (rng.randrange(10 ** 3999, 10 ** 4000) for _ in range(3))
    doc = invoke_json("degree", "--field", "Q(sqrt(-5))",
                      "--ideal", json.dumps([f"{a} + {b}*w", c]), "--metrics", '["1"]')
    assert doc["kind"] == "degree" and len(doc["ideal_hnf"]) == 2


def test_curve_verb_and_domain_error():
    doc = invoke_json("curve", "--matrix", '[["0","1"],["2","0"]]',
                      "--field", "Q", "--fibers", "100")
    assert doc["kind"] == "spectral"
    assert doc["poly"] == ["1", "0", "-2"] and doc["disc"] == "8"
    assert doc["ramified"] == [{"p": 2, "pattern": [[1, 2]]}]
    assert "skipped" not in doc
    assert doc["covering_ok"] is True
    # nilpotent Higgs field: degenerate, fiber analysis refuses with exit 1
    code, text = invoke("curve", "--matrix", '[["0","1"],["0","0"]]',
                        "--fibers", "10")
    assert code == 1
    err = json.loads(text)
    assert err["error"]["type"] == "DegenerateCurve"


@pytest.mark.parametrize("extra", [[], ["--cameral"], ["--cameral", "--fibers", "30"]])
def test_curve_computes_the_characteristic_polynomial_once(monkeypatch, extra):
    calls = []
    integral_char_poly = curve.integral_char_poly
    monkeypatch.setattr(curve, "integral_char_poly",
                        lambda *a: calls.append(a) or integral_char_poly(*a))
    invoke_json("curve", "--matrix", '[["1","2"],["3","4"]]', *extra)
    assert len(calls) == 1


def test_fractional_twist_fibers_skip_the_denominator_prime(tmp_path):
    doc = invoke_json("curve", "--matrix", '[["1/2","1"],["0","0"]]',
                      "--twist", '["1/2"]', "--fibers", "10")
    assert doc["poly"] == ["1", "-1/2", "0"] and doc["ramified"] == []
    assert [s["p"] for s in doc["skipped"]] == [2]
    f = tmp_path / "frac.json"
    f.write_text(json.dumps(doc))
    assert invoke_json("verify", "--input", str(f))["ok"]


def test_fiber_bound_limit(tmp_path, capsys):
    limit = curve.MAX_FIBER_BOUND
    # the disc of [[1,2],[3,4]] is 33, so a bound at the limit scans only to sqrt(33)
    doc = invoke_json("curve", "--matrix", '[["1","2"],["3","4"]]', "--fibers", str(limit))
    assert [r["p"] for r in doc["ramified"]] == [3, 11]
    for bound in (limit + 1, 10 ** 20):
        buf = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--matrix", '[["1","2"],["3","4"]]', "--fibers", str(bound)],
                out=buf)
        assert exc.value.code == 2 and buf.getvalue() == ""
        assert "--fibers" in capsys.readouterr().err
    doc["fiber_bound"] = limit + 1
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    code, text = invoke("verify", "--input", str(f))
    assert code == 1
    assert str(limit) in json.loads(text)["error"]["message"]


def test_negative_fiber_bound_is_refused(tmp_path, capsys):
    """A bound below 0 is a usage error from --fibers and a domain error from a
    document and from the library, as a bound past the limit is."""
    matrix = '[["1","2"],["3","4"]]'
    err = invoke_usage(capsys, "curve", "--matrix", matrix, "--fibers", "-5")
    assert err.endswith(f"argument --fibers: must lie in 0..{curve.MAX_FIBER_BOUND}, got -5\n")
    doc = invoke_json("curve", "--matrix", matrix, "--fibers", "0")
    assert doc["fiber_bound"] == 0 and doc["ramified"] == []
    doc["fiber_bound"] = -5
    f = tmp_path / "negative.json"
    f.write_text(json.dumps(doc))
    assert invoke("verify", "--input", str(f)) == (1, json.dumps(
        {"error": {"type": "ArithCurvesError", "message": "fiber bound -5 is negative"}},
        indent=2) + "\n")
    C = curve.spectral_curve(curve.higgs_field(NumberField(0), [[1, 2], [3, 4]]))
    with pytest.raises(ArithCurvesError, match="fiber bound -1 is negative"):
        curve.ramified_primes(C, -1)


@pytest.mark.parametrize("flag", ["--fibers", "--center", "--char"])
@pytest.mark.parametrize("text", ["1_0", "\u0663", "1e1", "0x1", "1.0", ""])
def test_integer_flags_take_only_ascii_decimal_digits(capsys, flag, text):
    """int() would read "1_0" as 10 and the Arabic-Indic digit three as 3.  argparse
    calls --char's type "int" in its message, the bounded flags' "integer"."""
    argv = {"--fibers": ["curve", "--matrix", '[["1","2"],["3","4"]]'],
            "--center": ["chevalley", "--type", "A1"], "--char": ["slope"]}[flag]
    err = invoke_usage(capsys, *argv, flag, text)
    what = "int" if flag == "--char" else "integer"
    assert err.endswith(f"argument {flag}: invalid {what} value: {text!r}\n")


def test_integer_flags_allow_a_sign_and_surrounding_whitespace():
    doc = invoke_json("curve", "--matrix", '[["1","2"],["3","4"]]', "--fibers", " +12 ")
    assert doc["fiber_bound"] == 12 and [r["p"] for r in doc["ramified"]] == [3, 11]
    assert invoke_json("chevalley", "--type", "A1", "--center", "\t0\n")["dim"] == 3


@pytest.mark.parametrize("argv, doc, message", [
    (["degree", "--field", "Q", "--ideal", '["2"]', "--metrics", '{"a":1}'], None,
     "metrics must be a JSON list of reals"),
    (["degree", "--field", "Q", "--ideal", '["1+x"]', "--metrics", '["1"]'], None,
     "cannot parse field element '1+x'"),
    (["verify", "--input"], {"kind": "slope"}, "lacks the key 'field'"),
    *((["degree", "--field", "Q", "--ideal", '["2"]', "--metrics", f'["{m}"]'], None,
       "metric factors must be finite") for m in ("nan", "inf", "-inf")),
    (["degree", "--field", "Q", "--ideal", "5", "--metrics", '["1"]'], None,
     "an ideal must be a JSON list of generators, got 5"),
    (["degree", "--field", "Q", "--ideal", "[[]]", "--metrics", '["1"]'], None,
     "HNF rows over Q must have length 1, got []"),
    (["degree", "--field", "Q(sqrt(-5))", "--ideal", '["1e400"]', "--metrics", '["1"]'],
     None, "beyond the floating-point range"),
    (["verify", "--input"], {"kind": "spectral", "field": "Q", "matrix": [["1", "2"], ["3", "4"]],
                             "fiber_bound": "abc"}, 'fiber_bound must be an integer, got "abc"'),
    (["verify", "--input"], {"kind": "chevalley", "type": "A1", "center": "x"},
     'center must be an integer, got "x"'),
    (["verify", "--input"], {"kind": "slope", "field": "Q", "rank": "a", "ideals": [["1"]],
                             "metrics": [[["1"]]], "char_power": 1},
     'rank must be an integer, got "a"'),
    (["slope", "--torsor"], {}, "torsor document lacks the key 'field'"),
    # the limit is checked before a basis of that rank is built
    (["verify", "--input"], {"kind": "chevalley", "type": "A1", "center": 1e9},
     f"center rank 1000000000 exceeds the limit {chevalley.MAX_CENTER_RANK}"),
])
def test_malformed_input_is_a_json_domain_error(tmp_path, capsys, argv, doc, message):
    if doc is not None:
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        argv = [*argv, str(f)]
    if message in COMMAND_LINE_USAGE:
        assert message in invoke_usage(capsys, *argv)
        return
    code, text = invoke(*argv)
    assert code == 1
    assert message in json.loads(text)["error"]["message"]


# Values given on the command line that a reader rejects are usage errors, with
# the same message on stderr; inside a document they are domain errors.
COMMAND_LINE_USAGE = {"metrics must be a JSON list of reals", "cannot parse field element '1+x'",
                      "an ideal must be a JSON list of generators, got 5",
                      "HNF rows over Q must have length 1, got []"}


@pytest.mark.parametrize("matrix", ["5", "[5]", "[]", '[["1/0"]]'])
def test_malformed_curve_matrix_is_a_usage_error(capsys, matrix):
    assert "--matrix" in invoke_usage(capsys, "curve", "--matrix", matrix)


@pytest.mark.parametrize("verb", ["chi", "curve"])
def test_literal_above_the_digit_limit_is_a_usage_error(capsys, verb):
    err = invoke_usage(capsys, verb, "--matrix", '[["1e5000"]]')
    assert f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}" in err


def test_curve_and_chi_read_the_same_literals():
    chi = invoke_json("chi", "--matrix", '[["1e-5","2"],["0","1"]]')
    doc = invoke_json("curve", "--matrix", '[["1e-5","2"],["0","1"]]', "--twist", '["1e-5"]')
    assert doc["matrix"][0] == chi["matrix"][0] == ["1/100000", "2"]
    assert doc["char_point"] == chi["invariants"]


@pytest.mark.parametrize("verb", ["chi", "curve"])
def test_result_above_the_output_digit_limit_is_a_domain_error(verb):
    # a 6000-digit determinant
    matrix = [["1" * 3000, "1"], ["1", "2" * 3000]]
    code, text = invoke(verb, "--matrix", json.dumps(matrix))
    assert code == 1
    assert str(sys.get_int_max_str_digits()) in json.loads(text)["error"]["message"]


def test_unprintable_characteristic_polynomial_fails_before_the_discriminant(monkeypatch):
    """A 6 x 6 matrix of 4000-digit integers: its coefficients cannot print, so the
    discriminant, whose Hankel determinant dominates the cost, is never taken."""
    def refuse(g, den, K):
        raise AssertionError("poly_discriminant was called")

    monkeypatch.setattr(curve, "poly_discriminant", refuse)
    rng = random.Random(6)
    matrix = [[str(rng.randrange(10 ** 3999, 10 ** 4000)) for _ in range(6)] for _ in range(6)]
    code, text = invoke("curve", "--matrix", json.dumps(matrix))
    assert code == 1
    err = json.loads(text)["error"]
    assert err["type"] == "ArithCurvesError"
    assert str(sys.get_int_max_str_digits()) in err["message"]


def test_json_number_above_the_int_limit_is_a_usage_error(tmp_path, capsys):
    big = "1" * (sys.get_int_max_str_digits() + 1)
    assert "--matrix" in invoke_usage(capsys, "chi", "--matrix", f"[[{big}]]")
    f = tmp_path / "doc.json"
    f.write_text(f'{{"kind": "chi", "matrix": [[{big}]]}}')
    assert "--input" in invoke_usage(capsys, "verify", "--input", str(f))


BAD_TORSORS = [
    {"field": "Q", "rank": 2, "ideals": 5, "metrics": []},
    {"field": "Q", "rank": 2, "ideals": [["1"], ["1"]], "metrics": 5},
    {"field": "Q", "rank": 2, "ideals": [["1"], ["1"]], "metrics": [[["2", "0"], ["0"]]]},
    # one metric for two places, one ideal for rank 2, two metrics for one place
    {"field": "Q(sqrt(2))", "rank": 2, "ideals": [["1"], ["1"]],
     "metrics": [[["2", "0"], ["0", "1"]]]},
    {"field": "Q", "rank": 2, "ideals": [["1"]], "metrics": [[["2", "0"], ["0", "1"]]]},
    {"field": "Q", "rank": 2, "ideals": [["1"], ["1"]],
     "metrics": [[["2", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]},
    # Gram matrices that are not symmetric, or not Hermitian at a complex place
    {"field": "Q", "rank": 2, "ideals": [["1"], ["1"]], "metrics": [[["2", "1"], ["0", "2"]]]},
    {"field": "Q", "rank": 2, "ideals": [["1"], ["1"]], "metrics": [[["2", "0"], ["1", "2"]]]},
    {"field": "Q(i)", "rank": 1, "ideals": [["1"]], "metrics": [[[["1", "5"]]]]},
    # a rank that is not an integer
    {"field": "Q", "rank": 1.5, "ideals": [["1"]], "metrics": [[["1"]]]},
    {"field": "Q", "rank": True, "ideals": [["1"]], "metrics": [[["1"]]]},
    # int() would read these as 3 and 1
    {"field": "Q", "rank": "\u0663", "ideals": [["1"], ["1"], ["1"]],
     "metrics": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]},
    {"field": "Q", "rank": "0_1", "ideals": [["1"]], "metrics": [[["1"]]]},
]


@pytest.mark.parametrize("verb, flag", [("slope", "--torsor"), ("verify", "--input")])
@pytest.mark.parametrize("spec", BAD_TORSORS)
def test_malformed_torsor_is_a_json_domain_error(tmp_path, verb, flag, spec):
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps(spec))
    code, text = invoke(verb, flag, str(f))
    assert code == 1
    assert json.loads(text)["error"]["type"] == "MalformedInput"


@pytest.mark.parametrize("doc", [
    {"kind": "chi", "matrix": 5},
    {"kind": "chi", "matrix": [["a"]]},
    {"kind": "chi", "type": "B2", "point": 5},
    {"kind": "rootsys", "type": 5},
    {"kind": "spectral", "field": "Q", "matrix": 5},
    {"kind": "spectral", "field": 5, "matrix": [["1"]]},
    {"kind": "degree", "field": "Q", "ideal_hnf": 5, "metrics": ["1"]},
    {"kind": "degree", "field": "Q", "ideal_hnf": ["1+x"], "metrics": ["1"]},
    {"kind": "degree", "field": "Q", "ideal_hnf": ["2"], "metrics": {"a": 1}},
    {"kind": "chevalley", "type": "A2", "center": 1.5},
    {"kind": "spectral", "field": "Q", "matrix": [["1", "2"], ["3", "4"]], "fiber_bound": 2.5},
    # int() would read these as 1, 10 and 3
    {"kind": "chevalley", "type": "A2", "center": "0_1"},
    {"kind": "spectral", "field": "Q", "matrix": [["1", "2"], ["3", "4"]], "fiber_bound": "1_0"},
    {"kind": "spectral", "field": "Q", "matrix": [["1", "2"], ["3", "4"]],
     "fiber_bound": "\u0663"},
])
def test_malformed_verify_document_is_a_json_domain_error(tmp_path, doc):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    code, text = invoke("verify", "--input", str(f))
    assert code == 1
    assert json.loads(text)["error"]["type"] == "MalformedInput"


def test_parser_is_built_once_per_process():
    """One parser per process, and each verb's flags once per process, on the verb's
    first run; a fresh process adds the flags of the verb it runs and of no other."""
    invoke_json("rootsys", "--type", "A1")
    invoke_json("rootsys", "--type", "A2")
    invoke_json("chi", "--matrix", '[["1"]]')
    assert cli.build_parser.cache_info().misses == 1
    script = textwrap.dedent("""
        import io, json
        import arithcurves.cli as cli
        cli.run(["rootsys", "--type", "A1"], out=io.StringIO())
        cli.run(["rootsys", "--type", "A2", "--weyl"], out=io.StringIO())
        verbs = cli.build_parser()._subparsers._group_actions[0].choices
        print(json.dumps({name: [a.dest for a in p._actions] for name, p in verbs.items()}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        name: ["help"] + ([key for _, key, _ in verb.flags] if name == "rootsys" else [])
        for name, verb in cli.VERBS.items()}


def test_chevalley_records_list_every_nonzero_bracket():
    doc = invoke_json("chevalley", "--type", "B2", "--center", "2")
    L = chevalley.build_chevalley_basis(
        rootsys.build_root_system("B2"), center_rank=2)
    pairs = [(L.label(i), L.label(j)) for i in range(L.dim) for j in range(i + 1, L.dim)
             if L.table.get((i, j))]
    assert [(r["x"], r["y"]) for r in doc["bracket"]] == pairs


def test_curve_membership_error_is_domain_error():
    code, text = invoke("curve", "--matrix", '[["1","0"],["0","1"]]',
                        "--twist", '["2"]')
    assert code == 1
    assert json.loads(text)["error"]["type"] == "MembershipFailure"


def test_cameral_verb():
    doc = invoke_json("curve", "--matrix", '[["1","0"],["0","2"]]', "--cameral")
    assert doc["kind"] == "cameral" and doc["degree"] == 2
    assert doc["rational_points"] == [["1", "2"], ["2", "1"]]


def test_cameral_points_with_large_prime_eigenvalues():
    doc = invoke_json("curve", "--matrix", '[["1000000007","0"],["0","999999937"]]',
                      "--cameral")
    assert doc["rational_points"] == [["999999937", "1000000007"],
                                      ["1000000007", "999999937"]]


def test_slope_verb(tmp_path):
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps(TORSOR))
    doc = invoke_json("slope", "--torsor", str(f), "--char", "2")
    assert abs(float(doc["slope"]) + 2 * 0.6931471805599453) < 1e-9


# 10**400 is itself beyond the float range; 10**308 times the degree -log 8 overflows it
@pytest.mark.parametrize("k", [10 ** 400, 10 ** 308])
def test_char_power_beyond_the_float_range_is_a_domain_error(tmp_path, k):
    """A huge character power, from --char and from a verify document."""
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": "Q", "rank": 1, "ideals": [["8"]], "metrics": [[["1"]]]}))
    doc = invoke_json("slope", "--torsor", str(f), "--char", "1")
    assert abs(float(doc["slope"]) + math.log(8)) < 1e-9
    code, text = invoke("slope", "--torsor", str(f), "--char", str(k))
    assert code == 1
    error = json.loads(text)["error"]
    assert error["type"] == "ArithCurvesError" and "floating-point range" in error["message"]
    g = tmp_path / "slope.json"
    g.write_text(json.dumps({**doc, "char_power": k}))
    code, text = invoke("verify", "--input", str(g))
    assert code == 1 and json.loads(text)["error"] == error


def _scaled_identity_torsor(n: int) -> dict:
    return {"field": "Q", "rank": n, "ideals": [["1"]] * n,
            "metrics": [[["2" if i == j else "0" for j in range(n)] for i in range(n)]]}


@pytest.mark.parametrize("verb, flag", [("slope", "--torsor"), ("verify", "--input")])
def test_torsor_rank_limit(tmp_path, verb, flag):
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps(_scaled_identity_torsor(MAX_TORSOR_RANK)))
    invoke_json(verb, flag, str(f))
    f.write_text(json.dumps(_scaled_identity_torsor(MAX_TORSOR_RANK + 1)))
    code, text = invoke(verb, flag, str(f))
    assert code == 1
    assert json.loads(text)["error"] == {
        "type": "ArithCurvesError",
        "message": f"torsor rank {MAX_TORSOR_RANK + 1} exceeds the limit {MAX_TORSOR_RANK}"}


# Gram matrices far from the canonical one, read exactly: each is positive definite,
# and `verify` reports its exact determinant
@pytest.mark.parametrize("gram, slope, det", [
    ([["1e6", "0"], ["0", "1e-6"]], "0", "1"),
    ([["1e300", "0"], ["0", "1e-300"]], "0", "1"),
    ([["1e-13", "0"], ["0", "1e-13"]], -math.log(1e-13), f"1/{10 ** 26}"),
    ([["1", "0.999999"], ["0.999999", "1"]], -0.5 * math.log(1999999e-12),
     "1999999/1000000000000"),
    ([["1", "1"], ["1", "1.000000000001"]], -0.5 * math.log(1e-12), f"1/{10 ** 12}"),
    ([["1e-200", "0"], ["0", "1e-200"]], 460.51701859880910, f"1/{10 ** 400}"),
], ids=["1e6", "1e300", "1e-13", "near-singular", "singular-form", "1e-200"])
def test_ill_conditioned_gram_matrix(tmp_path, gram, slope, det):
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": "Q", "rank": 2, "ideals": [["1"], ["1"]],
                             "metrics": [gram]}))
    doc = invoke_json("slope", "--torsor", str(f))
    if isinstance(slope, str):
        assert doc["slope"] == slope
    else:
        assert float(doc["slope"]) == pytest.approx(slope, rel=1e-12)
    assert doc["gram_dets"] == [det]
    assert invoke_json("verify", "--input", str(f)) == {
        "kind": "verify", "input_kind": "torsor", "ok": True,
        "reports": [{"place": "real", "gram_det": det}]}


# Gram determinants that a double does not hold: one that cancels to 1e-16 of its
# entries, one past the float range
@pytest.mark.parametrize("gram, det, slope", [
    ([["0.5088271749698059", "0.4725947406479267"], ["0.4725947406479267", "0.4389423361701046"]],
     f"292836104944497/{4 * 10 ** 30}", 18.5766064756454),
    ([["1e300", "0"], ["0", "1e300"]], str(10 ** 600), -690.775527898214),
], ids=["below-zero", "overflow"])
def test_gram_determinant_out_of_float_range_is_a_domain_error(tmp_path, gram, det, slope):
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": "Q", "rank": 2, "ideals": [["1"], ["1"]],
                             "metrics": [gram]}))
    doc = invoke_json("slope", "--torsor", str(f))
    assert doc["gram_dets"] == [det]
    assert float(doc["slope"]) == pytest.approx(slope, rel=1e-12)


def _strict_json(text: str):
    """One JSON document as a strict parser reads it: NaN and the infinities refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# determinants and Lie-algebra forms past the float range, and an asymmetry past it
@pytest.mark.parametrize("verb, flag, gram, error", [
    ("slope", "--torsor", [["1e300", "0"], ["0", "1e300"]], None),
    ("verify", "--input", [["1e300", "0", "0"], ["0", "1e-6", "0"], ["0", "0", "1"]], None),
    ("slope", "--torsor", [["1", "1e308"], ["-1e308", "1"]],
     ("MalformedInput", "metric Gram matrix must be symmetric")),
], ids=["slope-det", "verify-involution", "slope-symmetry"])
def test_torsor_overflow_is_a_json_error_and_nothing_on_stderr(tmp_path, verb, flag, gram,
                                                               error):
    n = len(gram)
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": "Q", "rank": n, "ideals": [["1"]] * n,
                             "metrics": [gram], "char_power": 1}))
    proc = subprocess.run(CLI + [verb, flag, str(f)], capture_output=True, text=True)
    assert proc.returncode == (0 if error is None else 1) and proc.stderr == ""
    doc = _strict_json(proc.stdout)
    if error is None:
        assert doc["kind"] == verb
    else:
        assert doc["error"] == dict(zip(("type", "message"), error))


def test_rank_one_verify_report_is_strict_json(tmp_path):
    """At a complex place of rank 1 the report is the exact Gram determinant."""
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": "Q(i)", "rank": 1, "ideals": [["1"]],
                             "metrics": [[[[2, 0]]]]}))
    code, text = invoke("verify", "--input", str(f))
    assert code == 0 and _strict_json(text)["reports"] == [{"place": "complex",
                                                            "gram_det": "2"}]


def test_verify_round_trip_all_verbs(tmp_path):
    spec = {"field": "Q", "rank": 2, "ideals": [["1"], ["1"]],
            "metrics": [[["2", "0"], ["0", "1"]]]}
    torsor_file = tmp_path / "t.json"
    torsor_file.write_text(json.dumps(spec))
    commands = [
        ["rootsys", "--type", "G2", "--weyl"],
        ["chevalley", "--type", "B2", "--verify"],
        ["chi", "--matrix", '[["1","2"],["3","4"]]'],
        ["chi", "--torus-point", '["1","2"]', "--type", "B2"],
        ["degree", "--field", "Q(i)", "--ideal", '["1+i"]', "--metrics", '["2.0"]'],
        ["slope", "--torsor", str(torsor_file), "--char", "1"],
        ["curve", "--matrix", '[["0","1"],["2","0"]]', "--fibers", "50"],
        ["curve", "--matrix", '[["1","0"],["0","2"]]', "--cameral"],
    ]
    for i, cmd in enumerate(commands):
        out = invoke_json(*cmd)
        f = tmp_path / f"out{i}.json"
        f.write_text(json.dumps(out))
        verdict = invoke_json("verify", "--input", str(f))
        assert verdict["ok"], (cmd, verdict)
    # verify of a verify output is accepted
    f = tmp_path / "verify.json"
    f.write_text(json.dumps(invoke_json("verify", "--input", str(tmp_path / "out0.json"))))
    assert invoke_json("verify", "--input", str(f))["ok"]


def test_json_args_from_file(tmp_path):
    f = tmp_path / "m.json"
    f.write_text('[["0","1"],["2","0"]]')
    doc = invoke_json("chi", "--matrix", f"@{f}")
    assert doc["invariants"] == ["0", "-2"]
    doc = invoke_json("curve", "--matrix", f"@{f}", "--fibers", "10")
    assert doc["disc"] == "8"
    proc = subprocess.run(CLI + ["chi", "--matrix", "@/nonexistent.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""


def test_verify_torsor_file_reports_clauses(tmp_path):
    spec = {"field": "Q", "rank": 2, "ideals": [["1"], ["3"]],
            "metrics": [[["2", "0"], ["0", "1"]]]}
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps(spec))
    doc = invoke_json("verify", "--input", str(f))
    assert doc == {"kind": "verify", "input_kind": "torsor", "ok": True,
                   "reports": [{"place": "real", "gram_det": "2"}]}


def _torsor_file(tmp_path, gram, field="Q", ideals=None) -> str:
    n = len(gram)
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": field, "rank": n, "ideals": ideals or [["1"]] * n,
                             "metrics": [gram]}))
    return str(f)


def test_slope_prints_gram_entries_as_given(tmp_path):
    """Entries print as the rationals they are: a string as its literal, a JSON float
    as its exact dyadic value."""
    doc = invoke_json("slope", "--torsor", _torsor_file(tmp_path, [["5", "2"], ["2", "3"]]))
    assert doc["metrics"] == [[["5", "2"], ["2", "3"]]] and doc["gram_dets"] == ["11"]
    assert float(doc["slope"]) == pytest.approx(-0.5 * math.log(11), rel=1e-15)
    doc = invoke_json("slope", "--torsor", _torsor_file(tmp_path, [[0.5, 0.1], [0.1, 1.5]]))
    tenth = f"3602879701896397/{2 ** 55}"             # the double nearest 0.1
    assert doc["metrics"] == [[["1/2", tenth], [tenth, "3/2"]]]
    assert doc["gram_dets"] == [str(Fraction(3, 4) - Fraction(0.1) ** 2)]


@pytest.mark.parametrize("gram, error", [
    ([["1", "2"], ["2", "1"]], ("ArithCurvesError", "metric Gram matrix must be positive definite")),
    ([["1", "0"], ["0", "0"]], ("ArithCurvesError", "metric Gram matrix must be positive definite")),
    # once within the relative tolerance 1e-9 of a floating-point reader
    ([["1", "1"], ["1.000000000001", "2"]], ("MalformedInput", "metric Gram matrix must be symmetric")),
], ids=["indefinite", "singular", "asymmetric-1e-12"])
def test_gram_matrix_must_be_exactly_symmetric_and_positive_definite(tmp_path, gram, error):
    f = _torsor_file(tmp_path, gram)
    for verb, flag in (("slope", "--torsor"), ("verify", "--input")):
        code, text = invoke(verb, flag, f)
        assert code == 1 and json.loads(text)["error"] == dict(zip(("type", "message"), error))


@pytest.mark.parametrize("field, rank, places", [("Q", 3, 1), ("Q(sqrt(2))", 3, 2),
                                                 ("Q(sqrt(-5))", 2, 1)])
def test_slope_computes_the_determinant_bundle_once(tmp_path, monkeypatch, field, rank, places):
    """One Berkowitz run per place and rank - 1 ideal products per `slope` call."""
    from arithcurves import arakelov, linalg
    calls = {"berkowitz": 0, "product": 0}
    berkowitz, product = linalg.integral_char_poly, arakelov.FractionalIdeal.__mul__

    def counted_berkowitz(*args):
        calls["berkowitz"] += 1
        return berkowitz(*args)

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    monkeypatch.setattr(linalg, "integral_char_poly", counted_berkowitz)
    monkeypatch.setattr(arakelov.FractionalIdeal, "__mul__", counted_product)
    entry = [1, 0] if field == "Q(sqrt(-5))" else "1"
    zero = [0, 0] if field == "Q(sqrt(-5))" else "0"
    gram = [[entry if i == j else zero for j in range(rank)] for i in range(rank)]
    f = tmp_path / "torsor.json"
    f.write_text(json.dumps({"field": field, "rank": rank, "ideals": [["2"]] * rank,
                             "metrics": [gram] * places}))
    doc = invoke_json("slope", "--torsor", str(f), "--char", "2")
    assert calls == {"berkowitz": places, "product": rank - 1}
    assert float(doc["slope"]) == pytest.approx(-2 * rank * math.log(2) * (
        1 if field == "Q" else 2), rel=1e-12)


def test_gram_matrix_past_the_work_limit_is_refused_before_berkowitz(tmp_path, monkeypatch,
                                                                     capsys):
    """A dense 16 x 16 matrix of 2281-digit entries (5-20 s of big-integer products for a
    determinant too long to print) is refused by `chi`, `slope` and `verify` before any
    Berkowitz step."""
    from arithcurves import linalg

    def refused(*args):
        raise AssertionError("Berkowitz ran")

    monkeypatch.setattr(linalg, "_berkowitz", refused)
    n, big = MAX_TORSOR_RANK, 10 ** 2280 + 7
    gram = [[str(big) if i == j else str(big // 2) for j in range(n)] for i in range(n)]
    message = chi_work_message(n, big)
    assert invoke_usage(capsys, "chi", "--matrix", json.dumps(gram)).endswith(
        f"\narithcurves: error: {message}\n")
    for verb, flag in (("slope", "--torsor"), ("verify", "--input")):
        code, text = invoke(verb, flag, _torsor_file(tmp_path, gram))
        assert code == 1
        assert json.loads(text) == {"error": {"type": "MalformedInput", "message": message}}


def test_gram_matrix_at_the_work_limit(tmp_path, monkeypatch):
    """A Gram entry at the work budget gives its slope; one more is refused before
    Berkowitz.  diag(B, 1, ..., 1) keeps the admitted run itself cheap."""
    from arithcurves import errors, linalg

    n = 8
    b = largest_admitted_entry(n)
    assert chi_work(n, b)[0] <= errors.MAX_CHI_WORK < chi_work(n, b + 1)[0]
    at, past = ([[str(x if i == j == 0 else int(i == j)) for j in range(n)] for i in range(n)]
                for x in (b, b + 1))
    doc = invoke_json("slope", "--torsor", _torsor_file(tmp_path, at))
    assert doc["gram_dets"] == [str(b)]
    assert float(doc["slope"]) == pytest.approx(-math.log(b) / 2, rel=1e-12)
    monkeypatch.setattr(linalg, "_berkowitz", lambda *args: pytest.fail("Berkowitz ran"))
    code, text = invoke("slope", "--torsor", _torsor_file(tmp_path, past))
    assert code == 1
    assert json.loads(text) == {"error": {"type": "MalformedInput",
                                          "message": chi_work_message(n, b + 1)}}


def test_gaussian_gram_matrix_at_the_work_limit(tmp_path, monkeypatch):
    """A complex place's Gram matrix with an imaginary entry is priced at four integer
    products per pair product: at its bound it gives its slope, one more is refused
    before Berkowitz, and the same entry with no imaginary part is admitted."""
    from arithcurves import errors, linalg

    n = 8
    b = largest_admitted_entry(n, w_part=True)
    assert chi_work(n, b, True)[0] <= errors.MAX_CHI_WORK < chi_work(n, b + 1, True)[0]
    assert chi_work(n, b + 1)[0] <= errors.MAX_CHI_WORK

    def gram(x, imaginary):
        # [[x, i], [-i, 2]] on the first two coordinates, the identity on the rest
        g = [[["1" if i == j else "0", "0"] for j in range(n)] for i in range(n)]
        g[0][0], g[1][1] = [str(x), "0"], ["2", "0"]
        if imaginary:
            g[0][1], g[1][0] = ["0", "1"], ["0", "-1"]
        return g

    field = "Q(sqrt(-5))"
    doc = invoke_json("slope", "--torsor", _torsor_file(tmp_path, gram(b, True), field))
    assert doc["gram_dets"] == [str(2 * b - 1)]
    doc = invoke_json("slope", "--torsor", _torsor_file(tmp_path, gram(b + 1, False), field))
    assert doc["gram_dets"] == [str(2 * b + 2)]
    monkeypatch.setattr(linalg, "_berkowitz", lambda *args: pytest.fail("Berkowitz ran"))
    code, text = invoke("slope", "--torsor", _torsor_file(tmp_path, gram(b + 1, True), field))
    assert code == 1
    assert json.loads(text) == {"error": {"type": "MalformedInput",
                                          "message": chi_work_message(n, b + 1, True)}}


BIG_CURVE = ["curve", "--matrix", '[["123456789","2"],["3","987654321"]]']
Q_DEGREE = ["degree", "--field", "Q", "--ideal", '["2"]', "--metrics", '["1"]']


@pytest.mark.parametrize("argv, key, value", [
    (BIG_CURVE, "disc", "746837374314891049"),
    (BIG_CURVE, "disc", "nan"),
    (BIG_CURVE, "disc", "inf"),
    (Q_DEGREE, "ideal_norm", "2.000000001"),
    (Q_DEGREE, "degree", "nan"),
    (Q_DEGREE, "degree", "-0.693_14718055994529"),
    (BIG_CURVE, "n", 2.0),
    (BIG_CURVE, "degenerate", 0),
    (BIG_CURVE, "covering_ok", 1),
], ids=["disc-last-digit", "disc-nan", "disc-inf", "norm-near", "degree-nan",
        "degree-underscore", "n-float", "degenerate-int", "covering-int"])
def test_verify_compares_exact_values_exactly(tmp_path, argv, key, value):
    """Only an archimedean real (`degree`'s degree, `slope`'s slope) is read within a
    relative tolerance, and it must be finite; every other value must be the same JSON
    value: an exact integer to the last digit, and 2.0, 0 and 1 are not 2, false, true."""
    doc = invoke_json(*argv)
    assert json.dumps(doc[key]) != json.dumps(value)
    doc[key] = value
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    code, text = invoke("verify", "--input", str(f))
    assert code == 1
    assert json.loads(text)["mismatches"] == [{"key": key, "status": "differs"}]


def test_verify_reads_an_archimedean_real_within_tolerance(tmp_path):
    doc = invoke_json(*Q_DEGREE)
    doc["degree"] = repr(float(doc["degree"]) * (1 + 1e-12))
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert invoke_json("verify", "--input", str(f))["ok"]


def test_verify_flags_tampering(tmp_path):
    doc = invoke_json("chi", "--matrix", '[["1","2"],["3","4"]]')
    doc["invariants"] = ["7", "-2"]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, text = invoke("verify", "--input", str(f))
    assert code == 1
    assert not json.loads(text)["ok"]


@pytest.mark.parametrize("args", [
    ["rootsys", "--type", "B3", "--weyl"],
    ["chevalley", "--type", "G2", "--verify"],
    ["chi", "--matrix", '[["0","1"],["2","0"]]'],
    ["degree", "--field", "Q(sqrt(2))", "--ideal", '["3", "1+2*w"]',
     "--metrics", '["1.5", "0.5"]'],
    ["curve", "--matrix", '[["0","1","0"],["0","0","1"],["1","1","0"]]',
     "--fibers", "60"],
])
def test_byte_determinism_across_processes(args):
    a = subprocess.run(CLI + args, capture_output=True)
    b = subprocess.run(CLI + args, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
