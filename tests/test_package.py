import ast
import importlib
import io
import json
import math
import pathlib
import random
import re
import sys
from fractions import Fraction

import pytest

import arithcurves
from arithcurves import arakelov, chevalley, curve, errors, linalg
from arithcurves.arakelov import NumberField
from arithcurves.cli import run
from arithcurves.cli_chi import read_chi
from arithcurves.jsonutil import MAX_LITERAL_DIGITS
from helpers import chi_work, chi_work_message, largest_admitted_entry

PUBLIC = [
    "CartanType", "RootSystem", "build_root_system", "weyl_group",
    "IntegralLieAlgebra", "build_chevalley_basis", "verify_chevalley",
    "chi_gl", "chi_torus", "fundamental_invariants",
    "NumberField", "FractionalIdeal", "MetrizedLineBundle", "arithmetic_degree",
    "HiggsField", "spectral_curve", "cameral_curve",
]


def test_public_names_resolve_to_their_defining_modules():
    assert arithcurves.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(arithcurves, name)
        assert obj.__module__.startswith("arithcurves.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arithcurves.no_such_name
    assert not hasattr(arithcurves, "cli_run")


def test_star_import():
    namespace = {}
    exec("from arithcurves import *", namespace)
    assert all(namespace[name] is getattr(arithcurves, name) for name in PUBLIC)


SRC = pathlib.Path(arithcurves.__file__).parent


def test_the_library_does_not_import_numpy():
    """No module imports numpy, at the top or inside a function, and the package
    declares no numpy dependency (the tests' floating-point oracle uses it)."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "numpy" for n in names), path.name
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parents[1] / "pyproject.toml"
    if not pyproject.exists():                          # an installed copy, not the checkout
        pytest.skip("no pyproject.toml next to the package")
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert not any(re.match(r"numpy\b", dep) for dep in project["dependencies"])


def test_the_library_has_no_assert_statements():
    """`python -O` strips assert statements, so every check of the library raises
    explicitly."""
    for path in sorted(SRC.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def _mentions(tree: ast.AST, name: str) -> list:
    """The enclosing function (None at module level) of each use of name: an attribute,
    a bare name or an imported name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.alias) and child.name == name):
                found.append(scope)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)
    visit(tree, None)
    return found


def test_only_cli_main_sets_the_int_string_limit():
    """No module reads Python's int-to-str limit, and `cli.main` alone sets it (to
    MAX_LITERAL_DIGITS), so the one digit limit holds under every interpreter setting."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
            uses += [(path.name, name, scope) for scope in _mentions(tree, name)]
    assert uses == [("cli.py", "set_int_max_str_digits", "main")]


def test_run_leaves_the_int_string_limit_as_it_found_it():
    before = sys.get_int_max_str_digits()
    try:
        for limit in (640, 0, MAX_LITERAL_DIGITS):
            sys.set_int_max_str_digits(limit)
            run(["chi", "--matrix", '[["1/2", "3"], ["4", "5"]]'], out=io.StringIO())
            run(["degree", "--field", "Q", "--ideal", '["2"]', "--metrics", '["1"]'],
                out=io.StringIO())
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def test_a_literal_past_a_lower_caller_limit_names_that_limit(capsys):
    """In process, `run` keeps its caller's int-to-str limit: a literal past it is refused
    with Python's message on that limit, not read as a value of the wrong type."""
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(SystemExit) as exc:
            run(["chi", "--matrix", json.dumps([["1" * 700]])], out=io.StringIO())
    finally:
        sys.set_int_max_str_digits(before)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --matrix: a literal is past Python's int-string limit" in err
    assert "(640 digits)" in err and "must be a rational" not in err


def test_one_reader_per_exact_type():
    """`arakelov.read_element` alone reads a field element from text, and no verb module
    reads a number itself: each goes through the readers of `jsonutil` and `arakelov`."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += [(path.name, scope) for scope in _mentions(tree, "parse_element")]
        if path.name.startswith("cli_"):
            called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                      for node in ast.walk(tree) if isinstance(node, ast.Call)}
            uses += sorted((path.name, name) for name in called
                           & {"parse_rational", "parse_element", "float", "Fraction"})
    assert uses == [("arakelov.py", "read_element")]


@pytest.mark.parametrize("verb, flag, limit", [
    (["chevalley", "--type", "A1"], "--center", chevalley.MAX_CENTER_RANK),
    (["curve", "--matrix", "[[1]]"], "--fibers", curve.MAX_FIBER_BOUND),
])
def test_limits_are_the_ones_the_parser_enforces(capsys, verb, flag, limit):
    assert (chevalley.MAX_CENTER_RANK, curve.MAX_FIBER_BOUND) == (
        errors.MAX_CENTER_RANK, errors.MAX_FIBER_BOUND)
    assert run([*verb, flag, str(limit)], out=io.StringIO()) == 0
    with pytest.raises(SystemExit) as exc:
        run([*verb, flag, str(limit + 1)], out=io.StringIO())
    assert exc.value.code == 2
    assert f"..{limit}, got {limit + 1}" in capsys.readouterr().err


def _diagonal(n: int) -> list[list[str]]:
    return [[str(i + 1) if i == j else "0" for j in range(n)] for i in range(n)]


def _size_limit_outcomes(capsys, tmp_path, verb: str, kind: str, limit: int) -> None:
    """An n x n --matrix at the limit runs and verifies; one row more is rejected
    as a usage error from the command line and as a domain error from a document."""
    out = io.StringIO()
    assert run([verb, "--matrix", json.dumps(_diagonal(limit))], out=out) == 0
    doc = tmp_path / "doc.json"
    doc.write_text(out.getvalue())
    verified = io.StringIO()
    assert run(["verify", "--input", str(doc)], out=verified) == 0
    assert json.loads(verified.getvalue())["ok"]
    message = f"matrix size {limit + 1} exceeds the limit {limit}"
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run([verb, "--matrix", json.dumps(_diagonal(limit + 1))], out=out)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert f"argument --matrix: {message}" in capsys.readouterr().err
    doc.write_text(json.dumps({"kind": kind, "field": "Q", "matrix": _diagonal(limit + 1)}))
    out = io.StringIO()
    assert run(["verify", "--input", str(doc)], out=out) == 1
    assert json.loads(out.getvalue()) == {"error": {"type": "MalformedInput", "message": message}}


def test_curve_size_limit(capsys, tmp_path):
    assert curve.MAX_CURVE_N == errors.MAX_CURVE_N == 6
    _size_limit_outcomes(capsys, tmp_path, "curve", "spectral", curve.MAX_CURVE_N)
    QQ = NumberField(0)
    assert curve.higgs_field(QQ, _diagonal(curve.MAX_CURVE_N)).n == curve.MAX_CURVE_N
    with pytest.raises(errors.ArithCurvesError,
                       match=f"size {curve.MAX_CURVE_N + 1} exceeds the limit {curve.MAX_CURVE_N}"):
        curve.higgs_field(QQ, _diagonal(curve.MAX_CURVE_N + 1))


def test_chi_size_limit(capsys, tmp_path):
    limit = errors.MAX_CHI_N
    _size_limit_outcomes(capsys, tmp_path, "chi", "chi", limit)
    # the reader rejects the rows before it reads an entry
    assert len(read_chi({"matrix": _diagonal(limit)})[0]) == limit
    with pytest.raises(errors.MalformedInput) as exc:
        read_chi({"matrix": [["not a rational"]] * (limit + 1)})
    assert exc.value.key == "matrix"


def test_chi_work_limit(capsys, tmp_path):
    """An entry at the work budget runs and verifies; one more is refused before
    Berkowitz: a usage error from --matrix, a domain error from a document and the
    library.  One large entry among zeros keeps the admitted call itself cheap."""
    n = 8
    b = largest_admitted_entry(n)
    assert 3000 < len(str(b)) < 4300                   # within the literal limit
    assert chi_work(n, b)[0] <= errors.MAX_CHI_WORK < chi_work(n, b + 1)[0]
    at, past = ([[str(x if i == j == 0 else 0) for j in range(n)] for i in range(n)]
                for x in (b, b + 1))
    out = io.StringIO()
    assert run(["chi", "--matrix", json.dumps(at)], out=out) == 0
    assert json.loads(out.getvalue())["invariants"] == [str(b)] + ["0"] * (n - 1)
    doc = tmp_path / "doc.json"
    doc.write_text(out.getvalue())
    assert _outcome(["verify", "--input", str(doc)])[1]["ok"]
    assert linalg.chi_gl(at)[0] == b

    message = chi_work_message(n, b + 1)
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(["chi", "--matrix", json.dumps(past)], out=out)
    assert exc.value.code == 2 and out.getvalue() == ""
    # the refusal comes from the builder, so argparse's line names no argument
    assert capsys.readouterr().err.endswith(f"\narithcurves: error: {message}\n")
    doc.write_text(json.dumps({"kind": "chi", "type": f"gl_{n}", "matrix": past}))
    assert _outcome(["verify", "--input", str(doc)]) == (
        1, {"error": {"type": "MalformedInput", "message": message}})
    with pytest.raises(errors.MalformedInput, match=re.escape(message)):
        linalg.chi_gl(past)


def test_chi_work_reads_the_scaled_matrix():
    """The bound reads the integer matrix Berkowitz runs on, after clearing the common
    denominator, so entries below 1 in absolute value can pass the budget."""
    assert chi_work(64, 1)[0] <= errors.MAX_CHI_WORK
    wide = [[Fraction(1, 10 ** 40 + 2 * k + 1) for k in range(64)] for _ in range(64)]
    with pytest.raises(errors.MalformedInput, match="exceeds the limit"):
        linalg.integral_char_poly(wide, None)


def test_growing_common_denominator_is_refused_before_it_is_built(capsys, monkeypatch):
    """1/d for 4096 distinct 4000-digit d: their common denominator has about 16
    million digits, hours of lcm steps before the scaled matrix could be priced.  Every
    scaled entry is at least D / q, so the run is refused at the second d."""
    rng = random.Random(64)
    wide = [[Fraction(1, rng.randrange(10 ** 3999, 10 ** 4000)) for _ in range(64)]
            for _ in range(64)]
    steps, lcm = [], math.lcm
    monkeypatch.setattr(linalg.math, "lcm", lambda *args: steps.append(args) or lcm(*args))
    message = (f"characteristic polynomial work exceeds the limit {errors.MAX_CHI_WORK} "
               f"on the common denominator of the matrix entries alone")
    with pytest.raises(errors.MalformedInput, match=message):
        linalg.integral_char_poly(wide, None)
    assert len(steps) == 2
    with pytest.raises(SystemExit) as exc:
        run(["chi", "--matrix", json.dumps([[f"1/{x.denominator}" for x in row[:16]]
                                            for row in wide[:16]])], out=io.StringIO())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"\narithcurves: error: {message}\n")


def test_ragged_chi_matrix_past_the_work_limit_is_not_square():
    """chi_gl checks squareness before the price, so a ragged matrix is NonSquare."""
    big = 10 ** 4000
    assert chi_work(8, big)[0] > errors.MAX_CHI_WORK
    big = str(big)
    assert _outcome(["chi", "--matrix", json.dumps([[big] * 9] * 8)]) == (
        1, {"error": {"type": "NonSquare", "message": "matrix is not square"}})


def test_one_scaling_per_characteristic_polynomial(monkeypatch, tmp_path):
    """`chi`, each place of `slope` and `curve` scale their matrix once, in
    `linalg.integral_char_poly`, which also prices the run."""
    calls, scaled = [], linalg._scaled
    monkeypatch.setattr(linalg, "_scaled", lambda m, den: calls.append(len(m)) or scaled(m, den))
    assert _outcome(["chi", "--matrix", '[["1", "2"], ["3", "4"]]'])[0] == 0
    assert calls == [2]
    calls.clear()
    torsor = tmp_path / "torsor.json"
    torsor.write_text(json.dumps({"field": "Q(sqrt(2))", "rank": 3, "ideals": [["1"]] * 3,
                                  "metrics": [_diagonal(3), _diagonal(3)]}))
    assert _outcome(["slope", "--torsor", str(torsor)])[0] == 0
    assert calls == [3, 3]                                  # two real places
    calls.clear()
    assert _outcome(["curve", "--matrix", '[["1", "2"], ["3", "4"]]', "--cameral"])[0] == 0
    assert calls == [2]


def _nilpotent_curve(m: int, d: int) -> dict:
    """A 6 x 6 `curve` document whose scaled matrix has m * d as its largest entry: m and
    1/d above the diagonal, twisted by (1/d).  Its polynomial is y^6, so it prints."""
    matrix = [["0"] * 6 for _ in range(6)]
    matrix[0][1], matrix[0][2] = str(m), f"1/{d}"
    return {"kind": "spectral", "field": "Q", "matrix": matrix, "twist_hnf": [f"1/{d}"]}


def test_curve_work_limit(capsys, monkeypatch, tmp_path):
    """A 6 x 6 `curve` at the price boundary runs; one step past it is refused before
    Berkowitz from the command line (usage error), `verify` (domain error) and
    `spectral_curve` (MalformedInput).  A 4200-digit denominator and an integer
    entry of under 4300 digits reach the boundary within the literal limit."""
    n, b = 6, largest_admitted_entry(6)
    d = 10 ** 4199 + 1
    m = b // d
    assert len(str(m)) < MAX_LITERAL_DIGITS and m * d <= b < (m + 1) * d
    at, past = _nilpotent_curve(m, d), _nilpotent_curve(m + 1, d)
    argv = ["curve", "--matrix", json.dumps(at["matrix"]), "--twist", json.dumps(at["twist_hnf"])]
    code, doc = _outcome(argv)
    assert code == 0 and doc["poly"] == ["1"] + ["0"] * n and doc["degenerate"]
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert _outcome(["verify", "--input", str(f)])[1]["ok"]

    monkeypatch.setattr(linalg, "_berkowitz", lambda *args: pytest.fail("Berkowitz ran"))
    message = chi_work_message(n, (m + 1) * d)
    with pytest.raises(SystemExit) as exc:
        run(["curve", "--matrix", json.dumps(past["matrix"]),
             "--twist", json.dumps(past["twist_hnf"])], out=io.StringIO())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"\narithcurves: error: {message}\n")
    f.write_text(json.dumps(past))
    assert _outcome(["verify", "--input", str(f)]) == (
        1, {"error": {"type": "MalformedInput", "message": message}})
    QQ = NumberField(0)
    twist = arakelov.FractionalIdeal.from_elements(QQ, [Fraction(1, d)])
    phi = curve.higgs_field(QQ, [[Fraction(x) for x in row] for row in past["matrix"]], twist)
    with pytest.raises(errors.MalformedInput, match=re.escape(message)):
        curve.spectral_curve(phi)


@pytest.mark.parametrize("digits", [2000, 4200])
def test_twist_of_36_large_denominators_is_refused(capsys, digits):
    """A 6 x 6 matrix of 1/d for 36 distinct d, twisted by the ideal they generate: the
    twist's common denominator passes 3 * MAX_LITERAL_DIGITS digits within a few
    generators, and the reader refuses it before any HNF work (16 s and 70 s before)."""
    rng = random.Random(digits)
    dens = [rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(36)]
    generators = [f"1/{q}" for q in dens]
    matrix = [generators[6 * i:6 * i + 6] for i in range(6)]
    with pytest.raises(SystemExit) as exc:
        run(["curve", "--matrix", json.dumps(matrix), "--twist", json.dumps(generators)],
            out=io.StringIO())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"\narithcurves: error: argument --twist: "
                                            f"{IDEAL_DENOMINATOR_MESSAGE}\n")


IDEAL_DENOMINATOR_MESSAGE = (
    f"the generators' common denominator has more than 3 * MAX_LITERAL_DIGITS = "
    f"{3 * MAX_LITERAL_DIGITS} digits, so the ideal's HNF could not be printed")


def _generators_at_the_denominator_bound() -> tuple[list[str], list[str]]:
    """Generators 1/q of prime powers q of at most 4299 digits (a literal 1/q has at most
    MAX_LITERAL_DIGITS digits) whose lcm has exactly 3 * MAX_LITERAL_DIGITS digits, and
    the same with one more factor 7, past it."""
    limit = 10 ** (3 * MAX_LITERAL_DIGITS)
    powers = [p ** int((MAX_LITERAL_DIGITS - 1) / math.log10(p)) for p in (2, 3, 5)]
    assert all(len(str(q)) < MAX_LITERAL_DIGITS for q in powers)
    last = 1
    while math.prod(powers) * last * 7 < limit:
        last *= 7
    assert limit // 10 <= math.prod(powers) * last < limit <= math.prod(powers) * last * 7
    return ([f"1/{q}" for q in powers + [last]], [f"1/{q}" for q in powers + [last * 7]])


@pytest.mark.parametrize("verb", ["degree", "curve", "slope"])
def test_ideal_denominator_limit(capsys, monkeypatch, tmp_path, verb):
    """Every ideal reader (`--ideal`, `--twist`, a torsor's `ideals`) takes the common
    denominator one generator at a time.  At 3 * MAX_LITERAL_DIGITS digits the ideal is
    read, and its HNF then fails the output digit limit; one factor more is refused
    before `from_elements` runs: a usage error from the command line, a domain error
    from a document."""
    at, past = _generators_at_the_denominator_bound()
    QQ = NumberField(0)
    ideal = arakelov.read_ideal(at, "ideal_hnf", QQ)
    assert ideal.rows[0][0].denominator == math.prod(Fraction(g).denominator for g in at)

    def argv(gens):
        return {"degree": ["degree", "--field", "Q", "--ideal", json.dumps(gens),
                           "--metrics", '["1"]'],
                "curve": ["curve", "--matrix", '[["0"]]', "--twist", json.dumps(gens)]}[verb]

    def document(gens):
        if verb == "slope":
            return {"field": "Q", "rank": 1, "ideals": [gens], "metrics": [[["1"]]]}
        key = "ideal_hnf" if verb == "degree" else "twist_hnf"
        return {"kind": verb if verb == "degree" else "spectral", "field": "Q",
                "matrix": [["0"]], "metrics": ["1"], key: gens}

    f = tmp_path / "doc.json"
    f.write_text(json.dumps(document(at)))
    code, doc = _outcome(["slope", "--torsor", str(f)] if verb == "slope" else argv(at))
    assert code == 1 and doc["error"]["type"] == "ArithCurvesError"

    monkeypatch.setattr(arakelov.FractionalIdeal, "from_elements",
                        classmethod(lambda *args: pytest.fail("from_elements ran")))
    refused = (1, {"error": {"type": "MalformedInput", "message": IDEAL_DENOMINATOR_MESSAGE}})
    f.write_text(json.dumps(document(past)))
    if verb == "slope":
        assert _outcome(["slope", "--torsor", str(f)]) == refused
    else:
        with pytest.raises(SystemExit) as exc:
            run(argv(past), out=io.StringIO())
        assert exc.value.code == 2
        flag = "--ideal" if verb == "degree" else "--twist"
        assert capsys.readouterr().err.endswith(
            f"\narithcurves: error: argument {flag}: {IDEAL_DENOMINATOR_MESSAGE}\n")
    assert _outcome(["verify", "--input", str(f)]) == refused
    with pytest.raises(errors.MalformedInput, match=re.escape(IDEAL_DENOMINATOR_MESSAGE)):
        arakelov.read_ideal(past, "ideal_hnf", QQ)


def _outcome(argv) -> tuple[int, dict]:
    out = io.StringIO()
    code = run(argv, out=out)
    return code, json.loads(out.getvalue())


def test_field_size_limit(monkeypatch, tmp_path):
    """|d| at MAX_FIELD_D builds the field; one past it is a domain error from the
    library, the CLI and `verify`, refused before the squarefree loop runs.  The loop
    is stubbed to count its calls: at the limit it would take about a second."""
    limit = errors.MAX_FIELD_D
    calls = []
    monkeypatch.setattr(arakelov, "_is_squarefree", lambda n: calls.append(n) or True)
    assert NumberField(limit).d == limit and NumberField(-limit).d == -limit
    argv = ["degree", "--ideal", '["2"]', "--metrics", '["1", "1"]', "--field"]
    code, doc = _outcome([*argv, f"Q(sqrt({limit}))"])
    assert code == 0 and doc["field"] == f"Q(sqrt({limit}))"
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert _outcome(["verify", "--input", str(f)]) == (
        0, {"kind": "verify", "input_kind": "degree", "ok": True, "mismatches": []})
    assert calls == [limit, -limit, limit, limit]

    calls.clear()
    message = f"|d| exceeds the limit MAX_FIELD_D = {limit}"
    refused = (1, {"error": {"type": "ArithCurvesError", "message": message}})
    for d in (limit + 1, -limit - 1):
        with pytest.raises(errors.ArithCurvesError, match=re.escape(message)):
            NumberField(d)
    for d in (limit + 1, -limit - 1, "9" * 5000):        # 5000 digits: past int() too
        assert _outcome([*argv, f"Q(sqrt({d}))"]) == refused
        f.write_text(json.dumps({**doc, "field": f"Q(sqrt({d}))"}))
        assert _outcome(["verify", "--input", str(f)]) == refused
    assert calls == []


# The help and usage texts, byte for byte, at COLUMNS=80.  argparse adds a verb's
# flags only when that verb runs, and none of these texts may show it.
TOP_HELP = """\
usage: arithcurves [-h] {rootsys,chevalley,chi,degree,slope,curve,verify} ...

Exact Lie-theoretic and arithmetic curve computations with JSON output.

positional arguments:
  {rootsys,chevalley,chi,degree,slope,curve,verify}
    rootsys             build a root system
    chevalley           integral Chevalley basis and bracket table
    chi                 characteristic morphism
    degree              arithmetic degree of a metrized line bundle
    slope               slope of an arithmetic torsor
    curve               spectral or cameral characteristic curve
    verify              re-check the JSON output of any verb

options:
  -h, --help            show this help message and exit
"""

HELP = {
    "rootsys": """\
usage: arithcurves rootsys [-h] --type TYPE [--weyl]

options:
  -h, --help   show this help message and exit
  --type TYPE
  --weyl       include Weyl group words
""",
    "chevalley": """\
usage: arithcurves chevalley [-h] --type TYPE [--center CENTER] [--verify]

options:
  -h, --help       show this help message and exit
  --type TYPE
  --center CENTER  rank of the abelian center (at most 2000)
  --verify         attach the verification report
""",
    "chi": """\
usage: arithcurves chi [-h] [--matrix JSON] [--torus-point JSON] [--type TYPE]

options:
  -h, --help          show this help message and exit
  --matrix JSON       JSON matrix of rationals (inline or @file)
  --torus-point JSON  JSON list of rationals (inline or @file)
  --type TYPE         torus type for --torus-point (e.g. gl3, B2)
""",
    "degree": """\
usage: arithcurves degree [-h] --field FIELD --ideal JSON --metrics JSON

options:
  -h, --help      show this help message and exit
  --field FIELD
  --ideal JSON    JSON list of generators
  --metrics JSON  JSON list of positive reals
""",
    "slope": """\
usage: arithcurves slope [-h] --torsor FILE [--char CHAR_POWER]

options:
  -h, --help         show this help message and exit
  --torsor FILE      JSON file describing the torsor
  --char CHAR_POWER  power of the determinant character
""",
    "curve": """\
usage: arithcurves curve [-h] --matrix JSON [--field FIELD] [--twist JSON]
                         [--cameral] [--fibers PMAX]

options:
  -h, --help     show this help message and exit
  --matrix JSON  JSON matrix of field elements
  --field FIELD
  --twist JSON   JSON list of ideal generators
  --cameral
  --fibers PMAX  report ramified primes below PMAX (at most 10000000)
""",
    "verify": """\
usage: arithcurves verify [-h] --input FILE

options:
  -h, --help    show this help message and exit
  --input FILE  file with JSON from another verb
""",
}

USAGE_ERRORS = [
    ([],
     """\
usage: arithcurves [-h] {rootsys,chevalley,chi,degree,slope,curve,verify} ...
arithcurves: error: the following arguments are required: verb
"""),
    (["frobnicate"],
     """\
usage: arithcurves [-h] {rootsys,chevalley,chi,degree,slope,curve,verify} ...
arithcurves: error: argument verb: invalid choice: 'frobnicate' (choose from 'rootsys', 'chevalley', 'chi', 'degree', 'slope', 'curve', 'verify')
"""),
    (["rootsys"],
     """\
usage: arithcurves rootsys [-h] --type TYPE [--weyl]
arithcurves rootsys: error: the following arguments are required: --type
"""),
    (["chevalley", "--type", "A2", "--center", "-1"],
     """\
usage: arithcurves chevalley [-h] --type TYPE [--center CENTER] [--verify]
arithcurves chevalley: error: argument --center: must lie in 0..2000, got -1
"""),
    (["chi", "--matrix", "5"],
     """\
usage: arithcurves [-h] {rootsys,chevalley,chi,degree,slope,curve,verify} ...
arithcurves: error: argument --matrix: matrix must be a JSON list of rows, got 5
"""),
    (["degree", "--field", "Q"],
     """\
usage: arithcurves degree [-h] --field FIELD --ideal JSON --metrics JSON
arithcurves degree: error: the following arguments are required: --ideal, --metrics
"""),
    (["slope", "--char", "x"],
     """\
usage: arithcurves slope [-h] --torsor FILE [--char CHAR_POWER]
arithcurves slope: error: argument --char: invalid int value: 'x'
"""),
    (["slope", "--char", "1_0"],
     """\
usage: arithcurves slope [-h] --torsor FILE [--char CHAR_POWER]
arithcurves slope: error: argument --char: invalid int value: '1_0'
"""),
    (["curve", "--matrix", "[[1]]", "--fibers", "x"],
     """\
usage: arithcurves curve [-h] --matrix JSON [--field FIELD] [--twist JSON]
                         [--cameral] [--fibers PMAX]
arithcurves curve: error: argument --fibers: invalid integer value: 'x'
"""),
    (["verify"],
     """\
usage: arithcurves verify [-h] --input FILE
arithcurves verify: error: the following arguments are required: --input
"""),
    (["rootsys", "--type", "A2", "--bogus"],
     """\
usage: arithcurves [-h] {rootsys,chevalley,chi,degree,slope,curve,verify} ...
arithcurves: error: unrecognized arguments: --bogus
"""),
]


def test_top_level_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == TOP_HELP


@pytest.mark.parametrize("verb", sorted(HELP))
def test_help_text(monkeypatch, capsys, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[verb]


@pytest.mark.parametrize("argv, text", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-verb" for argv, _ in USAGE_ERRORS])
def test_usage_error_text(monkeypatch, capsys, argv, text):
    """One usage error per verb, and the parser's own: no verb, an unknown verb and an
    unknown flag.  Each prints its usage line and message on stderr, and nothing else."""
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(argv, out=out)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert capsys.readouterr() == ("", text)
