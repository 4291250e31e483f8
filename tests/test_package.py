import importlib
import io
import json
import re
from fractions import Fraction

import pytest

import arithcurves
from arithcurves import arakelov, chevalley, curve, errors, linalg
from arithcurves.arakelov import NumberField
from arithcurves.cli import run
from arithcurves.cli_chi import read_chi

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


def _largest_admitted_entry(n: int) -> int:
    """The largest B for which an n x n matrix with entries at most B passes MAX_CHI_WORK."""
    def admitted(b: int) -> bool:
        return n ** 3 * linalg.coefficient_digits(n, b) <= errors.MAX_CHI_WORK
    lo, hi = 1, 2
    while admitted(hi):
        lo, hi = hi, hi * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


def test_chi_work_limit(capsys, tmp_path):
    """An entry at the work budget runs and verifies; one more is refused before
    Berkowitz: a usage error from --matrix, a domain error from a document and the
    library.  One large entry among zeros keeps the admitted call itself cheap."""
    n = 14
    b = _largest_admitted_entry(n)
    assert 3000 < len(str(b)) < 4300                   # within the literal limit
    assert n ** 3 * linalg.coefficient_digits(n, b) <= errors.MAX_CHI_WORK
    assert n ** 3 * linalg.coefficient_digits(n, b + 1) > errors.MAX_CHI_WORK
    at, past = ([[str(x if i == j == 0 else 0) for j in range(n)] for i in range(n)]
                for x in (b, b + 1))
    out = io.StringIO()
    assert run(["chi", "--matrix", json.dumps(at)], out=out) == 0
    assert json.loads(out.getvalue())["invariants"] == [str(b)] + ["0"] * (n - 1)
    doc = tmp_path / "doc.json"
    doc.write_text(out.getvalue())
    assert _outcome(["verify", "--input", str(doc)])[1]["ok"]
    assert linalg.chi_gl(at)[0] == b

    digits = linalg.coefficient_digits(n, b + 1)
    message = (f"characteristic polynomial work n^3 * D = {n ** 3 * digits} exceeds the limit "
               f"{errors.MAX_CHI_WORK} (n = {n}, and D = {digits} digits bound the coefficients)")
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(["chi", "--matrix", json.dumps(past)], out=out)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert f"argument --matrix: {message}" in capsys.readouterr().err
    doc.write_text(json.dumps({"kind": "chi", "type": f"gl_{n}", "matrix": past}))
    assert _outcome(["verify", "--input", str(doc)]) == (
        1, {"error": {"type": "MalformedInput", "message": message}})
    with pytest.raises(errors.MalformedInput, match=re.escape(message)):
        linalg.chi_gl(past)


def test_chi_work_reads_the_scaled_matrix():
    """The bound reads the integer matrix Berkowitz runs on, after clearing the common
    denominator, so entries below 1 in absolute value can pass the budget."""
    assert 64 ** 3 * linalg.coefficient_digits(64, 1) <= errors.MAX_CHI_WORK
    wide = [[Fraction(1, 10 ** 40 + 2 * k + 1) for k in range(64)] for _ in range(64)]
    with pytest.raises(errors.MalformedInput, match="exceeds the limit"):
        linalg.check_chi_work(wide)


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
