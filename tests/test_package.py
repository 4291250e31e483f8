import importlib
import io
import json

import pytest

import arithcurves
from arithcurves import chevalley, curve, errors
from arithcurves.arakelov import NumberField
from arithcurves.cli import read_chi, run

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


HELP = {
    "chevalley": """\
usage: arithcurves chevalley [-h] --type TYPE [--center CENTER] [--verify]

options:
  -h, --help       show this help message and exit
  --type TYPE
  --center CENTER  rank of the abelian center (at most 2000)
  --verify         attach the verification report
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
}


@pytest.mark.parametrize("verb", sorted(HELP))
def test_help_text(monkeypatch, capsys, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[verb]
