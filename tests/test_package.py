import importlib
import io

import pytest

import arithcurves
from arithcurves import chevalley, curve, errors
from arithcurves.cli import run

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
