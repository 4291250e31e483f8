"""Fuzzed argv lists and `verify` documents: the CLI contract holds on every input.

Exit 0, 1 or 2 and never a traceback or a warning; on exit 2 nothing on stdout,
otherwise stdout is exactly one strict JSON document (no NaN or infinities).
Inputs stay small (n <= 3, --fibers <= 100, --center <= 3) so that every example
is cheap; shapes and literals are drawn both well formed and malformed.
"""

import contextlib
import io
import json
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from arithcurves.cli import run  # noqa: E402

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "G2",
         "gl1", "gl2", "gl3", "E8", "A0", "B", "", "A²", "gl0"]
FIELDS = ["Q", "Q(i)", "Q(sqrt(-5))", "Q(sqrt(2))", "Q(sqrt(13))", "Q(sqrt(x))", ""]

literals = st.one_of(
    st.integers(-9, 9).map(str),
    st.fractions(min_value=-20, max_value=20, max_denominator=9).map(str),
    st.sampled_from(["1e400", "1e-5", "1e5000", "1/0", "a", "", "nan", "inf", "w", "1+w",
                     "-2*w", "i", "1+x", "1e", "1" * 80]),
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(), st.booleans())
vectors = st.lists(literals, max_size=3)
square = st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(literals, min_size=n, max_size=n),
                                                      min_size=n, max_size=n))
values = st.one_of(square, vectors, st.lists(vectors, max_size=3), literals,
                   st.dictionaries(st.sampled_from(["a", "kind"]), literals, max_size=2))


def as_json(strategy):
    return strategy.map(json.dumps)


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(["rootsys", "chevalley", "chi", "degree", "curve"]))
    argv = [verb]
    if verb == "rootsys":
        argv += ["--type", draw(st.sampled_from(TYPES))]
        argv += draw(st.sampled_from([[], ["--weyl"]]))
    elif verb == "chevalley":
        argv += ["--type", draw(st.sampled_from(TYPES)), "--center", str(draw(st.integers(-1, 3)))]
        argv += draw(st.sampled_from([[], ["--verify"]]))
    elif verb == "chi":
        if draw(st.booleans()):
            argv += ["--matrix", draw(as_json(values))]
        else:
            argv += ["--torus-point", draw(as_json(values)), "--type", draw(st.sampled_from(TYPES))]
    elif verb == "degree":
        argv += ["--field", draw(st.sampled_from(FIELDS)), "--ideal", draw(as_json(values)),
                 "--metrics", draw(as_json(values))]
    else:
        argv += ["--matrix", draw(as_json(values)), "--field", draw(st.sampled_from(FIELDS))]
        if draw(st.booleans()):
            argv += ["--twist", draw(as_json(values))]
        argv += draw(st.sampled_from([[], ["--cameral"]]))
        if draw(st.booleans()):
            argv += ["--fibers", str(draw(st.integers(-5, 100)))]
    if draw(st.integers(0, 9)) == 0:                  # text that is not JSON at all
        argv[-1] = draw(st.sampled_from(["[[1,", "@/nonexistent.json", "{", "1" * 5000]))
    return argv


KEYS = ["type", "center", "matrix", "point", "field", "ideal_hnf", "metrics", "rank", "ideals",
        "char_power", "twist_hnf", "fiber_bound", "weyl_words", "verification"]
random_torsors = st.fixed_dictionaries({
    "field": st.sampled_from(FIELDS[:5]), "rank": st.integers(0, 3),
    "ideals": st.one_of(st.lists(st.sampled_from([["1"], ["2", "1+w"], [["1", "0"]], []]),
                                 max_size=3), values),
    "metrics": st.one_of(st.lists(st.one_of(square, st.just([["1", "0"], ["0", "1"]]),
                                            st.just([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])),
                                  max_size=2), values)})
# well-formed torsors over Q whose diagonal Gram matrices span extreme scales: their
# determinants leave the float range, which the exact reader never enters
SCALES = ["1e300", "1e-300", "1e-13", "1e6", "1e-6", "1"]
scaled_torsors = st.lists(st.sampled_from(SCALES), min_size=1, max_size=3).map(
    lambda d: {"field": "Q", "rank": len(d), "ideals": [["1"]] * len(d),
               "metrics": [[[x if i == j else "0" for j in range(len(d))]
                            for i, x in enumerate(d)]]})
torsors = st.one_of(random_torsors, scaled_torsors)
documents = st.one_of(
    st.dictionaries(st.sampled_from(KEYS), values, max_size=5).flatmap(
        lambda d: st.sampled_from(["rootsys", "chevalley", "chi", "degree", "slope", "spectral",
                                   "cameral", "verify", "nope"]).map(lambda k: {"kind": k, **d})),
    torsors,
    torsors.flatmap(lambda t: st.integers(-3, 3).map(
        lambda k: {"kind": "slope", **t, "char_power": k})))


def refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def check_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")                # a warning would reach stderr
        try:
            code = run(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    else:                                             # exactly one strict JSON document
        json.loads(out.getvalue(), parse_constant=refuse_constant)


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_fuzzed_argv_keeps_the_contract(argv):
    check_contract(argv)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents, verb=st.sampled_from(["verify", "slope"]))
@example(doc={"field": "Q", "rank": 3, "ideals": [["1"]] * 3,
              "metrics": [[["1e300", "0", "0"], ["0", "1e-6", "0"], ["0", "0", "1"]]]},
         verb="verify")
def test_fuzzed_documents_keep_the_contract(tmp_path, doc, verb):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    check_contract([verb, "--input" if verb == "verify" else "--torsor", str(f)])
