"""Command-line interface: every computation behind one verb, JSON in and out.

Exit codes: 0 success, 1 domain error (a JSON error object goes to stdout),
2 usage error (message on stderr, no JSON).  Output is deterministic: dict
keys are emitted in construction order, exact rationals as "p/q" strings and
archimedean reals with 17 significant digits.

VERBS gives each verb its flags, a reader (a document keyed as the verb's
output -> the builder's checked inputs) and a payload builder.  The parsed
flags form the document; ``verify`` passes a verb's output through the same
reader and builder and diffs the payloads.  Input a reader rejects
(MalformedInput) is a usage error from a command-line value and a domain
error from a document file (``verify --input``, ``slope --torsor``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

# Each builder and reader imports the library modules it uses in its own body,
# so a process loads only what its verb runs: a usage error loads none of them,
# and torsor (with numpy) loads only for `slope` and `verify` on a torsor.
from .errors import (MAX_CENTER_RANK, MAX_CHI_N, MAX_CURVE_N, MAX_FIBER_BOUND, ArithCurvesError,
                     MalformedInput, UnsupportedType)
from .jsonutil import parse_rational, rat_str, real_str

if TYPE_CHECKING:
    from . import arakelov


# ---------------------------------------------------------------------------
# payload builders

def rootsys_payload(type_token: str, include_weyl: bool) -> dict:
    from . import rootsys
    rs = rootsys.build_root_system(rootsys.CartanType.parse(type_token))
    w = rootsys.weyl_group(rs)
    payload = {"kind": "rootsys", **rootsys.root_system_json(rs),
               "count": len(rs.roots), "weyl_order": len(w)}
    if include_weyl:
        payload["weyl_words"] = [list(el.word) for el in w]
    return payload


def chevalley_payload(type_token: str, center: int, with_verify: bool) -> dict:
    from . import chevalley, rootsys
    rs = rootsys.build_root_system(rootsys.CartanType.parse(type_token))
    type_token = str(rs.cartan_type)
    L = chevalley.build_chevalley_basis(rs, center_rank=center)
    records = []
    for i, j in sorted(key for key in L.table if key[0] < key[1]):
        entries = dict(L.table[i, j])
        dense = [int(entries.get(k, 0)) for k in range(L.dim)]
        records.append({"x": L.label(i), "y": L.label(j), "result": dense})
    payload = {"kind": "chevalley", "type": type_token, "center": center,
               "dim": L.dim, "basis": [L.label(i) for i in range(L.dim)],
               "bracket": records}
    if with_verify:
        rep = chevalley.verify_chevalley(L)
        payload["verification"] = report = {key: getattr(rep, key) for key in (
            "ok", "antisymmetric", "integral", "magnitudes_ok", "cartan_action_ok", "coroot_ok",
            "opposite_sign_ok", "literal_paper_sign_count", "pair_count",
            "string_identity_failures", "jacobi_ok", "jacobi_triples")}
        report["string_identity_failures"] = len(rep.string_identity_failures)
    return payload


def chi_payload(matrix: list | None, type_token: str | None, point: list | None) -> dict:
    """chi of a rational matrix, or of a torus point of the given type."""
    if matrix is not None:
        from . import linalg
        vals = linalg.chi_gl(matrix)
        given = {"type": f"gl_{len(matrix)}",
                 "matrix": [[rat_str(x) for x in row] for row in matrix]}
    else:
        from . import charmorph
        vals = charmorph.chi_torus(type_token, point)
        token = charmorph.realization(type_token).token
        given = {"type": f"gl_{token[2:]}" if token.startswith("gl") else token,
                 "point": [rat_str(x) for x in point]}
    return {"kind": "chi", **given, "invariants": [rat_str(v) for v in vals]}


def degree_payload(K: arakelov.NumberField, ideal: arakelov.FractionalIdeal,
                   metrics: tuple[float, ...]) -> dict:
    from . import arakelov
    bundle = arakelov.MetrizedLineBundle(ideal, metrics)
    deg = arakelov.arithmetic_degree(K, bundle)
    return {"kind": "degree", "field": K.name, "ideal_hnf": ideal.hnf_strings(),
            "ideal_norm": rat_str(ideal.norm()),
            "metrics": [real_str(m) for m in metrics], "degree": real_str(deg)}


def _emit_place_matrix(mat, kind: str):
    if kind == "real":
        return [[real_str(x) for x in row] for row in mat.tolist()]
    return [[[real_str(x.real), real_str(x.imag)] for x in row] for row in mat.tolist()]


def slope_payload(K: arakelov.NumberField, n: int, ideals: tuple, metrics: tuple,
                  k: int) -> dict:
    from . import torsor
    T = torsor.ArithmeticTorsor(field=K, rank=n, ideals=ideals, metrics=metrics)
    det_bundle = torsor.determinant_bundle(T)
    value = torsor.slope(T, k)
    return {"kind": "slope", "field": K.name, "rank": n, "char_power": k,
            "ideals": [i.hnf_strings() for i in ideals],
            "metrics": [_emit_place_matrix(m.std, m.cd.place) for m in metrics],
            "det_ideal_hnf": det_bundle.ideal.hnf_strings(),
            "gram_dets": [real_str(r * r) for r in det_bundle.metrics],
            "slope": real_str(value)}


def curve_payload(K: arakelov.NumberField, entries: list, twist, cameral: bool,
                  fiber_bound: int | None) -> dict:
    from . import curve
    phi = curve.higgs_field(K, entries, twist=twist)
    C = curve.cameral_curve(phi) if cameral else curve.spectral_curve(phi)
    payload = {"kind": C.kind, "field": K.name, "n": C.n,
               "matrix": [[str(x) for x in row] for row in entries],
               "twist_hnf": phi.twist.hnf_strings(),
               "poly": [str(c) for c in C.poly],
               "char_point": [str(c) for c in C.certificate.values],
               "integrality": [{"power": kk, "coords": [rat_str(c) for c in coords]}
                               for kk, coords in enumerate(C.certificate.power_coords,
                                                           start=1)],
               "disc": str(C.disc), "degenerate": C.degenerate,
               "degree": C.degree}
    if K.degree == 1 and not C.degenerate:
        payload["covering_ok"] = curve.covering_degree_check(C)
        if cameral:
            pts = curve.cameral_fiber_rational(C)
            if pts is not None:
                payload["rational_points"] = [[rat_str(x) for x in p] for p in pts]
    if fiber_bound is not None:
        payload["fiber_bound"] = fiber_bound
        primes = curve.ramified_primes(C._replace(kind="spectral"), fiber_bound)
        payload["ramified"] = [{"p": p, "pattern": [list(fe) for fe in pat]}
                               for p, pat in primes if pat is not None]
        skipped = [{"p": p, "reason": "divides a coefficient denominator: the characteristic "
                                      "polynomial has no reduction mod p"}
                   for p, pat in primes if pat is None]
        if skipped:
            payload["skipped"] = skipped
    return payload


def verify_payload(doc: dict) -> dict:
    """Rebuild a verb's output from its own keys and diff; report on a raw torsor."""
    kind = doc.get("kind")
    if kind == "verify":
        return {"kind": "verify", "input_kind": "verify", "ok": True, "mismatches": []}
    if kind is None and {"field", "rank", "ideals", "metrics"} <= set(doc):
        reports = [m.verify().as_dict() for m in read_torsor(doc)[3]]
        return {"kind": "verify", "input_kind": "torsor",
                "ok": all(r["ok"] for r in reports), "reports": reports}
    verb = next((v for v in VERBS.values() if kind in v.kinds), None)
    if verb is None:
        raise ArithCurvesError(f"nothing to verify for kind {kind!r}")
    rebuilt = verb.build(*verb.read(doc))
    mismatches = [{"key": key, "status": "differs" if key in doc else "missing"}
                  for key in rebuilt if key not in doc or _differs(doc[key], rebuilt[key])]
    return {"kind": "verify", "input_kind": kind, "ok": not mismatches,
            "mismatches": mismatches}


def _differs(a, b) -> bool:
    if isinstance(a, str) and isinstance(b, str):
        try:
            fa, fb = float(a), float(b)
        except ValueError:
            return a != b
        if fa == fb:
            return False
        return abs(fa - fb) > 1e-9 * max(1.0, abs(fa), abs(fb))
    return a != b


# ---------------------------------------------------------------------------
# readers: a document (a dict keyed as the verb's output) -> checked inputs

def _get(doc: dict, key: str, read: Callable, *args, required: bool = True):
    """read(doc[key], key, *args), rejections tagged with the key; optional keys may be null."""
    if doc.get(key) is None and not required:
        return None
    if key not in doc:
        raise MalformedInput(f"{doc.get('kind', 'torsor')} document lacks the key {key!r}")
    try:
        return read(doc[key], key, *args)
    except MalformedInput as exc:
        exc.key = key
        raise


def _scalar(convert: Callable, what: str) -> Callable:
    """A reader of one JSON value through convert; what convert cannot take is malformed."""
    def read(value, key: str):
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(f"{key} must be {what}, got {json.dumps(value)}") from None
    return read


_text = _scalar(str.strip, "a string")         # str.strip raises TypeError on a non-string
_integer = _scalar(int, "an integer")
_real = _scalar(float, "a real")
# a string goes through parse_rational, whose own MalformedInput says what is wrong
_rational = _scalar(lambda x: parse_rational(x) if isinstance(x, str) else Fraction(x),
                    "a rational")


def _list(value, key: str, entry: Callable, length: int | None = None, what: str = "values"):
    """A JSON list read by entry(x, key), of `length` items when that is set."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise MalformedInput(f"{key} must be a JSON list of {size}{what}, got {json.dumps(value)}")
    return [entry(x, key) for x in value]


def _matrix(value, key: str, entry: Callable, n: int | None = None,
            most: int | None = None) -> list[list]:
    """A non-empty list of rows read by entry; n x n when n is set, else rows of any length.
    More than `most` rows, when that is set, are rejected before any entry is read."""
    if value == []:
        raise MalformedInput(f"{key} must not be empty")
    if most is not None and isinstance(value, list) and len(value) > most:
        raise MalformedInput(f"{key} size {len(value)} exceeds the limit {most}")
    return _list(value, key, lambda row, key: _list(row, key, entry, n), n, "rows")


def _reals(value, key: str, length: int | None = None) -> tuple[float, ...]:
    return tuple(_list(value, key, _real, length, "reals"))


def _complex(value, key: str) -> complex:
    return complex(*_reals(value, key, 2))


def _field(value, key: str) -> arakelov.NumberField:
    from . import arakelov
    return arakelov.parse_field(_text(value, key))


def _ideal(spec, key: str, K: arakelov.NumberField) -> arakelov.FractionalIdeal:
    """Generator strings, or HNF rows (lists) emitted by this CLI."""
    from . import arakelov
    if not isinstance(spec, list):
        raise MalformedInput(f"an ideal must be a JSON list of generators, got {json.dumps(spec)}")
    elements = []
    for item in spec:
        if isinstance(item, list):
            if len(item) != K.degree:
                raise MalformedInput(f"HNF rows over {K.name} must have length {K.degree}, "
                                     f"got {json.dumps(item)}")
            elements.append(K.element(*(_rational(x, key) for x in item)))
        else:
            elements.append(arakelov.parse_element(K, str(item)))
    return arakelov.FractionalIdeal.from_elements(K, elements)


def _place_metrics(grams, key: str, K: arakelov.NumberField, n: int) -> tuple:
    """The metric that each place's Gram matrix witnesses, real places first."""
    import numpy as np
    from . import torsor
    r1, r2 = K.signature
    metrics = []
    for i, gram in enumerate(_list(grams, key, lambda g, _: g, r1 + r2, "Gram matrices")):
        kind = "real" if i < r1 else "complex"
        gram = np.array(_matrix(gram, key, _real if kind == "real" else _complex, n))
        if not np.isfinite(gram).all():
            raise ArithCurvesError("metric Gram matrix must be finite")
        try:
            witness = np.linalg.cholesky(gram).conj().T
        except np.linalg.LinAlgError as exc:
            raise ArithCurvesError("metric Gram matrix must be positive definite") from exc
        metrics.append(torsor.witnessed_metric(torsor.canonical_form(n, kind), witness))
    return tuple(metrics)


def read_torsor(doc: dict) -> tuple:
    """(field, rank, ideals, place metrics) of a torsor description."""
    K = _get(doc, "field", _field)
    n = _get(doc, "rank", _integer)
    ideals = _get(doc, "ideals", _list, functools.partial(_ideal, K=K), n, "ideals")
    return K, n, tuple(ideals), _get(doc, "metrics", _place_metrics, K, n)


def _chi_matrix(value, key: str) -> list[list]:
    """A rational matrix of at most MAX_CHI_N rows, refused past MAX_CHI_WORK before
    Berkowitz runs (linalg.chi_gl checks the same work bound for library callers)."""
    matrix = _matrix(value, key, _rational, None, MAX_CHI_N)
    from . import linalg
    linalg.check_chi_work(matrix)
    return matrix


def read_chi(doc: dict) -> tuple:
    if ("matrix" in doc) == ("point" in doc):
        raise MalformedInput("chi takes exactly one of a matrix and a torus point")
    if "matrix" in doc:
        return _get(doc, "matrix", _chi_matrix), None, None
    return None, _get(doc, "type", _text), _get(doc, "point", _list, _rational)


def read_degree(doc: dict) -> tuple:
    K = _get(doc, "field", _field)
    return K, _get(doc, "ideal_hnf", _ideal, K), _get(doc, "metrics", _reals)


def read_curve(doc: dict) -> tuple:
    from . import arakelov
    K = _get(doc, "field", _field)
    return (K, _get(doc, "matrix", _matrix, lambda x, _: arakelov.parse_element(K, str(x)),
                    None, MAX_CURVE_N),
            _get(doc, "twist_hnf", _ideal, K, required=False), doc.get("kind") == "cameral",
            _get(doc, "fiber_bound", _integer, required=False))


# ---------------------------------------------------------------------------
# the verb table and argument plumbing

def _json(text: str):
    """argparse type: a JSON value given inline or as @path."""
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        # ValueError covers a number past the int-to-str limit as well as bad syntax
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read JSON: {exc}") from None


def _json_object(path: str) -> dict:
    """argparse type: the JSON object held by a file."""
    doc = _json("@" + path)
    if not isinstance(doc, dict):
        raise argparse.ArgumentTypeError("must hold a JSON object")
    return doc


def _bounded_int(low: int | None, high: int) -> Callable:
    """argparse type: an int at most `high` and, when `low` is set, at least `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value > high or low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must lie in {'' if low is None else low}..{high}, "
                                             f"got {value}")
        return value
    return integer


class Verb(NamedTuple):
    help: str
    flags: tuple        # (option, document key, argparse keywords)
    read: Callable      # document -> the builder's checked inputs
    build: Callable     # checked inputs -> payload
    kinds: tuple = ()   # output kinds that `verify` rebuilds through this verb


REQUIRED = {"required": True}
SWITCH = {"action": "store_true", "default": None}      # off: the key is absent
JSON = {"type": _json, "metavar": "JSON"}

VERBS = {
    "rootsys": Verb("build a root system", (
        ("--type", "type", REQUIRED),
        ("--weyl", "weyl_words", {**SWITCH, "help": "include Weyl group words"}),
    ), lambda doc: (_get(doc, "type", _text), "weyl_words" in doc), rootsys_payload, ("rootsys",)),
    "chevalley": Verb("integral Chevalley basis and bracket table", (
        ("--type", "type", REQUIRED),
        ("--center", "center", {"type": _bounded_int(0, MAX_CENTER_RANK), "default": 0,
                                "help": "rank of the abelian center (at most "
                                        f"{MAX_CENTER_RANK})"}),
        ("--verify", "verification", {**SWITCH, "help": "attach the verification report"}),
    ), lambda doc: (_get(doc, "type", _text), _get(doc, "center", _integer),
                    "verification" in doc), chevalley_payload, ("chevalley",)),
    "chi": Verb("characteristic morphism", (
        ("--matrix", "matrix", {**JSON, "help": "JSON matrix of rationals (inline or @file)"}),
        ("--torus-point", "point", {**JSON, "help": "JSON list of rationals (inline or @file)"}),
        ("--type", "type", {"help": "torus type for --torus-point (e.g. gl3, B2)"}),
    ), read_chi, chi_payload, ("chi",)),
    "degree": Verb("arithmetic degree of a metrized line bundle", (
        ("--field", "field", REQUIRED),
        ("--ideal", "ideal_hnf", {**REQUIRED, **JSON, "help": "JSON list of generators"}),
        ("--metrics", "metrics", {**REQUIRED, **JSON, "help": "JSON list of positive reals"}),
    ), read_degree, degree_payload, ("degree",)),
    "slope": Verb("slope of an arithmetic torsor", (
        ("--torsor", "document", {**REQUIRED, "type": _json_object, "metavar": "FILE",
                                  "help": "JSON file describing the torsor"}),
        ("--char", "char_power", {"type": int, "default": 1,
                                  "help": "power of the determinant character"}),
    ), lambda doc: (*read_torsor(doc), _get(doc, "char_power", _integer)), slope_payload,
        ("slope",)),
    "curve": Verb("spectral or cameral characteristic curve", (
        ("--matrix", "matrix", {**REQUIRED, **JSON, "help": "JSON matrix of field elements"}),
        ("--field", "field", {"default": "Q"}),
        ("--twist", "twist_hnf", {**JSON, "help": "JSON list of ideal generators"}),
        ("--cameral", "kind", {"action": "store_const", "const": "cameral"}),
        ("--fibers", "fiber_bound", {"type": _bounded_int(None, MAX_FIBER_BOUND),
                                     "metavar": "PMAX", "help": "report ramified primes below "
                                     f"PMAX (at most {MAX_FIBER_BOUND})"}),
    ), read_curve, curve_payload, ("spectral", "cameral")),
    "verify": Verb("re-check the JSON output of any verb", (
        ("--input", "document", {**REQUIRED, "type": _json_object, "metavar": "FILE",
                                 "help": "file with JSON from another verb"}),
    ), lambda doc: (doc,), verify_payload),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every `run` shares it."""
    parser = argparse.ArgumentParser(prog="arithcurves",
                                     description="Exact Lie-theoretic and arithmetic "
                                                 "curve computations with JSON output.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for option, key, keywords in verb.flags:
            p.add_argument(option, dest=key, **keywords)
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    flags = vars(parser.parse_args(argv))
    name = flags.pop("verb")
    verb = VERBS[name]
    # the document is the file that --input / --torsor names, else the flags alone
    document = flags.pop("document", None)
    doc = {"kind": name} if document is None else document
    doc.update((key, value) for key, value in flags.items() if value is not None)
    try:
        try:
            payload = verb.build(*verb.read(doc))
        except (MalformedInput, UnsupportedType) as exc:
            if document is not None:
                raise
            option = next((o for o, key, _ in verb.flags if key == getattr(exc, "key", None)),
                          None)
            parser.error(f"argument {option}: {exc}" if option else str(exc))
    except ArithCurvesError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         indent=2), file=out)
        return 1
    print(json.dumps(payload, indent=2), file=out)
    return 0 if payload.get("ok", True) else 1      # only `verify` payloads carry "ok"


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does): stop quietly, with
        # the status of a process ended by SIGPIPE.  Point stdout at devnull so
        # the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
