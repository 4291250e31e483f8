"""Command-line interface: every computation behind one verb, JSON in and out.

Exit codes: 0 success, 1 domain error (a JSON error object goes to stdout),
2 usage error (message on stderr, no JSON).  Output is deterministic: dict
keys are emitted in construction order, exact rationals as "p/q" strings and
archimedean reals with 17 significant digits.

The ``verify`` verb accepts the JSON produced by any verb, re-runs the same
computation from the embedded inputs and diffs the payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

# torsor (and with it numpy) is imported only by `slope` and by `verify` on a
# torsor description, so every other verb starts without numpy.
from . import arakelov, chevalley, charmorph, curve, rootsys
from .errors import ArithCurvesError, UnsupportedType
from .jsonutil import rat_str, real_str


# ---------------------------------------------------------------------------
# payload builders (shared by the verbs and by `verify`)

def rootsys_payload(type_token: str, include_weyl: bool) -> dict:
    rs = rootsys.build_root_system(rootsys.CartanType.parse(type_token))
    w = rootsys.weyl_group(rs)
    payload = {"kind": "rootsys", **rootsys.root_system_json(rs),
               "count": len(rs.roots), "weyl_order": len(w)}
    if include_weyl:
        payload["weyl_words"] = [list(el.word) for el in w]
    return payload


def chevalley_payload(type_token: str, center: int, with_verify: bool) -> dict:
    rs = rootsys.build_root_system(rootsys.CartanType.parse(type_token))
    type_token = str(rs.cartan_type)
    L = chevalley.build_chevalley_basis(rs, center_rank=center)
    records = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            entries = dict(L.table.get((i, j), ()))
            if not entries:
                continue
            dense = [int(entries.get(k, 0)) for k in range(L.dim)]
            records.append({"x": L.label(i), "y": L.label(j), "result": dense})
    payload = {"kind": "chevalley", "type": type_token, "center": center,
               "dim": L.dim, "basis": [L.label(i) for i in range(L.dim)],
               "bracket": records}
    if with_verify:
        rep = chevalley.verify_chevalley(L)
        payload["verification"] = {
            "ok": rep.ok, "antisymmetric": rep.antisymmetric,
            "integral": rep.integral, "magnitudes_ok": rep.magnitudes_ok,
            "cartan_action_ok": rep.cartan_action_ok, "coroot_ok": rep.coroot_ok,
            "opposite_sign_ok": rep.opposite_sign_ok,
            "literal_paper_sign_count": rep.literal_paper_sign_count,
            "pair_count": rep.pair_count,
            "string_identity_failures": len(rep.string_identity_failures),
            "jacobi_ok": rep.jacobi_ok, "jacobi_triples": rep.jacobi_triples,
        }
    return payload


def chi_matrix_payload(matrix_strings: list[list[str]]) -> dict:
    mat = [[Fraction(x) for x in row] for row in matrix_strings]
    vals = charmorph.chi_gl(mat)
    return {"kind": "chi", "type": f"gl_{len(mat)}",
            "matrix": [[rat_str(x) for x in row] for row in mat],
            "invariants": [rat_str(v) for v in vals]}


def chi_torus_payload(type_token: str, point_strings: list[str]) -> dict:
    point = [Fraction(x) for x in point_strings]
    vals = charmorph.chi_torus(type_token, point)
    real = charmorph.realization(type_token)
    token = real.token if not real.token.startswith("gl") else f"gl_{real.token[2:]}"
    return {"kind": "chi", "type": token, "point": [rat_str(x) for x in point],
            "invariants": [rat_str(v) for v in vals]}


def _ideal_from_spec(K: arakelov.NumberField, spec) -> arakelov.FractionalIdeal:
    """Generator strings, or HNF rows (lists) emitted by this CLI; else a domain error."""
    if not isinstance(spec, list):
        raise ArithCurvesError(f"an ideal must be a JSON list of generators, "
                               f"got {json.dumps(spec)}")
    elements = []
    for item in spec:
        if isinstance(item, list):
            if len(item) != K.degree:
                raise ArithCurvesError(f"HNF rows over {K.name} must have length "
                                       f"{K.degree}, got {json.dumps(item)}")
            elements.append(K.element(*map(_rational, item)))
        else:
            elements.append(arakelov.parse_element(K, str(item)))
    return arakelov.FractionalIdeal.from_elements(K, elements)


def _rational(x) -> Fraction:
    """A rational literal; else a domain error."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ArithCurvesError(f"{json.dumps(x)} is not a rational") from None


def _integer(value, what: str) -> int:
    """An integer read from a document; else a domain error."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ArithCurvesError(f"{what} must be an integer, got {json.dumps(value)}") from None


def _reals(value, what: str) -> tuple[float, ...]:
    """A JSON list of reals (numbers or numeric strings); else a domain error."""
    try:
        if isinstance(value, list):
            return tuple(float(x) for x in value)
    except (TypeError, ValueError):
        pass
    raise ArithCurvesError(f"{what} must be a JSON list of reals, got {json.dumps(value)}")


def degree_payload(field_name: str, ideal_spec, metric_strings: list) -> dict:
    K = arakelov.parse_field(field_name)
    ideal = _ideal_from_spec(K, ideal_spec)
    metrics = _reals(metric_strings, "metrics")
    bundle = arakelov.MetrizedLineBundle(ideal, metrics)
    deg = arakelov.arithmetic_degree(K, bundle)
    return {"kind": "degree", "field": K.name, "ideal_hnf": ideal.hnf_strings(),
            "ideal_norm": rat_str(ideal.norm()),
            "metrics": [real_str(m) for m in metrics], "degree": real_str(deg)}


def _gram_witness(entry, kind: str):
    """Group element whose pullback of the canonical metric has this Gram matrix."""
    import numpy as np
    if kind == "real":
        gram = np.array([[float(x) for x in row] for row in entry], dtype=float)
    else:
        gram = np.array([[complex(float(x[0]), float(x[1])) for x in row] for row in entry])
    try:
        return np.linalg.cholesky(gram).conj().T
    except np.linalg.LinAlgError as exc:
        raise ArithCurvesError("metric Gram matrix must be positive definite") from exc


def _place_metrics(K: arakelov.NumberField, n: int, entries) -> tuple[list[str], list]:
    """Place kinds (real places first) and the witnessed metric given at each."""
    from . import torsor
    r1, r2 = K.signature
    kinds = ["real"] * r1 + ["complex"] * r2
    metrics = [torsor.witnessed_metric(torsor.canonical_form(n, kind),
                                       _gram_witness(entry, kind))
               for kind, entry in zip(kinds, entries)]
    return kinds, metrics


def _emit_place_matrix(mat, kind: str):
    if kind == "real":
        return [[real_str(x) for x in row] for row in mat.tolist()]
    return [[[real_str(x.real), real_str(x.imag)] for x in row] for row in mat.tolist()]


def slope_payload(torsor_spec: dict, k: int) -> dict:
    from . import torsor
    torsor_spec = _Document(torsor_spec)
    K = arakelov.parse_field(torsor_spec["field"])
    n = _integer(torsor_spec["rank"], "rank")
    ideals = tuple(_ideal_from_spec(K, spec) for spec in torsor_spec["ideals"])
    kinds, metrics = _place_metrics(K, n, torsor_spec["metrics"])
    T = torsor.ArithmeticTorsor(field=K, rank=n, ideals=ideals, metrics=tuple(metrics))
    det_bundle = torsor.determinant_bundle(T)
    value = torsor.slope(T, k)
    return {"kind": "slope", "field": K.name, "rank": n, "char_power": k,
            "ideals": [i.hnf_strings() for i in ideals],
            "metrics": [_emit_place_matrix(m.std, kind) for kind, m in zip(kinds, metrics)],
            "det_ideal_hnf": det_bundle.ideal.hnf_strings(),
            "gram_dets": [real_str(r * r) for r in det_bundle.metrics],
            "slope": real_str(value)}


def curve_payload(field_name: str, matrix_spec, twist_spec, cameral: bool,
                  fiber_bound: int | None) -> dict:
    K = arakelov.parse_field(field_name)
    entries = [[arakelov.parse_element(K, str(x)) for x in row] for row in matrix_spec]
    twist = _ideal_from_spec(K, twist_spec) if twist_spec is not None else None
    phi = curve.higgs_field(K, entries, twist=twist)
    C = curve.cameral_curve(phi) if cameral else curve.spectral_curve(phi)
    payload = {"kind": C.kind, "field": K.name, "n": C.n,
               "matrix": [[str(x) for x in row] for row in entries],
               "twist_hnf": phi.twist.hnf_strings(),
               "poly": [str(c) for c in C.poly],
               "char_point": [str(c) for c in C.certificate.values],
               "integrality": [{"power": kk, "coords": [str(c) for c in coords]}
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
        primes = curve.ramified_primes(replace(C, kind="spectral"), fiber_bound)
        payload["ramified"] = [{"p": p, "pattern": [list(fe) for fe in pat]}
                               for p, pat in primes if pat is not None]
        skipped = [{"p": p, "reason": "divides a coefficient denominator: the characteristic "
                                      "polynomial has no reduction mod p"}
                   for p, pat in primes if pat is None]
        if skipped:
            payload["skipped"] = skipped
    return payload


# ---------------------------------------------------------------------------
# verify: rebuild from embedded inputs and diff

class _Document(dict):
    """A document read by `verify`: a missing key is a domain error."""

    def __missing__(self, key):
        raise ArithCurvesError(f"{self.get('kind', 'torsor')} document lacks the key {key!r}")


def rebuild_payload(doc: dict) -> dict | None:
    doc = _Document(doc)
    kind = doc.get("kind")
    if kind == "rootsys":
        return rootsys_payload(doc["type"], "weyl_words" in doc)
    if kind == "chevalley":
        return chevalley_payload(doc["type"], _integer(doc["center"], "center"),
                                 "verification" in doc)
    if kind == "chi":
        if "matrix" in doc:
            return chi_matrix_payload(doc["matrix"])
        return chi_torus_payload(doc["type"], doc["point"])
    if kind == "degree":
        return degree_payload(doc["field"], doc["ideal_hnf"], doc["metrics"])
    if kind == "slope":
        spec = {"field": doc["field"], "rank": doc["rank"],
                "ideals": doc["ideals"], "metrics": doc["metrics"]}
        return slope_payload(spec, _integer(doc["char_power"], "char_power"))
    if kind in ("spectral", "cameral"):
        bound = doc.get("fiber_bound")
        return curve_payload(doc["field"], doc["matrix"],
                             doc.get("twist_hnf"), kind == "cameral",
                             None if bound is None else _integer(bound, "fiber_bound"))
    return None


def verify_payload(doc: dict) -> dict:
    kind = doc.get("kind")
    if kind == "verify":
        return {"kind": "verify", "input_kind": "verify", "ok": True, "mismatches": []}
    if kind is None and {"field", "rank", "ideals", "metrics"} <= set(doc):
        return verify_torsor_payload(doc)
    rebuilt = rebuild_payload(doc)
    if rebuilt is None:
        raise ArithCurvesError(f"nothing to verify for kind {kind!r}")
    mismatches = []
    for key in rebuilt:
        if key not in doc:
            mismatches.append({"key": key, "status": "missing"})
        elif _differs(doc[key], rebuilt[key]):
            mismatches.append({"key": key, "status": "differs"})
    return {"kind": "verify", "input_kind": kind, "ok": not mismatches,
            "mismatches": mismatches}


def verify_torsor_payload(doc: dict) -> dict:
    """Per-clause compatibility reports for a raw torsor description."""
    K = arakelov.parse_field(doc["field"])
    n = _integer(doc["rank"], "rank")
    for spec in doc["ideals"]:
        _ideal_from_spec(K, spec)
    _, metrics = _place_metrics(K, n, doc["metrics"])
    reports = [cm.verify().as_dict() for cm in metrics]
    return {"kind": "verify", "input_kind": "torsor",
            "ok": all(r["ok"] for r in reports), "reports": reports}


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
# argument plumbing

def _json_arg(parser: argparse.ArgumentParser, text: str, what: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            parser.error(f"cannot read {what} file: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"{what} is not valid JSON: {exc}")


def _rationals(parser: argparse.ArgumentParser, value, what: str) -> list[Fraction]:
    """A JSON list of rational literals; any other shape or literal is a usage error."""
    if not isinstance(value, list):
        parser.error(f"{what} must be a JSON list of rationals")
    out = []
    for x in value:
        try:
            out.append(Fraction(x))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            parser.error(f"{what} holds {json.dumps(x)}, which is not a rational")
    return out


def _rational_matrix(parser: argparse.ArgumentParser, value, what: str):
    """A non-empty JSON list of rows of rationals; rows need not be square here."""
    if not isinstance(value, list) or not value:
        parser.error(f"{what} must be a non-empty JSON list of rows")
    return [_rationals(parser, row, what) for row in value]


def _center_rank(text: str) -> int:
    rank = int(text)
    if rank < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {rank}")
    if rank > chevalley.MAX_CENTER_RANK:
        raise argparse.ArgumentTypeError(f"must be <= {chevalley.MAX_CENTER_RANK}, got {rank}")
    return rank


def _fiber_bound(text: str) -> int:
    bound = int(text)
    if bound > curve.MAX_FIBER_BOUND:
        raise argparse.ArgumentTypeError(f"must be <= {curve.MAX_FIBER_BOUND}, got {bound}")
    return bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arithcurves",
                                     description="Exact Lie-theoretic and arithmetic "
                                                 "curve computations with JSON output.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("rootsys", help="build a root system")
    p.add_argument("--type", required=True)
    p.add_argument("--weyl", action="store_true", help="include Weyl group words")

    p = sub.add_parser("chevalley", help="integral Chevalley basis and bracket table")
    p.add_argument("--type", required=True)
    p.add_argument("--center", type=_center_rank, default=0,
                   help=f"rank of the abelian center (at most {chevalley.MAX_CENTER_RANK})")
    p.add_argument("--verify", action="store_true", help="attach the verification report")

    p = sub.add_parser("chi", help="characteristic morphism")
    p.add_argument("--matrix", help="JSON matrix of rationals (inline or @file)")
    p.add_argument("--torus-point", help="JSON list of rationals (inline or @file)")
    p.add_argument("--type", help="torus type for --torus-point (e.g. gl3, B2)")

    p = sub.add_parser("degree", help="arithmetic degree of a metrized line bundle")
    p.add_argument("--field", required=True)
    p.add_argument("--ideal", required=True, help="JSON list of generators")
    p.add_argument("--metrics", required=True, help="JSON list of positive reals")

    p = sub.add_parser("slope", help="slope of an arithmetic torsor")
    p.add_argument("--torsor", required=True, help="JSON file describing the torsor")
    p.add_argument("--char", type=int, default=1, help="power of the determinant character")

    p = sub.add_parser("curve", help="spectral or cameral characteristic curve")
    p.add_argument("--matrix", required=True, help="JSON matrix of field elements")
    p.add_argument("--field", default="Q")
    p.add_argument("--twist", help="JSON list of ideal generators")
    p.add_argument("--cameral", action="store_true")
    p.add_argument("--fibers", type=_fiber_bound, metavar="PMAX",
                   help=f"report ramified primes below PMAX (at most {curve.MAX_FIBER_BOUND})")

    p = sub.add_parser("verify", help="re-check the JSON output of any verb")
    p.add_argument("--input", required=True, help="file with JSON from another verb")
    return parser


def _verb_payload(parser: argparse.ArgumentParser, args) -> dict:
    """The payload of every verb but `verify`, from parsed arguments."""
    if args.verb == "rootsys":
        return rootsys_payload(args.type, args.weyl)
    if args.verb == "chevalley":
        return chevalley_payload(args.type, args.center, args.verify)
    if args.verb == "chi":
        if (args.matrix is None) == (args.torus_point is None):
            parser.error("chi needs exactly one of --matrix or --torus-point")
        if args.matrix is not None:
            return chi_matrix_payload(_rational_matrix(
                parser, _json_arg(parser, args.matrix, "--matrix"), "--matrix"))
        if not args.type:
            parser.error("--torus-point requires --type")
        return chi_torus_payload(args.type, _rationals(
            parser, _json_arg(parser, args.torus_point, "--torus-point"), "--torus-point"))
    if args.verb == "degree":
        return degree_payload(args.field, _json_arg(parser, args.ideal, "--ideal"),
                              _json_arg(parser, args.metrics, "--metrics"))
    if args.verb == "slope":
        spec = _json_arg(parser, "@" + args.torsor, "--torsor")
        if not isinstance(spec, dict):
            parser.error("--torsor must hold a JSON object")
        return slope_payload(spec, args.char)
    twist = _json_arg(parser, args.twist, "--twist") if args.twist else None
    return curve_payload(args.field, _json_arg(parser, args.matrix, "--matrix"),
                         twist, args.cameral, args.fibers)


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.verb == "verify":
            doc = _json_arg(parser, "@" + args.input, "--input")
            if not isinstance(doc, dict):
                parser.error("--input must hold a JSON object")
            payload = verify_payload(doc)
            print(json.dumps(payload, indent=2), file=out)
            return 0 if payload["ok"] else 1
        try:
            payload = _verb_payload(parser, args)
        except UnsupportedType as exc:
            parser.error(str(exc))
    except ArithCurvesError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         indent=2), file=out)
        return 1

    print(json.dumps(payload, indent=2), file=out)
    return 0


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
