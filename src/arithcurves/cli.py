"""Command-line interface: every computation behind one verb, JSON in and out.

Exit codes: 0 success, 1 domain error (a JSON error object goes to stdout),
2 usage error (message on stderr, no JSON).  Output is deterministic: dict
keys are emitted in construction order, exact rationals as "p/q" strings and
archimedean reals with 17 significant digits.

VERBS gives each verb its flags and the module `cli_<verb>` that holds its
reader (a document keyed as the verb's output -> the builder's checked inputs)
and its payload builder; `verify`, which rebuilds any verb, lives here.  The
parsed flags form the document; ``verify`` passes a verb's output through the
same reader and builder and diffs the payloads.  Input a reader rejects
(MalformedInput) is a usage error from a command-line value and a domain error
from a document file (``verify --input``, ``slope --torsor``).

A process compiles this dispatcher and the one verb module it runs, which
imports only the library layers that verb uses: a usage error that argparse
catches loads none of them, and no verb loads numpy.  argparse likewise takes
the flags of the invoked verb alone.  No verb module imports this one: run as
``python -m arithcurves.cli`` it is ``__main__``, and an import would compile it
a second time.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Callable, NamedTuple

from .errors import (MAX_CENTER_RANK, MAX_FIBER_BOUND, ArithCurvesError, MalformedInput,
                     UnsupportedType)
from .jsonutil import _bounded_int, _decimal, _json, _json_object, dumps, parse_rational


def verify_payload(doc: dict) -> dict:
    """Rebuild a verb's output from its own keys and diff; report on a raw torsor."""
    kind = doc.get("kind")
    if kind == "verify":
        return {"kind": "verify", "input_kind": "verify", "ok": True, "mismatches": []}
    if kind is None and {"field", "rank", "ideals", "metrics"} <= set(doc):
        from .cli_slope import torsor_report
        return torsor_report(doc)
    name = next((n for n, v in VERBS.items() if kind in v.kinds), None)
    if name is None:
        raise ArithCurvesError(f"nothing to verify for kind {kind!r}")
    read, build = handlers(name)
    rebuilt = build(*read(doc))
    reals = VERBS[name].reals
    mismatches = [{"key": key, "status": "differs" if key in doc else "missing"}
                  for key in rebuilt if key not in doc
                  or _differs(doc[key], rebuilt[key], key in reals)]
    return {"kind": "verify", "input_kind": kind, "ok": not mismatches,
            "mismatches": mismatches}


def _differs(a, b, real: bool) -> bool:
    """Whether a document's value a differs from the rebuilt b.  An archimedean real (a
    key of the verb's `reals`) is a decimal literal within 1e-9 of b, relative or,
    below 1, absolute, so "nan" and "inf" differ; any other value must be the same
    JSON value, types included: 2.0 is not 2, nor 0 false, and an exact rational
    string must match digit for digit."""
    if real and isinstance(a, str):
        try:
            fa, fb = float(parse_rational(a)), float(b)
        except (MalformedInput, OverflowError):
            return True
        return abs(fa - fb) > 1e-9 * max(1.0, abs(fa), abs(fb))
    import json
    return json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


class Verb(NamedTuple):
    """A verb's help and flags.  Its reader and builder are `read_<verb>` and
    `<verb>_payload` in the module `cli_<verb>`, loaded when the verb is dispatched."""
    help: str
    flags: tuple        # (option, document key, argparse keywords)
    kinds: tuple = ()   # output kinds that `verify` rebuilds through this verb
    reals: tuple = ()   # output keys of archimedean reals, which `verify` reads within 1e-9


def handlers(name: str) -> tuple[Callable, Callable]:
    """A verb's reader (document -> the builder's checked inputs) and builder (checked
    inputs -> payload)."""
    if name == "verify":
        return (lambda doc: (doc,)), verify_payload
    # the import statement's machinery, which `-X importtime` reports (importlib.import_module
    # bypasses it), with the verb's library imports nested under its module
    module = __import__(f"{__package__}.cli_{name}", fromlist=[f"read_{name}"])
    return getattr(module, f"read_{name}"), getattr(module, f"{name}_payload")


REQUIRED = {"required": True}
SWITCH = {"action": "store_true", "default": None}      # off: the key is absent
JSON = {"type": _json, "metavar": "JSON"}

VERBS = {
    "rootsys": Verb("build a root system", (
        ("--type", "type", REQUIRED),
        ("--weyl", "weyl_words", {**SWITCH, "help": "include Weyl group words"}),
    ), ("rootsys",)),
    "chevalley": Verb("integral Chevalley basis and bracket table", (
        ("--type", "type", REQUIRED),
        ("--center", "center", {"type": _bounded_int(0, MAX_CENTER_RANK), "default": 0,
                                "help": "rank of the abelian center (at most "
                                        f"{MAX_CENTER_RANK})"}),
        ("--verify", "verification", {**SWITCH, "help": "attach the verification report"}),
    ), ("chevalley",)),
    "chi": Verb("characteristic morphism", (
        ("--matrix", "matrix", {**JSON, "help": "JSON matrix of rationals (inline or @file)"}),
        ("--torus-point", "point", {**JSON, "help": "JSON list of rationals (inline or @file)"}),
        ("--type", "type", {"help": "torus type for --torus-point (e.g. gl3, B2)"}),
    ), ("chi",)),
    "degree": Verb("arithmetic degree of a metrized line bundle", (
        ("--field", "field", REQUIRED),
        ("--ideal", "ideal_hnf", {**REQUIRED, **JSON, "help": "JSON list of generators"}),
        ("--metrics", "metrics", {**REQUIRED, **JSON, "help": "JSON list of positive reals"}),
    ), ("degree",), ("degree",)),
    "slope": Verb("slope of an arithmetic torsor", (
        ("--torsor", "document", {**REQUIRED, "type": _json_object, "metavar": "FILE",
                                  "help": "JSON file describing the torsor"}),
        ("--char", "char_power", {"type": int, "default": 1,
                                  "help": "power of the determinant character"}),
    ), ("slope",), ("slope",)),
    "curve": Verb("spectral or cameral characteristic curve", (
        ("--matrix", "matrix", {**REQUIRED, **JSON, "help": "JSON matrix of field elements"}),
        ("--field", "field", {"default": "Q"}),
        ("--twist", "twist_hnf", {**JSON, "help": "JSON list of ideal generators"}),
        ("--cameral", "kind", {"action": "store_const", "const": "cameral"}),
        ("--fibers", "fiber_bound", {"type": _bounded_int(0, MAX_FIBER_BOUND),
                                     "metavar": "PMAX", "help": "report ramified primes below "
                                     f"PMAX (at most {MAX_FIBER_BOUND})"}),
    ), ("spectral", "cameral")),
    "verify": Verb("re-check the JSON output of any verb", (
        ("--input", "document", {**REQUIRED, "type": _json_object, "metavar": "FILE",
                                 "help": "file with JSON from another verb"}),
    )),
}


class _VerbParser(argparse.ArgumentParser):
    """A verb's subparser.  It adds the verb's flags when argparse first hands it the
    command line, so a process adds the flags of the verb it runs and no other."""

    def __init__(self, *, flags: tuple = (), **kwargs):
        super().__init__(**kwargs)
        # a flag of type int reads an optional sign and ASCII digits alone, as the
        # document readers do; argparse names the type "int" in its messages
        self.register("type", int, _decimal)
        self.pending_flags = flags

    def parse_known_args(self, args=None, namespace=None):
        for option, key, keywords in self.pending_flags:
            self.add_argument(option, dest=key, **keywords)
        self.pending_flags = ()
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every `run` shares it, and each verb's
    flags are added once, on the verb's first `run`."""
    parser = argparse.ArgumentParser(prog="arithcurves",
                                     description="Exact Lie-theoretic and arithmetic "
                                                 "curve computations with JSON output.")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)
    for name, verb in VERBS.items():
        sub.add_parser(name, help=verb.help, flags=verb.flags)
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    flags = vars(parser.parse_args(argv))
    name = flags.pop("verb")
    verb = VERBS[name]
    read, build = handlers(name)
    # the document is the file that --input / --torsor names, else the flags alone
    document = flags.pop("document", None)
    doc = {"kind": name} if document is None else document
    doc.update((key, value) for key, value in flags.items() if value is not None)
    try:
        try:
            payload = build(*read(doc))
        except (MalformedInput, UnsupportedType) as exc:
            if document is not None:
                raise
            option = next((o for o, key, _ in verb.flags if key == getattr(exc, "key", None)),
                          None)
            parser.error(f"argument {option}: {exc}" if option else str(exc))
    except ArithCurvesError as exc:
        print(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), file=out)
        return 1
    print(dumps(payload), file=out)
    return 0 if payload.get("ok", True) else 1      # only `verify` payloads carry "ok"


def main() -> None:
    """Run one verb on the command line and end the process with its exit code."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does): stop quietly, with
        # the status of a process ended by SIGPIPE.  Point stdout at devnull so
        # the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    finally:
        # The process ends next (argparse's usage exit passes here too): move every
        # object to the permanent generation, which the interpreter's shutdown
        # collections skip, so the module graph is not freed cycle by cycle.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
