"""JSON in and out: canonical string forms for exact and archimedean scalars in
payloads, the emitter that prints them, and the readers and argparse types that
load the CLI's arguments.

`json` is imported only where JSON is read, compared or quoted in a message, or a
string needs escaping, so a verb that reads no JSON never loads it."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable

from .errors import ArithCurvesError, MalformedInput

if TYPE_CHECKING:
    from fractions import Fraction

# The digits of any one integer the CLI reads or prints: each of a literal's numerator
# and denominator before reduction, and each integer in a result.  `cli.main` sets
# Python's int-to-str limit to it, so every "p/q" that `rat_str` prints reads back.
MAX_LITERAL_DIGITS = 4300
# an exponent of this many digits (its first is not 0) is past the limit, whatever its sign
_EXPONENT_DIGITS = len(str(MAX_LITERAL_DIGITS)) + 1

# compiled on first use (see `_match_rational`): compiling it at import costs 0.5 ms
_RATIONAL = (r"\s*([+-]?)(?=\.?[0-9])([0-9]*)"
             r"(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([+-]?)0*([0-9]+))?)\s*")


def _match_rational(text: str):
    """re.fullmatch(_RATIONAL, text).  The first call compiles the pattern and rebinds
    this name to its `fullmatch`: later calls skip the lookup in re's cache."""
    global _match_rational
    _match_rational = re.compile(_RATIONAL).fullmatch
    return _match_rational(text)


def _fraction(*args) -> Fraction:
    """Fraction(*args).  The first call imports `fractions` (and its `decimal`) and
    rebinds this name to the class: later calls pay no import."""
    global _fraction
    from fractions import Fraction as _fraction
    return _fraction(*args)


def parse_rational(text: str) -> Fraction:
    """A literal "p", "p/q" or "-1.5e-3" whose numerator and denominator before reduction
    each have at most MAX_LITERAL_DIGITS digits, counted on the text before any int is built."""
    m = _match_rational(text)
    if m is None:
        raise MalformedInput(f"{text!r} is not a rational literal")
    sign, digits, den, frac, exp_sign, exp = m.groups("")
    # value = (digits frac) / 10^scale; an exponent is read to _EXPONENT_DIGITS at most
    scale = len(frac) - int(exp_sign + exp[:_EXPONENT_DIGITS]) if exp else len(frac)
    if max(len(digits + frac) - min(scale, 0), len(den) or max(scale, 0) + 1) > MAX_LITERAL_DIGITS:
        raise MalformedInput(f"a rational literal's numerator or denominator has more than "
                             f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits")
    try:
        num = int(sign + (digits + frac or "0"))
        if den:
            return _fraction(num, int(den))
    except ZeroDivisionError as exc:
        raise MalformedInput(f"{text!r} is not a rational literal: {exc}") from None
    except ValueError as exc:   # a caller's int-to-str limit below MAX_LITERAL_DIGITS
        raise MalformedInput(f"a literal is past Python's int-string limit: {exc}") from None
    return _fraction(num, 10 ** scale) if scale > 0 else _fraction(num * 10 ** -scale)


def rat_str(q: Fraction | int) -> str:
    """Canonical "p" / "p/q" form of an exact rational."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:          # past Python's int-to-str limit, which `cli.main` pins
        raise ArithCurvesError(f"a result has an integer of more than MAX_LITERAL_DIGITS = "
                               f"{MAX_LITERAL_DIGITS} digits") from None


def real_str(x: float) -> str:
    """17 significant digits: enough to round-trip a double, stable across runs."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# output: json.dumps(value, indent=2), byte for byte, without json's pure-Python
# encoder, which an indent selects

def dumps(value) -> str:
    """json.dumps(value, indent=2) for a value whose dict keys are strings; a list of
    plain ints, such as a dense bracket row, is written in one join."""
    return _dumps(value, "\n")


def _dumps(value, pad: str) -> str:
    """value at the indentation pad ("\n" and two spaces a level), in json's order of
    type tests, so bools and int subclasses print as json prints them.  A string is
    written as it is when it has nothing to escape, else by json's own escaper."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return '"' + value + '"'
        from json.encoder import encode_basestring_ascii
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # the first item alone turns away a list of strings or records cheaply
        if type(value[0]) is int and all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = [_dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_dumps(key, pad) + ": " + _dumps(item, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _quote(value) -> str:
    """A JSON value as json.dumps writes it on one line, to quote it in a message."""
    import json
    return json.dumps(value)


# ---------------------------------------------------------------------------
# readers: one value of a document (a dict keyed as a verb's output) -> a
# checked input.  A reader takes (value, key, *args) and raises MalformedInput.

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
            raise MalformedInput(f"{key} must be {what}, got {_quote(value)}") from None
    return read


_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def _decimal(text: str) -> int:
    """An optional sign and ASCII digits, as int(text); int() alone would also
    take "1_0" and non-ASCII digits, such as the Arabic-Indic three."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _int(value) -> int:
    """An integer from a JSON integer, an integral number or a decimal string,
    refusing what int() would misread: a bool, a truncated 1.9, or "1_0"."""
    if isinstance(value, str):
        return _decimal(value)
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _exact(value) -> Fraction:
    """A string by parse_rational, a JSON number as the exact value it stores; no bool."""
    if isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    return parse_rational(value) if isinstance(value, str) else _fraction(value)


_text = _scalar(str.strip, "a string")         # str.strip raises TypeError on a non-string
_integer = _scalar(_int, "an integer")
# parse_rational's own MalformedInput says what is wrong with a string; JSON's 0.1 is the
# double nearest 1/10, and a real is that exact value rounded once, correctly
_rational = _scalar(_exact, "a rational")
_real = _scalar(lambda x: float(_exact(x)), "a real")


def _list(value, key: str, entry: Callable, length: int | None = None, what: str = "values"):
    """A JSON list read by entry(x, key), of `length` items when that is set."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise MalformedInput(f"{key} must be a JSON list of {size}{what}, got {_quote(value)}")
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


# ---------------------------------------------------------------------------
# argparse types; argparse reports an ArgumentTypeError's message as it is

def _argument_error(message: str) -> Exception:
    import argparse      # loaded already wherever argparse calls these types
    return argparse.ArgumentTypeError(message)


def _json(text: str):
    """argparse type: a JSON value given inline or as @path."""
    import json
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, parse_int=_json_int)
    except (OSError, ValueError, RecursionError, MalformedInput) as exc:
        raise _argument_error(f"cannot read JSON: {exc}") from None


def _json_int(digits: str) -> int:
    """json's reader of an integer: past MAX_LITERAL_DIGITS characters, by the literal rule."""
    return int(digits) if len(digits) <= MAX_LITERAL_DIGITS else parse_rational(digits).numerator


def _json_object(path: str) -> dict:
    """argparse type: the JSON object held by a file."""
    doc = _json("@" + path)
    if not isinstance(doc, dict):
        raise _argument_error("must hold a JSON object")
    return doc


def _bounded_int(low: int, high: int) -> Callable:
    """argparse type: a decimal int in low..high."""
    def integer(text: str) -> int:
        value = _decimal(text)
        if not low <= value <= high:
            raise _argument_error(f"must lie in {low}..{high}, got {value}")
        return value
    return integer
