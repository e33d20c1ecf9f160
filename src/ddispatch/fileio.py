"""File helpers: atomic writes, versioned JSON documents, and the rules that
report a malformed document as a ValidationError (unreadable files and
malformed JSON propagate as they are)."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .errors import ValidationError

FORMAT_VERSION = 1


def atomic_write_text(path, text: str):
    """Write text to ``path`` via a temporary file and rename.

    Readers never observe a half-written artifact; on failure the original
    file (if any) is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, doc: dict):
    """Write ``doc`` as compact JSON with sorted keys (no indent, which
    would force the pure-Python encoder: twice as slow on a family)."""
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@contextlib.contextmanager
def malformed(what: str):
    """Report a missing field, or a value of the wrong type or range, met
    while reading ``what`` as a :class:`ValidationError`."""
    try:
        yield
    except (ValidationError, json.JSONDecodeError, UnicodeDecodeError):
        raise
    except KeyError as exc:
        raise ValidationError(f"bad {what}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {what}: {exc}") from None


def json_object(value, what: str) -> dict:
    """``value`` itself, checked to be a JSON object."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def document(doc, payload: str) -> dict:
    """``doc`` itself, checked to be a ``payload`` document in this format
    version; a document that states no version is read as this one."""
    if not isinstance(doc, dict) or doc.get("payload") != payload:
        raise ValidationError(f"not a {payload} document")
    if field(doc, "format_version", integer, FORMAT_VERSION) != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {doc['format_version']!r}")
    return doc


def field(doc: dict, key: str, cast, default):
    """``cast(doc[key])``, or ``default`` when ``key`` is absent."""
    if key not in doc:
        return default
    with malformed(f"field {key!r}"):
        return cast(doc[key])


def integer(value) -> int:
    """A whole number as an int; ``1.5``, ``true`` and ``"1"`` are rejected,
    not truncated or read as 1."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def finite(value) -> float:
    """``value`` as a float; NaN, infinities, booleans and strings are
    rejected."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def numbers(value, ndim: int) -> np.ndarray:
    """A JSON array nested ``ndim`` deep with a finite number at every leaf,
    as a float array.  ``true``, ``"1.5"`` and ``null`` are rejected, not
    read as 1.0, 1.5 or NaN, and so are NaN and the infinities."""
    leaves = value
    for _ in range(ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if isinstance(value, list) and {int, float}.issuperset(map(type, leaves)):
        array = np.asarray(value, dtype=float)
        if array.ndim == ndim and np.isfinite(array).all():
            return array
    raise ValueError(f"expected an array nested {ndim} deep of finite numbers")


def string(value) -> str:
    """``value`` itself, checked to be a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def boolean(value) -> bool:
    """``value`` itself, checked to be a JSON boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def spec_from_json(cls, doc):
    """An instance of the dataclass ``cls`` from a JSON object of its fields.

    Each given value is cast to the type of the field's default (a whole
    number for an int, a finite number for a float), absent fields keep their
    defaults, and unknown fields are rejected.
    """
    doc = json_object(doc, f"{cls.__name__} document")
    casts = {f.name: {int: integer, float: finite}[type(f.default)]
             for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(casts))
    if unknown:
        raise ValidationError(
            f"unknown {cls.__name__} fields: {', '.join(unknown)}")
    return cls(**{k: field(doc, k, casts[k], None) for k in doc})
