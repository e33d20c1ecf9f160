"""The on-disk formats and the only module that writes files: canonical JSON
documents, whose digest hashes the file's bytes, and CSV tables, written
atomically.  A malformed document or table read is a ValidationError
(unreadable files and malformed JSON propagate as they are)."""

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


def _canonical(doc: dict) -> str:
    """``doc`` as JSON, keys sorted, no whitespace (an indent would force the
    pure-Python encoder: twice as slow on a family)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_json(path, doc: dict):
    """Write ``doc`` in the canonical form :func:`model_digest` hashes."""
    atomic_write_text(path, _canonical(doc))


def model_digest(doc: dict) -> str:
    """Stable content hash of a document: the SHA-256 of the bytes
    :func:`write_json` writes for it."""
    import hashlib  # loaded here: only the stages that print a digest hash
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def envelope(payload: str, **fields) -> dict:
    """A ``payload`` document in this format version, holding ``fields``;
    :func:`document` reads it back."""
    return {"format_version": FORMAT_VERSION, "payload": payload, **fields}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, header, columns, formats, preamble=None) -> str:
    """CSV text of equal-length ``columns`` under ``header``, each cell in its
    column's %-format, after a ``preamble`` dict as ``# key=value`` lines
    opened by the format version; written to ``path`` if given."""
    preamble = {"format_version": FORMAT_VERSION, **preamble} if preamble else {}
    lines = [f"# {key}={value}\n" for key, value in preamble.items()]
    lines.append(",".join(header) + "\n")
    cells = [np.asarray(column).tolist() for column in columns]
    rows = (",".join(formats) + "\n") * (len(cells[0]) if cells else 0)
    # one %-operation over every row at once: half the time of a loop
    lines.append(rows % tuple(itertools.chain.from_iterable(zip(*cells))))
    text = "".join(lines)
    if path is not None:
        atomic_write_text(path, text)
    return text


def read_csv(text: str):
    """Preamble (a dict of strings), header and rows (a 2-d float array) of
    :func:`write_csv` text in this format version; blank lines are skipped,
    every row needs one finite number per column, and text that states no
    version is read as this one."""
    preamble, header, rows = {}, None, []
    with malformed("CSV"):
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                preamble[key.strip()] = value.strip()
            elif header is None:  # the preamble is over: check its version
                _supported(field(preamble, "format_version", int, FORMAT_VERSION))
                header = [h.strip() for h in line.split(",")]
            else:
                rows.append([float(v) for v in line.split(",")])
        if header is None or not rows:
            raise ValidationError("no CSV rows found")
        data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header) or not np.isfinite(data).all():
        raise ValidationError("each CSV row needs one finite number per column")
    return preamble, header, data


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
    _supported(field(doc, "format_version", integer, FORMAT_VERSION))
    return doc


def _supported(version: int):
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {version!r}")


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
