"""Result serialization: persist runs and sweeps as JSON.

Simulations are deterministic, but sweeps are not free — serializing
results lets a DSE session be saved, diffed against a future code
version, or post-processed outside Python.  One codec,
:func:`to_dict`/:func:`from_dict`, serves every result dataclass by
walking its fields and decoding each value by its type annotation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing

from repro.errors import ConfigError
from repro.sim.results import SimResult

#: Format version stamped into every serialized document.
SCHEMA_VERSION = 1


def check_schema_version(kind: str, version: typing.Any, expected: int) -> None:
    """Reject a ``kind`` document of another schema version, so a format
    change can never be silently misread as current data."""
    if version != expected:
        raise ConfigError(
            f"unsupported {kind} schema version {version!r} (expected {expected})"
        )


def write_document(path: str, document: dict) -> None:
    """Write one JSON document (stable key order, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_document(
    path: str,
    expected_version: int = SCHEMA_VERSION,
    kind: str = "results",
    payload: str = "results",
    header: typing.Optional[str] = None,
) -> dict:
    """Read a JSON object with a ``payload`` key whose ``schema_version``
    (under the ``header`` object, if given) is ``expected_version``.

    A file breaking that contract raises :class:`ConfigError` naming it.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"{path!r} is not a {kind} document (not an object)")
    versioned = document.get(header, {}) if header else document
    version = versioned.get("schema_version") if isinstance(versioned, dict) else None
    check_schema_version(kind, version, expected_version)
    if payload not in document:
        raise ConfigError(f"{path!r} is not a {kind} document (no {payload!r})")
    return document


#: Type hints per result dataclass (evaluated once per class).
_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def to_dict(obj: typing.Any) -> dict:
    """Flatten a result dataclass into a JSON-safe dict, field by field."""
    return {f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _encode(value: typing.Any) -> typing.Any:
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return dict(value) if isinstance(value, dict) else value


def _decode(hint: typing.Any, value: typing.Any) -> typing.Any:
    origin = typing.get_origin(hint)
    if origin is dict:
        key, item = typing.get_args(hint)
        return {key(k): item(v) for k, v in value.items()}
    if origin is tuple:
        return tuple(_decode(typing.get_args(hint)[0], v) for v in value)
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value)
    return hint(value)


def from_dict(cls: type, data: typing.Mapping) -> typing.Any:
    """Rebuild a ``cls`` dataclass from :func:`to_dict` output.

    Fields without a default are required; unknown keys are ignored.
    """
    fields = dataclasses.fields(cls)
    missing = [
        f.name
        for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"serialized {cls.__name__} missing fields: {missing}")
    hints = _hints(cls)
    return cls(**{
        f.name: _decode(hints[f.name], data[f.name]) for f in fields if f.name in data
    })


def result_to_dict(result: SimResult) -> dict:
    """Flatten a result into a JSON-safe dict (includes derived metrics)."""
    return {**to_dict(result), "derived": result.summary_row()}


def result_from_dict(data: typing.Mapping) -> SimResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    return from_dict(SimResult, data)


def save_results(
    results: typing.Sequence[SimResult], path: str, note: str = ""
) -> None:
    """Write a list of results to a JSON file."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "note": note,
        "results": [result_to_dict(r) for r in results],
    }
    write_document(path, document)


def load_results(path: str) -> list:
    """Read results back from :func:`save_results` output."""
    document = read_document(path)
    return [result_from_dict(d) for d in document["results"]]
