"""Canonical fingerprinting of configuration objects.

A *fingerprint* is a stable SHA-256 digest of a value's full semantic
content.  It is the content address used by the persistent DSE result
cache (:mod:`repro.dse.cache`): two design points share a fingerprint
exactly when every field that can influence a simulation result is
equal, so cached results can be reused across processes and across
runs without risk of collision between distinct points.

Canonicalization rules (applied recursively):

* dataclasses -> ``{field_name: canonical(value)}`` over **every**
  declared field, so adding a field to a config class automatically
  invalidates old cache entries;
* enums -> ``[EnumClassName, member_name]``;
* mappings -> key-sorted dicts;
* sequences/sets -> lists (sets sorted by repr for stability);
* callables (e.g. allocation policies) -> ``"module.qualname"``;
* scalars (str/int/float/bool/None) pass through unchanged.

:func:`model_digest` addresses the simulator itself: cached results are
keyed by it too, so a change to the model code never serves a result
the old code produced.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import typing

from repro.errors import ConfigError


def canonical_value(value: typing.Any) -> typing.Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Raises :class:`~repro.errors.ConfigError` for values with no stable
    canonical form (arbitrary objects), rather than silently producing
    an address that would collide or churn between runs.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, typing.Mapping):
        return {
            str(key): canonical_value(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (set, frozenset)):
        return [canonical_value(v) for v in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            raise ConfigError(
                f"cannot fingerprint local/anonymous callable {value!r}; "
                f"use a module-level function"
            )
        return f"{module}.{qualname}"
    raise ConfigError(
        f"cannot fingerprint value of type {type(value).__name__}: {value!r}"
    )


@functools.lru_cache(maxsize=None)
def model_digest() -> str:
    """SHA-256 hex digest of the ``repro`` package source.

    Covers every ``*.py`` file, in order of its path relative to the
    package root; computed once per process.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = []
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                paths.append(os.path.relpath(path, root).replace(os.sep, "/"))
    sha = hashlib.sha256()
    for rel in sorted(paths):
        with open(os.path.join(root, rel), "rb") as handle:
            data = handle.read()
        sha.update(f"{rel}\n{len(data)}\n".encode("utf-8"))
        sha.update(data)
    return sha.hexdigest()


def digest(value: typing.Any) -> str:
    """SHA-256 hex digest of the canonical form of ``value``."""
    canonical = canonical_value(value)
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
