"""Persistent, content-addressed DSE result cache.

A design-space sweep is hundreds of deterministic (config, workload)
simulations; re-running a sweep after narrowing an axis, adding a
workload, or restarting the process repeats most of that work.  This
cache stores each :class:`~repro.sim.results.SimResult` on disk under a
**full content address**: the SHA-256 fingerprint of the complete
:class:`~repro.sim.system.SystemConfig` (every field — see
:meth:`SystemConfig.fingerprint`), the workload (kernel IR, tiles,
software baseline), the ABB library, the tile window, and the
simulator source (:func:`~repro.sim.fingerprint.model_digest`).
Because the address covers every input that can influence the result,
a hit is always safe to reuse — across processes of a parallel sweep
and across runs on different days.

Layout: ``<cache_dir>/ab/<fingerprint>.json`` (two-character fan-out to
keep directories small), each file a standalone JSON document embedding
the serialized result via :mod:`repro.sim.serialize`.  Writes are
atomic (temp file + ``os.replace``), so concurrent worker processes can
share one cache directory without locking: the worst case is two
workers simulating the same point and one harmlessly overwriting the
other's identical row.
"""

from __future__ import annotations

import json
import os
import tempfile
import typing

from repro.abb.library import ABBLibrary
from repro.errors import ReproError
from repro.sim.fingerprint import canonical_value, digest, model_digest
from repro.sim.results import SimResult
from repro.sim.run import DEFAULT_TILE_WINDOW
from repro.sim.serialize import (
    SCHEMA_VERSION,
    read_document,
    result_from_dict,
    result_to_dict,
)
from repro.sim.system import SystemConfig
from repro.workloads.base import Workload

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def library_fingerprint(library: typing.Optional[ABBLibrary]) -> typing.Any:
    """Canonical form of an ABB library (``None`` = the standard one)."""
    if library is None:
        return "standard_library"
    return [canonical_value(abb_type) for abb_type in sorted(
        library, key=lambda t: t.name
    )]


def point_fingerprint(
    config: SystemConfig,
    workload: Workload,
    library: typing.Optional[ABBLibrary] = None,
    tile_window: int = DEFAULT_TILE_WINDOW,
) -> str:
    """Content address of one simulation point.

    Covers everything :func:`~repro.sim.run.run_workload` consumes:
    the full system config, the workload (including its kernel IR), the
    ABB library, and the in-flight tile window; plus the model source.
    """
    return digest(
        {
            "config": canonical_value(config),
            "workload": canonical_value(workload),
            "library": library_fingerprint(library),
            "tile_window": tile_window,
            "model": model_digest(),
        }
    )


def serve_point_fingerprint(
    config: SystemConfig,
    serve: "typing.Any",
    library: typing.Optional[ABBLibrary] = None,
) -> str:
    """Content address of one serving session.

    Covers everything :func:`~repro.serve.session.run_serve` consumes:
    the full system config, the complete serve config (tenant workloads
    with their kernel IR, arrival processes and seeds, admission policy,
    duration, session seed), and the ABB library; plus the model source.
    Serving sessions are deterministic functions of these inputs, so a
    hit is always safe.
    """
    return digest(
        {
            "config": canonical_value(config),
            "serve": canonical_value(serve),
            "library": library_fingerprint(library),
            "model": model_digest(),
        }
    )


class ResultCache:
    """On-disk result store addressed by point fingerprint.

    ``get`` returns ``None`` on a miss (including unreadable or
    schema-mismatched entries, which are treated as absent rather than
    fatal — a cache must never be able to break a sweep).  ``hits`` and
    ``misses`` count lookups for reporting and tests.  Serving sessions
    share the same directory via ``get_serve``/``put_serve``; the entry
    ``kind`` keeps the two result schemas from masquerading as each
    other.
    """

    def __init__(self, cache_dir: str = DEFAULT_CACHE_DIR) -> None:
        self.cache_dir = cache_dir
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> str:
        return os.path.join(
            self.cache_dir, fingerprint[:2], f"{fingerprint}.json"
        )

    def _get(self, fingerprint: str, kind: str, decode) -> typing.Any:
        """Decoded ``kind`` entry for one fingerprint, or ``None``."""
        try:
            document = read_document(self._path(fingerprint), payload="result")
            if document.get("kind", "sim") != kind:
                raise ValueError("kind mismatch")
            result = decode(document["result"])
        except (OSError, ReproError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _store(self, fingerprint: str, kind: str, payload: dict) -> None:
        """Atomically write one entry (temp file + replace)."""
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "result": payload,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def get(self, fingerprint: str) -> typing.Optional[SimResult]:
        """Look up a result by fingerprint; ``None`` if absent/corrupt."""
        return self._get(fingerprint, "sim", result_from_dict)

    def put(self, fingerprint: str, result: SimResult) -> None:
        """Store a result under its fingerprint (atomic replace)."""
        self._store(fingerprint, "sim", result_to_dict(result))

    def get_serve(self, fingerprint: str) -> typing.Optional["typing.Any"]:
        """Look up a serving-session result; ``None`` if absent/corrupt."""
        from repro.serve.slo import serve_result_from_dict

        return self._get(fingerprint, "serve", serve_result_from_dict)

    def put_serve(self, fingerprint: str, result: "typing.Any") -> None:
        """Store a serving-session result under its fingerprint."""
        from repro.serve.slo import serve_result_to_dict

        self._store(fingerprint, "serve", serve_result_to_dict(result))

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        count = 0
        if not os.path.isdir(self.cache_dir):
            return 0
        for _root, _dirs, files in os.walk(self.cache_dir):
            count += sum(1 for f in files if f.endswith(".json"))
        return count

    def stats(self) -> dict[str, int]:
        """Hit/miss/entry counts for reports and benchmarks."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
