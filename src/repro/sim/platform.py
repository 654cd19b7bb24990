"""The platform a system config fixes, built once per config.

CHARM's islands, mesh and memory controllers do not change from one
application to the next; the ABC composes each flow graph onto them.  A
:class:`Platform` is that fixed part, derived from the config and the
ABB library alone, and holds no per-run object: each
:class:`~repro.sim.system.SystemModel` on it allocates only its own
mutable state.  :func:`platform_for` finds a config's platform in one
bounded LRU cache keyed by every config field and the library's content.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import operator
import typing

from repro.abb.library import ABBLibrary, standard_library
from repro.errors import ConfigError
from repro.faults import FaultInjector
from repro.island import IslandConfig
from repro.island.island import IslandShape
from repro.noc import MeshTopology

#: Leakage charged per mesh router, mW (the mesh itself).
MESH_ROUTER_STATIC_MW = 0.4

#: Platforms kept by :func:`platform_for`, most recently used last.
PLATFORM_CACHE_SIZE = 64


def distribute_mix(
    total_mix: typing.Mapping[str, int],
    n_islands: int,
    strategy: str = "uniform",
) -> list[dict[str, int]]:
    """Split a system-wide ABB mix across islands.

    ``"uniform"`` (the paper's Section 4 choice): every type spread
    evenly, remainders rotated so island sizes differ by at most one ABB
    per type.  ``"clustered"``: islands filled type by type, producing
    type-pure islands — the ablation alternative, which concentrates
    each type's traffic on a few NoC interfaces.
    """
    if n_islands < 1:
        raise ConfigError("need at least one island")
    if strategy not in ("uniform", "clustered"):
        raise ConfigError(f"unknown distribution strategy {strategy!r}")
    per_island: list[dict[str, int]] = [dict() for _ in range(n_islands)]
    if strategy == "uniform":
        offset = 0  # rotate each type's remainder so island totals stay even
        for type_name in sorted(total_mix):
            count = total_mix[type_name]
            if count < 0:
                raise ConfigError(f"negative count for {type_name!r}")
            base, extra = divmod(count, n_islands)
            for i in range(n_islands):
                share = base + (1 if (i - offset) % n_islands < extra else 0)
                if share:
                    per_island[i][type_name] = share
            offset += extra
    else:
        total = sum(total_mix.values())
        if any(count < 0 for count in total_mix.values()):
            raise ConfigError("negative count in mix")
        per_size, remainder = divmod(total, n_islands)
        sizes = [per_size + (1 if i < remainder else 0) for i in range(n_islands)]
        island_index = 0
        room = sizes[0]
        for type_name in sorted(total_mix):
            remaining = total_mix[type_name]
            while remaining > 0:
                if room == 0:
                    island_index += 1
                    room = sizes[island_index]
                take = min(remaining, room)
                per_island[island_index][type_name] = (
                    per_island[island_index].get(type_name, 0) + take
                )
                remaining -= take
                room -= take
    empties = [i for i, mix in enumerate(per_island) if not mix]
    if empties:
        raise ConfigError(
            f"mix {dict(total_mix)} leaves islands {empties} empty at "
            f"{n_islands} islands"
        )
    return per_island


class Platform:
    """What one config and ABB library fix, read-only: the library, one
    :class:`~repro.island.island.IslandShape` per island (islands of one
    mix share it), the mesh with every island's and memory controller's
    stop, each crossing's links and degraded hops (filled in by the
    runs' NoCs, see :class:`~repro.noc.mesh.MeshNoC`), the planned ABB
    hard failures and the static power.  Build it with
    :func:`platform_for`."""

    __slots__ = (
        "library", "islands", "topology", "island_nodes", "mc_nodes",
        "abb_failures", "static_power_mw", "crossings",
    )

    def __init__(self, config: typing.Any, library: ABBLibrary) -> None:
        self.library = library
        shapes: dict[tuple, IslandShape] = {}  # one per distinct mix
        islands = []
        mixes = distribute_mix(config.abb_mix, config.n_islands, config.distribution)
        for mix in mixes:
            key = tuple(mix.items())
            if key not in shapes:
                island_config = IslandConfig(
                    mix, config.network, config.spm_porting, config.spm_sharing,
                    config.noc_link_bytes_per_cycle,
                )
                shapes[key] = IslandShape(island_config, library)
            islands.append(shapes[key])
        self.islands = tuple(islands)
        self.topology = topology = MeshTopology(
            config.n_islands,
            config.n_cores,
            config.n_l2_banks,
            config.n_memory_controllers,
        )
        self.island_nodes = tuple(map(topology.island, range(config.n_islands)))
        self.mc_nodes = tuple(
            map(topology.memory_controller, range(config.n_memory_controllers))
        )
        self.abb_failures: tuple[tuple[int, int, float], ...] = ()
        if config.faults.enabled:
            injector = FaultInjector(config.faults, config.fault_seed)
            slots = [len(shape.abbs) for shape in islands]
            self.abb_failures = tuple(injector.plan_abb_failures(slots))
        # Summed in the order a run used to charge them: the same float.
        static_power = 0.0
        for shape in islands:
            static_power += shape.static_power_mw
        static_power += MESH_ROUTER_STATIC_MW * len(topology.nodes)
        self.static_power_mw = static_power + config.platform_static_mw
        self.crossings: dict[int, tuple] = {}


@functools.lru_cache(maxsize=None)
def _field_values(cls: type) -> typing.Callable[[typing.Any], tuple]:
    return operator.attrgetter(*(field.name for field in dataclasses.fields(cls)))


def platform_key(
    config: typing.Any, library: typing.Optional[ABBLibrary] = None
) -> tuple:
    """The cache key of ``config``'s platform: every dataclass field's
    value (a dict as its item tuple), so a new field is covered with no
    edit here, and the library's types (``None``: the standard library).
    A few microseconds, where ``fingerprint()`` hashes canonical text."""
    values = tuple(
        tuple(value.items()) if value.__class__ is dict else value
        for value in _field_values(config.__class__)(config)
    )
    return values, None if library is None else tuple(library)


_PLATFORMS: collections.OrderedDict[tuple, Platform] = collections.OrderedDict()


def platform_for(
    config: typing.Any, library: typing.Optional[ABBLibrary] = None
) -> Platform:
    """The platform of ``config`` on ``library`` (the standard library
    when ``None``), evicting the least recently used one past
    :data:`PLATFORM_CACHE_SIZE`."""
    key = platform_key(config, library)
    platform = _PLATFORMS.get(key)
    if platform is None:
        platform = Platform(config, standard_library() if library is None else library)
        if len(_PLATFORMS) >= PLATFORM_CACHE_SIZE:
            _PLATFORMS.popitem(last=False)
        _PLATFORMS[key] = platform
    else:
        _PLATFORMS.move_to_end(key)
    return platform


def clear_platforms() -> None:
    """Forget every cached platform."""
    _PLATFORMS.clear()
