"""Differential check: routed island transfers against a plain reference.

The reference is the model routes replaced: one generator process per
transfer, every leg a ``BandwidthServer.transfer`` event or a timeout,
and the DMA stall/drop/retry logic written inline.  It runs on a twin island
(same configuration) whose servers it drives directly.  It keeps the
same-time rule of :mod:`repro.engine.route`: a reference process starts
inside the call that creates it, and its completion runs its waiters
inline.
Hypothesis generates network shapes and overlapping transfer mixes; the
routed island must match the reference exactly: the same completion
time for every transfer, the same per-server accounting and the same
fault counters.

The second check covers whole system transfers, each one flat route
spliced from the memory's, the mesh's and the islands' legs.  Its
reference is the nested composition: a process per transfer that waits
on a memory access, then a mesh crossing, then an island ingress or
egress, each a route over its owner's legs, on a twin traced system.  The two must
agree on completion times, heap entries, every server's accounting
(mesh links and memory channels included), fault counters, the energy
breakdown in charge order, and every span.
"""

from functools import partial

from hypothesis import example, given, settings, strategies as st

import repro.faults as faults
from repro.abb import standard_library
from repro.engine import Route, Simulator
from repro.engine.route import DONE
from repro.engine.trace import Tracer
from repro.faults import FaultInjector, FaultSpec
from repro.island import Island, IslandConfig, NetworkKind, SpmDmaNetworkConfig
from repro.island.island import IslandShape
from repro.island.networks import RING_HOP_LATENCY
from repro.sim import SystemConfig, SystemModel
from tests.test_island_island import move


# ----------------------------------------------------------- reference
def start(sim, body):
    """Run a generator process from now: its first step runs in this
    call, and its event fires inline when the body returns."""
    done = sim.event()

    def resume(event=None):
        try:
            target = body.send(None if event is None else event.value)
        except StopIteration as stop:
            done.trigger(stop.value)
            return
        target.add_callback(resume)

    resume()
    return done


def ref_network(sim, island, src_slot, dst_slot, nbytes):
    """One island-network movement; ``None`` is the DMA engine."""
    net = island.network
    kind = net.shape.config.kind
    if kind is NetworkKind.RING:
        src = 0 if src_slot is None else src_slot + 1
        dst = 0 if dst_slot is None else dst_slot + 1
        hops = net.shape.hops(src, dst)
        if hops == 0:
            return sim.event().succeed(nbytes)

        def traversal():
            yield net.port.transfer(nbytes * hops / net.shape.n_nodes)
            yield sim.timeout(RING_HOP_LATENCY * hops)
            return nbytes

        return start(sim, traversal())
    if src_slot is None or dst_slot is None:
        return net.port.transfer(nbytes)
    if kind is NetworkKind.CHAINING_CROSSBAR:
        return net.paths.transfer(nbytes)

    def proxy_chain():  # store-and-forward through the DMA engine
        yield net.port.transfer(nbytes)
        yield island.dma.transfer(nbytes)
        yield net.port.transfer(nbytes)
        return nbytes

    return start(sim, proxy_chain())


def ref_dma(sim, island, injector, nbytes):
    """The DMA leg: stall once, or drop and retry with backoff."""
    if injector is None:
        yield island.dma.transfer(nbytes)
        return
    attempt = 0
    while True:
        outcome = injector.dma_outcome(island.island_id)
        if outcome == faults.DMA_STALL:
            injector.stats.dma_stalls += 1
            yield sim.timeout(injector.spec.dma_stall_cycles)
        elif outcome == faults.DMA_DROP:
            if attempt < injector.spec.dma_max_retries:
                injector.stats.dma_retries += 1
                yield sim.timeout(injector.dma_retry_delay(attempt))
                attempt += 1
                continue
            injector.stats.dma_forced_recoveries += 1
        yield island.dma.transfer(nbytes)
        return


def ref_transfer(sim, island, injector, op, a, b, nbytes):
    def ingress():
        yield island.noc_in.transfer(nbytes)
        yield from ref_dma(sim, island, injector, nbytes)
        yield ref_network(sim, island, None, a, nbytes)
        return nbytes

    def egress():
        yield ref_network(sim, island, a, None, nbytes)
        yield from ref_dma(sim, island, injector, nbytes)
        yield island.noc_out.transfer(nbytes)
        return nbytes

    def chain_local():
        yield ref_network(sim, island, a, b, nbytes)
        return nbytes

    body = {"ingress": ingress, "egress": egress, "chain": chain_local}[op]
    return start(sim, body())


def routed_transfer(island, op, a, b, nbytes):
    src, dst = {"ingress": (None, a), "egress": (a, None), "chain": (a, b)}[op]
    return move(island, src, dst, nbytes)


# -------------------------------------------------------------- driver
MIX = {"poly": 3, "div": 2, "sum": 1}


def run(network, spec, ops, routed):
    """Issue ``ops`` at their times; return completion times, server
    accounting and fault counters."""
    sim = Simulator()
    injector = FaultInjector(spec, seed=7) if spec.dma_faults_enabled else None
    island = Island(
        sim,
        island_id=0,
        shape=IslandShape(
            IslandConfig(abb_mix=dict(MIX), network=network), standard_library()
        ),
        fault_injector=injector if routed else None,
    )
    done = [None] * len(ops)

    def issue(index, op, a, b, nbytes):
        if routed:
            event = routed_transfer(island, op, a, b, nbytes)
        else:
            event = ref_transfer(sim, island, injector, op, a, b, nbytes)
        event.add_callback(lambda _e: done.__setitem__(index, sim.now))

    for index, (op, a, b, nbytes, at) in enumerate(ops):
        sim.timeout(at).add_callback(
            lambda _e, args=(index, op, a, b, nbytes): issue(*args)
        )
    sim.run()
    net = island.network
    servers = [island.noc_in, island.noc_out, island.dma, net.port] + (
        [] if net.paths is None else [net.paths]
    )
    accounting = [
        (s.busy_cycles, s.total_bytes, s.total_transfers, s._free_at)
        for s in servers
    ]
    stats = injector.stats if injector is not None else None
    return done, accounting, stats


networks = st.one_of(
    st.builds(
        SpmDmaNetworkConfig,
        kind=st.sampled_from(
            [NetworkKind.PROXY_CROSSBAR, NetworkKind.CHAINING_CROSSBAR]
        ),
        link_width_bytes=st.sampled_from([16, 32]),
    ),
    st.builds(
        SpmDmaNetworkConfig,
        kind=st.just(NetworkKind.RING),
        link_width_bytes=st.sampled_from([16, 32]),
        rings=st.integers(1, 3),
    ),
)
slots = st.integers(0, sum(MIX.values()) - 1)
transfer_ops = st.lists(
    st.tuples(
        st.sampled_from(["ingress", "egress", "chain"]),
        slots,
        slots,
        st.sampled_from([0.0, 1.0, 64.0, 600.0, 3200.0, 12345.5]),
        # Few distinct issue times: same-time and overlapping issues.
        st.sampled_from([0.0, 0.0, 5.0, 40.0, 300.0]),
    ),
    min_size=1,
    max_size=12,
)
fault_specs = st.one_of(
    st.just(FaultSpec()),
    st.builds(
        FaultSpec,
        dma_stall_prob=st.sampled_from([0.0, 0.3]),
        dma_drop_prob=st.sampled_from([0.2, 0.5]),
        dma_stall_cycles=st.sampled_from([0.0, 50.0]),
        dma_timeout_cycles=st.sampled_from([10.0, 200.0]),
        dma_max_retries=st.integers(0, 2),
    ),
)


# The same-time rule in one case: the egress issued at t=5 reserves the
# proxy port inside its issue, ahead of the ingress whose DMA leg ends
# at t=5 too.  A reference that kicks each process off with a separate
# heap entry lets the ingress in first (7.0 instead of 7.0625).
@example(
    network=SpmDmaNetworkConfig(NetworkKind.PROXY_CROSSBAR, 16),
    spec=FaultSpec(),
    ops=[("ingress", 0, 0, 0.0, 0.0), ("egress", 0, 0, 1.0, 5.0)],
)
# And its second clause: the egress's ring traversal (capacity to t=3,
# then six hops) ends at t=9 and completes its island route inline, so
# its DMA leg starts ahead of the ingress whose NoC leg also ends at t=9.
# With one more entry to finish the traversal, the ingress goes first.
@example(
    network=SpmDmaNetworkConfig(NetworkKind.RING, 16, 1),
    spec=FaultSpec(),
    ops=[("egress", 0, 0, 56.0, 0.0), ("ingress", 3, 0, 6.0, 4.0)],
)
@settings(deadline=None)
@given(network=networks, spec=fault_specs, ops=transfer_ops)
def test_routes_match_reference_model(network, spec, ops):
    routed = run(network, spec, ops, routed=True)
    reference = run(network, spec, ops, routed=False)
    assert routed == reference
    assert None not in routed[0]


# ------------------------------------------------------ system transfers
def ref_system_transfer(system, op, src, dst, nbytes, stream, ref):
    """The nested composition of one system transfer: every owner's
    stretch is a route over its own legs (or a memory access), waited on
    in turn."""
    sim, noc, topology = system.sim, system.noc, system.topology
    mc = topology.memory_controller(stream % system.config.n_memory_controllers)
    if op == "island_to_island" and src[0] == dst[0]:
        return move(system.islands[src[0]], src[1], dst[1], nbytes, ref)

    def crossing(a, b):
        crossed = sim.event()
        legs = (noc.transfer(a, b, nbytes), DONE)
        Route(sim, legs, partial(crossed.trigger, nbytes), nbytes, ref=ref)
        return crossed

    def body():
        if op == "memory_to_island":
            yield system.memory.access(nbytes, stream, ref)
            src_node = mc
        else:
            yield move(system.islands[src[0]], src[1], None, nbytes, ref)
            src_node = topology.island(src[0])
        if op == "island_to_memory":
            yield crossing(src_node, mc)
            yield system.memory.access(nbytes, stream, ref)
        else:
            yield crossing(src_node, topology.island(dst[0]))
            yield move(system.islands[dst[0]], None, dst[1], nbytes, ref)
        return nbytes

    return start(sim, body())


def routed_system_transfer(system, op, src, dst, nbytes, stream, ref):
    done = system.sim.event()
    then = partial(done.trigger, nbytes)
    if op == "memory_to_island":
        system.memory_to_island(*dst, nbytes, stream, then, ref)
    elif op == "island_to_memory":
        system.island_to_memory(*src, nbytes, stream, then, ref)
    else:
        system.island_to_island(*src, *dst, nbytes, then, ref)
    return done


def run_system(config, ops, routed):
    """Issue system transfers at their times on a traced system; return
    everything the two compositions must agree on."""
    tracer = Tracer()
    system = SystemModel(config, tracer=tracer)
    sim = system.sim
    done = [None] * len(ops)

    def end(island_index, slot):
        island_index %= len(system.islands)
        return island_index, slot % system.islands[island_index].n_slots

    def issue(index, op, src, dst, nbytes, stream):
        src, dst = end(*src), end(*dst)
        transfer = routed_system_transfer if routed else ref_system_transfer
        event = transfer(system, op, src, dst, nbytes, stream, f"x{index}")
        event.add_callback(lambda e: done.__setitem__(index, (sim.now, e.value)))

    for index, (op, src, dst, nbytes, stream, at) in enumerate(ops):
        sim.timeout(at).add_callback(
            lambda _e, args=(index, op, src, dst, nbytes, stream): issue(*args)
        )
    sim.run()

    def accounting(server):
        return (
            server.busy_cycles,
            server.total_bytes,
            server.total_transfers,
            server._free_at,
        )

    servers = {}
    for island in system.islands:
        net = island.network
        named = {"noc_in": island.noc_in, "noc_out": island.noc_out,
                 "dma": island.dma, "port": net.port}
        if net.paths is not None:
            named["paths"] = net.paths
        for name, server in named.items():
            servers[(island.island_id, name)] = accounting(server)
    for key, link in system.noc._links.items():
        servers[key] = accounting(link)
    for controller in system.memory.controllers:
        servers[f"mc{controller.index}"] = accounting(controller._channel)
    noc = system.noc
    spans = [
        (r.start, r.end, r.actor, r.kind, r.label, r.ref) for r in tracer.records
    ]
    return {
        "done": done,
        "heap_entries": sim._seq,
        "servers": servers,
        "noc": (noc.total_transfers, noc.total_byte_hops, noc.total_packets),
        "faults": system.fault_stats,
        "energy": list(system.energy.dynamic_nj.items()),
        "spans": spans,
    }


system_configs = st.builds(
    lambda n_islands, network, spec, seed: SystemConfig(
        n_islands=n_islands,
        abb_mix={"poly": 4, "div": 3, "sum": 2},
        network=network,
        n_memory_controllers=2,
        faults=spec,
        fault_seed=seed,
    ),
    n_islands=st.integers(2, 3),
    network=networks,
    spec=st.one_of(
        fault_specs,
        st.builds(
            FaultSpec,
            dma_stall_prob=st.sampled_from([0.0, 0.3]),
            dma_drop_prob=st.sampled_from([0.2, 0.5]),
            dma_max_retries=st.integers(0, 2),
            noc_degrade_fraction=st.sampled_from([0.0, 0.5]),
        ),
    ),
    seed=st.integers(0, 3),
)
ends = st.tuples(st.integers(0, 2), st.integers(0, 8))
system_ops = st.lists(
    st.tuples(
        st.sampled_from(["memory_to_island", "island_to_memory", "island_to_island"]),
        ends,
        ends,
        st.sampled_from([0.0, 1.0, 64.0, 600.0, 3200.0, 12345.5]),
        st.integers(0, 5),
        st.sampled_from([0.0, 0.0, 5.0, 40.0, 300.0]),
    ),
    min_size=1,
    max_size=10,
)


# A zero-byte read: no mesh span, and the ingress's spans start where
# the read ended.
@example(
    config=SystemConfig(n_islands=2, abb_mix={"poly": 4, "div": 3, "sum": 2}),
    ops=[("memory_to_island", (0, 0), (1, 2), 0.0, 1, 0.0)],
)
# Both DMA legs of one cross-island transfer under drops and retries:
# the ingress's DMA leg draws its own outcomes from a fresh count.
@example(
    config=SystemConfig(
        n_islands=2,
        abb_mix={"poly": 4, "div": 3, "sum": 2},
        faults=FaultSpec(dma_stall_prob=0.3, dma_drop_prob=0.5, dma_max_retries=1),
        fault_seed=0,
    ),
    ops=[("island_to_island", (0, 0), (1, 0), 600.0, 0, 0.0)] * 4,
)
@settings(deadline=None)
@given(config=system_configs, ops=system_ops)
def test_system_routes_match_nested_composition(config, ops):
    routed = run_system(config, ops, routed=True)
    reference = run_system(config, ops, routed=False)
    assert routed == reference
    assert None not in routed["done"]
