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
"""

from hypothesis import example, given, settings, strategies as st

import repro.faults as faults
from repro.abb import standard_library
from repro.engine import Simulator
from repro.faults import FaultInjector, FaultSpec
from repro.island import (
    ChainingCrossbarNetwork,
    Island,
    IslandConfig,
    NetworkKind,
    RingNetwork,
    SpmDmaNetworkConfig,
)
from repro.island.networks import RING_HOP_LATENCY


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


def ref_network(sim, net, src_slot, dst_slot, nbytes):
    """One island-network movement; ``None`` is the DMA engine."""
    if isinstance(net, RingNetwork):
        src = 0 if src_slot is None else src_slot + 1
        dst = 0 if dst_slot is None else dst_slot + 1
        hops = net.hops(src, dst)
        if hops == 0:
            return sim.event().succeed(nbytes)

        def traversal():
            yield net._capacity.transfer(nbytes * hops / net.n_nodes)
            yield sim.timeout(RING_HOP_LATENCY * hops)
            return nbytes

        return start(sim, traversal())
    if isinstance(net, ChainingCrossbarNetwork):
        if src_slot is None or dst_slot is None:
            return net._dma_port.transfer(nbytes)
        return net._chain_paths.transfer(nbytes)
    if src_slot is None or dst_slot is None:
        return net._port.transfer(nbytes)

    def proxy_chain():  # store-and-forward through the DMA engine
        yield net._port.transfer(nbytes)
        yield net._dma.transfer(nbytes)
        yield net._port.transfer(nbytes)
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
    net = island.network

    def ingress():
        yield island.noc_in.transfer(nbytes)
        yield from ref_dma(sim, island, injector, nbytes)
        yield ref_network(sim, net, None, a, nbytes)
        return nbytes

    def egress():
        yield ref_network(sim, net, a, None, nbytes)
        yield from ref_dma(sim, island, injector, nbytes)
        yield island.noc_out.transfer(nbytes)
        return nbytes

    def chain_local():
        yield ref_network(sim, net, a, b, nbytes)
        return nbytes

    body = {"ingress": ingress, "egress": egress, "chain": chain_local}[op]
    return start(sim, body())


def routed_transfer(island, op, a, b, nbytes):
    if op == "ingress":
        return island.ingress(a, nbytes)
    if op == "egress":
        return island.egress(a, nbytes)
    return island.chain_local(a, b, nbytes)


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
        config=IslandConfig(abb_mix=dict(MIX), network=network),
        library=standard_library(),
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
    servers = [island.noc_in, island.noc_out, island.dma] + [
        getattr(net, name)
        for name in ("_port", "_dma_port", "_chain_paths", "_capacity")
        if hasattr(net, name)
    ]
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
