"""Extension: BiN buffer-in-NUCA (CDSC memory-system work, paper Sec. 7).

The paper could not include its memory-system design [7] for page-limit
reasons; this bench quantifies the mechanism on our substrate: an
accelerator with data reuse served from dynamically allocated NUCA L2
buffer space vs going to DRAM every time.
"""

from functools import partial

from conftest import run_once

from repro.engine import Simulator
from repro.mem import MemorySystem
from repro.mem.bin_buffer import BufferInNUCA
from repro.noc import MeshTopology

#: Reuse pattern: each 4 KiB block is touched this many times.
REUSE_FACTOR = 8
BLOCK_BYTES = 4096
BLOCKS = 16


def run_steps(sim: Simulator, steps, then=lambda: None) -> None:
    """Run each step, one after another: a step issues an access and
    returns its completion time, and the next one starts then."""
    pending = iter(steps)

    def next_step() -> None:
        step = next(pending, None)
        if step is None:
            then()
        else:
            sim.schedule(step(), next_step)

    next_step()


def run_with_bin() -> float:
    sim = Simulator()
    topo = MeshTopology(n_islands=4)
    memory = MemorySystem(sim)
    bin_ = BufferInNUCA(sim, topo, memory, bank_buffer_bytes=64 * 1024)

    def accelerator(grant) -> None:
        # Cold fill from DRAM into the buffer, then reuse hits the banks.
        steps = []
        for block in range(BLOCKS):
            steps.append(partial(bin_.dram_access, BLOCK_BYTES, stream_id=block))
            steps.append(partial(bin_.access, grant, BLOCK_BYTES))
        for _repeat in range(REUSE_FACTOR - 1):
            for _block in range(BLOCKS):
                steps.append(partial(bin_.access, grant, BLOCK_BYTES))
        run_steps(sim, steps, partial(bin_.release, grant))

    bin_.request(0, BLOCKS * BLOCK_BYTES, accelerator)
    sim.run()
    return sim.now


def run_without_bin() -> float:
    sim = Simulator()
    memory = MemorySystem(sim)
    run_steps(
        sim,
        [
            partial(memory.access_fast, BLOCK_BYTES, stream_id=block)
            for _repeat in range(REUSE_FACTOR)
            for block in range(BLOCKS)
        ],
    )
    sim.run()
    return sim.now


def generate():
    return {"with_bin": run_with_bin(), "dram_only": run_without_bin()}


def test_ext_bin_buffers(benchmark):
    d = run_once(benchmark, generate)
    speedup = d["dram_only"] / d["with_bin"]
    print("\n=== Extension: BiN buffer-in-NUCA ===")
    print(
        f"    {BLOCKS} blocks x {REUSE_FACTOR} touches: "
        f"DRAM-only {d['dram_only']:,.0f} cy, with BiN {d['with_bin']:,.0f} cy "
        f"({speedup:.2f}X)"
    )
    # Reuse through NUCA buffers must clearly beat repeated DRAM trips.
    assert speedup > 2.0
    # But the cold fill still pays full DRAM cost: bounded benefit.
    assert speedup < REUSE_FACTOR * 2
