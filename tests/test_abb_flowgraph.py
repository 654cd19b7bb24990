"""Unit tests for ABB flow graphs."""

import pytest
from hypothesis import given, strategies as st

from repro.abb import ABBFlowGraph, standard_library
from repro.errors import ConfigError


@pytest.fixture
def lib():
    return standard_library()


def chain_graph(n=3, invocations=10):
    """poly -> div -> ... linear chain of n tasks."""
    g = ABBFlowGraph("chain")
    types = ["poly", "div", "sqrt", "pow", "sum"]
    for i in range(n):
        g.add_task(f"t{i}", types[i % len(types)], invocations)
    for i in range(n - 1):
        g.add_edge(f"t{i}", f"t{i+1}")
    return g


class TestConstruction:
    def test_add_and_lookup(self):
        g = ABBFlowGraph()
        g.add_task("a", "poly", 5)
        assert g.task("a").invocations == 5
        assert len(g) == 1

    def test_duplicate_task_rejected(self):
        g = ABBFlowGraph()
        g.add_task("a", "poly", 1)
        with pytest.raises(ConfigError):
            g.add_task("a", "div", 1)

    def test_edge_requires_existing_tasks(self):
        g = ABBFlowGraph()
        g.add_task("a", "poly", 1)
        with pytest.raises(ConfigError):
            g.add_edge("a", "missing")

    def test_self_edge_rejected(self):
        g = ABBFlowGraph()
        g.add_task("a", "poly", 1)
        with pytest.raises(ConfigError):
            g.add_edge("a", "a")

    def test_duplicate_edge_rejected(self):
        g = chain_graph(2)
        with pytest.raises(ConfigError):
            g.add_edge("t0", "t1")

    def test_unknown_task_lookup(self):
        g = ABBFlowGraph()
        with pytest.raises(ConfigError):
            g.task("zzz")


class TestTopology:
    def test_sources_and_sinks(self):
        g = chain_graph(3)
        assert g.sources() == ["t0"]
        assert g.sinks() == ["t2"]

    def test_topological_order_respects_edges(self):
        g = ABBFlowGraph()
        for tid in "abcd":
            g.add_task(tid, "poly", 1)
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        order = g.topological_order()
        assert order.index("a") < order.index("c") < order.index("d")
        assert order.index("b") < order.index("c")

    def test_cycle_detected(self):
        g = ABBFlowGraph()
        g.add_task("a", "poly", 1)
        g.add_task("b", "div", 1)
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(ConfigError):
            g.topological_order()

    def test_validate_checks_types(self, lib):
        g = ABBFlowGraph()
        g.add_task("a", "nonexistent", 1)
        with pytest.raises(ConfigError):
            g.validate(lib)

    def test_validate_ok(self, lib):
        chain_graph(5).validate(lib)


class TestMetrics:
    def test_chaining_ratio(self):
        assert chain_graph(1).chaining_ratio() == 0.0
        assert chain_graph(4).chaining_ratio() == pytest.approx(3 / 4)

    def test_memory_input_subtracts_chained_bytes(self, lib):
        g = ABBFlowGraph()
        g.add_task("p", "poly", 100)  # outputs 100*4 = 400 B
        g.add_task("c", "sum", 10)  # needs 10*64 = 640 B
        g.add_edge("p", "c")
        assert g.memory_input_bytes("c", lib) == pytest.approx(640 - 400)
        # Source fetches everything from memory.
        assert g.memory_input_bytes("p", lib) == pytest.approx(100 * 64)

    def test_memory_input_never_negative(self, lib):
        g = ABBFlowGraph()
        g.add_task("p", "poly", 1000)  # 4000 B out
        g.add_task("c", "sqrt", 10)  # only 40 B in
        g.add_edge("p", "c")
        assert g.memory_input_bytes("c", lib) == 0.0

    def test_critical_path_linear_chain(self, lib):
        g = chain_graph(2, invocations=1)
        # poly latency 24 + div latency 16
        assert g.critical_path_cycles(lib) == pytest.approx(24 + 16)

    def test_critical_path_takes_longest_branch(self, lib):
        g = ABBFlowGraph()
        g.add_task("a", "poly", 1)  # 24
        g.add_task("b", "sqrt", 100)  # 20+99 = 119
        g.add_task("c", "sum", 1)  # 8
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        assert g.critical_path_cycles(lib) == pytest.approx(119 + 8)

    def test_empty_graph_metrics(self, lib):
        g = ABBFlowGraph()
        assert g.critical_path_cycles(lib) == 0.0
        assert g.chaining_ratio() == 0.0
        assert g.total_invocations() == 0

    @given(st.integers(1, 12))
    def test_chain_edge_count_invariant(self, n):
        g = chain_graph(n)
        assert len(g.edges) == n - 1
        assert len(g.topological_order()) == n


class TestEdgeBytes:
    def test_edge_carries_producer_output(self, lib):
        g = chain_graph(2, invocations=50)
        edge = g.edges[0]
        # producer t0 is poly: 50 invocations * 4 B out
        assert g.edge_bytes(edge, lib) == pytest.approx(200)
