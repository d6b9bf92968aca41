"""Tests for the synchronous LOCAL-model simulator."""

import networkx as nx
import pytest

from repro.local import Network, NodeContext, RoundLedger, SynchronousAlgorithm, run_synchronous


class CountNeighboursWithinTwoHops(SynchronousAlgorithm):
    """Each node outputs the number of nodes within distance 2 (excluding itself)."""

    name = "two-hop-count"

    def initial_state(self, ctx: NodeContext) -> dict:
        return {"round": 0, "known": {ctx.node}}

    def messages(self, state, ctx):
        return {neighbor: frozenset(state["known"]) for neighbor in ctx.neighbors}

    def transition(self, state, inbox, ctx):
        known = set(state["known"])
        for message in inbox.values():
            known |= message
        return {"round": state["round"] + 1, "known": known}

    def has_terminated(self, state, ctx):
        return state["round"] >= 2

    def output(self, state, ctx):
        return len(state["known"]) - 1


class NeverTerminates(SynchronousAlgorithm):
    name = "never-terminates"

    def initial_state(self, ctx):
        return 0

    def messages(self, state, ctx):
        return {}

    def transition(self, state, inbox, ctx):
        return state + 1

    def has_terminated(self, state, ctx):
        return False

    def output(self, state, ctx):
        return state


class MessagesNonNeighbour(SynchronousAlgorithm):
    name = "messages-non-neighbour"

    def initial_state(self, ctx):
        return 0

    def messages(self, state, ctx):
        return {"not-a-neighbour": 1}

    def transition(self, state, inbox, ctx):
        return state + 1

    def has_terminated(self, state, ctx):
        return state >= 1

    def output(self, state, ctx):
        return state


class TestNetwork:
    def test_default_identifiers_are_unique(self):
        network = Network(nx.path_graph(5))
        ids = list(network.identifiers.values())
        assert sorted(ids) == [1, 2, 3, 4, 5]
        assert network.num_nodes == 5
        assert network.max_degree == 2
        assert network.max_identifier == 5

    def test_one_default_identifier_rule(self):
        """Nodes numbered 1..n by ``repr``; the network and both
        decomposition processes number a graph the same way."""
        from repro.decomposition import arboricity_decomposition, rake_and_compress
        from repro.local.network import default_identifiers

        assert default_identifiers([2, "b", 10, "a"]) == {
            "a": 1, "b": 2, 10: 3, 2: 4,
        }
        tree = nx.relabel_nodes(nx.path_graph(12), {i: (i * 7) % 12 for i in range(12)})
        expected = default_identifiers(tree.nodes())
        assert Network(tree).identifiers == expected
        assert rake_and_compress(tree, 2).identifiers == expected
        assert arboricity_decomposition(tree, 1, 5).identifiers == expected

    def test_explicit_identifiers_validated(self):
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            Network(graph, identifiers={0: 1, 1: 1, 2: 2})
        with pytest.raises(ValueError):
            Network(graph, identifiers={0: 1, 1: 2})
        with pytest.raises(ValueError):
            Network(graph, identifiers={0: 0, 1: 1, 2: 2})

    def test_rejects_directed_graph(self):
        with pytest.raises(ValueError):
            Network(nx.DiGraph([(0, 1)]))

    def test_neighbors_sorted_by_identifier(self):
        graph = nx.star_graph(3)
        network = Network(graph, identifiers={0: 10, 1: 3, 2: 1, 3: 2})
        assert network.neighbors(0) == (2, 3, 1)
        # memoized: repeated calls return the same cached tuple
        assert network.neighbors(0) is network.neighbors(0)

    def test_nodes_returns_cached_tuple(self):
        network = Network(nx.path_graph(4))
        assert network.nodes() == (0, 1, 2, 3)
        assert network.nodes() is network.nodes()

    def test_cached_scalars_match_graph(self):
        graph = nx.star_graph(5)
        network = Network(graph)
        assert network.max_degree == 5
        assert network.max_identifier == 6
        assert network.degree(0) == 5
        assert network.degree(3) == 1

    def test_shared_and_inputs_propagate_to_context(self):
        graph = nx.path_graph(2)
        network = Network(graph, node_inputs={0: "root"}, shared={"a": 1})
        from repro.local.simulator import build_contexts

        contexts = build_contexts(network)
        assert contexts[0].node_input == "root"
        assert contexts[1].node_input is None
        assert contexts[0].shared == {"a": 1}
        assert contexts[0].neighbor_ids == {1: network.identifiers[1]}


class TestSimulator:
    def test_round_counting_and_outputs(self):
        graph = nx.path_graph(4)
        result = run_synchronous(Network(graph), CountNeighboursWithinTwoHops())
        assert result.rounds == 2
        assert result.outputs == {0: 2, 1: 3, 2: 3, 3: 2}
        # 2 rounds, each node sends to each neighbour: 2 * 2 * |E|.
        assert result.messages_sent == 2 * 2 * graph.number_of_edges()

    def test_zero_round_algorithm(self):
        class Immediate(CountNeighboursWithinTwoHops):
            def has_terminated(self, state, ctx):
                return True

        result = run_synchronous(Network(nx.path_graph(3)), Immediate())
        assert result.rounds == 0
        assert result.messages_sent == 0

    def test_round_cap_enforced(self):
        with pytest.raises(RuntimeError):
            run_synchronous(Network(nx.path_graph(3)), NeverTerminates(), max_rounds=5)

    def test_messaging_non_neighbour_rejected(self):
        with pytest.raises(ValueError):
            run_synchronous(Network(nx.path_graph(3)), MessagesNonNeighbour())

    def test_single_node_graph(self):
        graph = nx.Graph()
        graph.add_node(42)
        result = run_synchronous(Network(graph), CountNeighboursWithinTwoHops())
        assert result.outputs == {42: 0}


class TestRoundLedger:
    def test_charge_and_total(self):
        ledger = RoundLedger()
        ledger.charge("a", 3)
        ledger.charge("a", 2)
        ledger.charge("b", 1)
        assert ledger.total == 6
        assert ledger.breakdown() == {"a": 5, "b": 1}

    def test_charge_max(self):
        ledger = RoundLedger()
        ledger.charge_max("parallel", 3)
        ledger.charge_max("parallel", 2)
        ledger.charge_max("parallel", 7)
        assert ledger.breakdown() == {"parallel": 7}

    def test_negative_charge_rejected(self):
        ledger = RoundLedger()
        with pytest.raises(ValueError):
            ledger.charge("x", -1)
        with pytest.raises(ValueError):
            ledger.charge_max("x", -1)
