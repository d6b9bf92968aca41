"""Tutorial: defining your own node-edge-checkable problem.

The transformation is generic: anything you can phrase in the
node-edge-checkability formalism (Definition 6) and equip with a truly
local algorithm plus its P1/P2 rule can be pushed through
Theorem 12 or Theorem 15.  This tutorial defines a small new problem from
scratch — *weak 2-colouring* (every non-isolated node must have at least
one neighbour with a different colour) — and walks through:

1. the constraint predicates,
2. the conversion to/from a classic solution,
3. verification on a semi-graph, and
4. why the class P1 is a real restriction: a naive 1-hop sequential solver
   for this encoding gets stuck (earlier nodes prescribe incompatible
   colours to a later node), whereas the MIS oracle — a genuine P1 witness —
   succeeds under the same adversarial order.

Run with::

    python examples/custom_problem_tutorial.py
"""

import _path  # noqa: F401

from repro.core.slocal import solve_node_sequential
from repro.generators import random_tree
from repro.problems import NodeEdgeCheckableProblem, verify_solution
from repro.semigraph import HalfEdge, semigraph_from_graph


class WeakTwoColoring(NodeEdgeCheckableProblem):
    """Weak 2-colouring.

    Encoding: the label on a half-edge ``(v, e)`` is a pair
    ``(own colour, other endpoint's colour)`` with colours in ``{1, 2}``.

    * Edge constraint (rank 2): the two half-edges mirror each other —
      ``(a, b)`` opposite ``(b, a)``.
    * Node constraint: all "own colour" entries agree, and at least one
      incident half-edge sees a different colour across the edge (the weak
      colouring condition).  Rank-1 edges carry ``(own colour, own colour)``
      and do not help satisfy the condition.
    """

    name = "weak-2-coloring"

    def node_config_ok(self, labels):
        labels = tuple(labels)
        if not labels:
            return True
        if not all(self._is_label(lab) for lab in labels):
            return False
        own_colours = {lab[0] for lab in labels}
        if len(own_colours) != 1:
            return False
        return any(lab[0] != lab[1] for lab in labels)

    def edge_config_ok(self, labels, rank):
        labels = tuple(labels)
        if len(labels) != rank:
            return False
        if rank == 0:
            return True
        if not all(self._is_label(lab) for lab in labels):
            return False
        if rank == 1:
            return True
        first, second = labels
        return first == (second[1], second[0])

    @staticmethod
    def _is_label(label):
        return (
            isinstance(label, tuple)
            and len(label) == 2
            and all(colour in (1, 2) for colour in label)
        )

    def to_classic(self, semigraph, labeling):
        colours = {}
        for node in semigraph.nodes:
            half_edges = semigraph.half_edges_of_node(node)
            colours[node] = labeling[half_edges[0]][0] if half_edges else 1
        return colours

    def from_classic(self, semigraph, classic):
        from repro.semigraph import HalfEdgeLabeling

        labeling = HalfEdgeLabeling()
        for edge in semigraph.edges:
            endpoints = semigraph.endpoints(edge)
            for node in endpoints:
                other = semigraph.other_endpoint(edge, node)
                other_colour = classic[other] if other is not None else classic[node]
                labeling.assign(HalfEdge(node, edge), (classic[node], other_colour))
        return labeling


def naive_weak_coloring_oracle(view):
    """A *naive* 1-hop sequential attempt.

    The node picks the colour opposite to any already-decided neighbour and
    guesses the colour of undecided neighbours.  Because two earlier
    neighbours may prescribe incompatible colours to a later node, this is
    not a valid P1 witness — the example shows the resulting violations.
    """
    own = 1
    for edge in view.incident_edges():
        across = view.label_across(edge)
        if across is not None:
            own = 3 - across[0]
            break
    decisions = {}
    for edge in view.incident_edges():
        across = view.label_across(edge)
        other_colour = across[0] if across is not None else 3 - own
        decisions[edge] = (own, other_colour)
    return decisions


def main() -> None:
    tree = random_tree(200, seed=5)
    semigraph = semigraph_from_graph(tree)
    problem = WeakTwoColoring()

    # Classic route: 2-colour the tree by depth parity and lift it.
    import networkx as nx

    depths = nx.single_source_shortest_path_length(tree, 0)
    classic = {node: 1 + depth % 2 for node, depth in depths.items()}
    labeling = problem.from_classic(semigraph, classic)
    print("lifted classic solution valid:", verify_solution(problem, semigraph, labeling).ok)

    # A naive sequential 1-hop attempt under an adversarial (reversed) order:
    # it fails, which is exactly why membership in the class P1 is a real
    # requirement and not a formality.
    order = sorted(semigraph.nodes, key=repr, reverse=True)
    naive = solve_node_sequential(semigraph, naive_weak_coloring_oracle, order=order)
    result = verify_solution(problem, semigraph, naive)
    print("naive 1-hop sequential attempt valid:", result.ok, "(expected: False)")
    if not result.ok:
        print("  example violation:", result.violations[0])

    # Contrast: the MIS oracle is a genuine P1 witness and succeeds under the
    # same adversarial order.
    from repro.core.slocal import mis_oracle
    from repro.problems import MaximalIndependentSetProblem

    mis_labeling = solve_node_sequential(semigraph, mis_oracle, order=order)
    mis_ok = verify_solution(MaximalIndependentSetProblem(), semigraph, mis_labeling).ok
    print("MIS oracle under the same order valid:", mis_ok, "(expected: True)")


if __name__ == "__main__":
    main()
