"""Every constraint decides a multiset: one verdict for every label order.

Definition 6 states node and edge constraints as sets of label multisets,
so ``check_labeling`` and the list constraints hand a configuration to
its predicate in the order they gathered it, and never sort it first.
This module pins that premise: on generated configurations, every
permutation gets the verdict of the
:func:`~repro.semigraph.labeling.canonical_multiset` order, which is the
order the verifier and the lists used to sort into.  The labels mix each
problem's alphabet with the dummy, foreign types, bools, zero and
negative integers, 3-tuples and unhashable lists.  Cases are drawn by
hypothesis when it is installed and by a seeded ``random.Random``
otherwise.
"""

import importlib.util
import random
import sys
from itertools import permutations
from pathlib import Path

import pytest

from repro.problems import (
    DUMMY,
    DegreePlusOneColoring,
    DeltaPlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
)
from repro.problems.edge_coloring import is_pair_label
from repro.problems.lists import EdgeListConstraint, NodeListConstraint
from repro.problems.sinkless_orientation import SinklessOrientationProblem
from repro.semigraph.labeling import canonical_multiset

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the seeded fallback in ``generated`` draws the cases
    given = None

CASES = 150
SEEDS = 1_000_000
#: At most 5 labels, so a case checks at most 120 orders.
MAX_LABELS = 5


def _tutorial_problem():
    examples = Path(__file__).resolve().parent.parent / "examples"
    sys.path.insert(0, str(examples))
    try:
        spec = importlib.util.spec_from_file_location(
            "custom_problem_tutorial", examples / "custom_problem_tutorial.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(examples))
    return module.WeakTwoColoring()


#: Labels outside (or at the edge of) every alphabet.
ODD_LABELS = (
    DUMMY, True, False, 0, -1, -3, 1.0, None, "", "x",
    (1, 2, 3), (0, 1), (1, -2), (True, 1), (1, True), ["x"], [1, 2], [],
)

PROBLEMS = {
    "mis": (MaximalIndependentSetProblem(), ("M", "P", "O")),
    "matching": (MaximalMatchingProblem(), ("M", "P", "O")),
    "deg+1-coloring": (DegreePlusOneColoring(), (1, 2, 3, 4)),
    "delta+1-coloring": (DeltaPlusOneColoring(3), (1, 2, 3, 4)),
    "edge-coloring": (
        EdgeDegreePlusOneEdgeColoring(),
        ((1, 1), (1, 2), (2, 2), (2, 1), (3, 2), (1, 3), (2, 3)),
    ),
    "sinkless-orientation": (SinklessOrientationProblem(), ("OUT", "IN")),
    "weak-2-coloring": (_tutorial_problem(), ((1, 1), (1, 2), (2, 1), (2, 2))),
}


def generated(check):
    """Run ``check(name, seed)`` on CASES seeds per problem."""
    if given is not None:
        return settings(max_examples=CASES, deadline=None)(
            given(seed=st.integers(0, SEEDS - 1))(check)
        )

    def seeded(name):
        rng = random.Random(f"order/{name}")
        for _ in range(CASES):
            check(name, rng.randrange(SEEDS))

    return seeded


def draw_labels(rng, alphabet, count):
    """``count`` labels, mostly from ``alphabet`` so that valid
    configurations come up too."""
    return [
        rng.choice(alphabet) if rng.random() < 0.75 else rng.choice(ODD_LABELS)
        for _ in range(count)
    ]


def orders(labels):
    """Every order of ``labels``, as the walk would hand them over."""
    return {tuple(map(id, order)): list(order) for order in permutations(labels)}.values()


def verdict(predicate, *args):
    """The predicate's verdict, or the exception type it raised."""
    try:
        return predicate(*args)
    except Exception as error:  # noqa: BLE001 - compared below
        return type(error)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@generated
def test_constraints_ignore_the_order_of_labels(name, seed):
    problem, alphabet = PROBLEMS[name]
    rng = random.Random(seed)
    labels = draw_labels(rng, alphabet, rng.randint(0, MAX_LABELS))
    canonical = canonical_multiset(labels)
    expected = problem.node_config_ok(canonical)
    assert isinstance(expected, bool)
    for order in orders(labels):
        assert verdict(problem.node_config_ok, order) is expected, order

    edge_labels = labels[:2]
    rank = len(edge_labels) if rng.random() < 0.9 else rng.randint(0, 2)
    expected = problem.edge_config_ok(canonical_multiset(edge_labels), rank)
    assert isinstance(expected, bool)
    for order in orders(edge_labels):
        assert verdict(problem.edge_config_ok, order, rank) is expected, order


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@generated
def test_list_constraints_ignore_the_order_of_labels(name, seed):
    """``allows`` hands ``χ + ψ`` over unsorted; its verdict is the one of
    the sorted combined multiset, as before."""
    problem, alphabet = PROBLEMS[name]
    rng = random.Random(seed)
    chosen = draw_labels(rng, alphabet, rng.randint(0, 3))
    fixed = canonical_multiset(draw_labels(rng, alphabet, rng.randint(0, 2)))
    node_list = NodeListConstraint(problem, fixed)
    expected = problem.node_config_ok(canonical_multiset(chosen + list(fixed)))
    for order in orders(chosen):
        assert verdict(node_list.allows, order) is expected, order

    # An edge has at most two endpoints (Definition 4).
    fixed = fixed[:1]
    chosen = chosen[:2 - len(fixed)]
    full_rank = len(chosen) + len(fixed) if rng.random() < 0.9 else rng.randint(0, 2)
    edge_list = EdgeListConstraint(problem, fixed, full_rank)
    combined = canonical_multiset(chosen + list(fixed))
    expected = len(combined) == full_rank and problem.edge_config_ok(
        combined, full_rank
    )
    for order in orders(chosen):
        assert verdict(edge_list.allows, order) is expected, order


def _is_pair_label_with_a_generator(label):
    """``is_pair_label`` as it read with a per-label generator."""
    return (
        isinstance(label, tuple)
        and len(label) == 2
        and all(isinstance(x, int) and x >= 1 for x in label)
    )


def test_is_pair_label_keeps_its_verdicts():
    labels = list(ODD_LABELS) + [
        (1, 1), (2, 5), (0, 0), (5, 0), (-1, 1), (1.0, 1), (1, "1"), ("a", "b"),
        (1,), (), (False, 1), (True, True), [1, 1], (1, 1, 1), ((1, 1), 1),
    ]
    for label in labels:
        assert is_pair_label(label) is _is_pair_label_with_a_generator(label), label
