"""Half-edge labelings.

A solution to a node-edge-checkable problem is a mapping from half-edges,
the plain ``(node, edge)`` pairs, to output labels (Definition 6).
:class:`HalfEdgeLabeling` represents such a mapping, possibly partial.

:func:`canonical_multiset` is one fixed order of a label multiset
("configuration").  No check needs it: a constraint decides a multiset,
whatever the order of its labels.  It names a configuration where one is
reported or stored: a :class:`~repro.problems.verification.Violation`'s
``configuration`` and the ``fixed`` labels of the list instances of
:mod:`repro.problems.lists`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping

from repro.semigraph.semigraph import Incidence, SemiGraph


class HalfEdgeLabeling:
    """A (possibly partial) assignment of labels to half-edges."""

    def __init__(self, assignments: Mapping[Incidence, Any] | None = None) -> None:
        self._labels: dict[Incidence, Any] = dict(assignments or {})

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, half_edge: Incidence, label: Any) -> None:
        """Assign ``label`` to ``half_edge``; re-assignment is an error."""
        if half_edge in self._labels and self._labels[half_edge] != label:
            raise ValueError(
                f"half-edge {half_edge!r} already labeled "
                f"{self._labels[half_edge]!r}, refusing to overwrite with {label!r}"
            )
        self._labels[half_edge] = label

    def merge(self, other: "HalfEdgeLabeling") -> "HalfEdgeLabeling":
        """Return a new labeling with the union of the two assignments.

        Overlapping half-edges must agree; a conflict raises ``ValueError``.
        """
        merged = HalfEdgeLabeling(self._labels)
        for half_edge, label in other.items():
            merged.assign(half_edge, label)
        return merged

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, half_edge: Incidence, default: Any = None) -> Any:
        """The label on ``half_edge``, or ``default`` if unlabeled."""
        return self._labels.get(half_edge, default)

    def is_labeled(self, half_edge: Incidence) -> bool:
        """Whether the half-edge has received a label."""
        return half_edge in self._labels

    def items(self) -> Iterator[tuple[Incidence, Any]]:
        """Iterate over ``(half_edge, label)`` pairs."""
        return iter(self._labels.items())

    def as_mapping(self) -> Mapping[Incidence, Any]:
        """The assignment as a read-only view (no copy)."""
        return MappingProxyType(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, half_edge: Incidence) -> Any:
        return self._labels[half_edge]

    def __contains__(self, half_edge: Incidence) -> bool:
        return half_edge in self._labels

    # ------------------------------------------------------------------
    # views over a semi-graph
    # ------------------------------------------------------------------
    def is_complete(self, semigraph: SemiGraph) -> bool:
        """Whether every half-edge of ``semigraph`` is labeled."""
        return all(h in self._labels for h in semigraph.half_edges())

    def restricted_to(self, semigraph: SemiGraph) -> "HalfEdgeLabeling":
        """The labeling restricted to half-edges present in ``semigraph``."""
        present = set(semigraph.half_edges())
        return HalfEdgeLabeling(
            {h: lab for h, lab in self._labels.items() if h in present}
        )

    def copy(self) -> "HalfEdgeLabeling":
        """An independent copy of the labeling."""
        return HalfEdgeLabeling(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HalfEdgeLabeling({len(self._labels)} half-edges labeled)"


def canonical_multiset(labels: Iterable[Any]) -> tuple:
    """Canonical (sorted) tuple representation of a label multiset.

    Labels of mixed types (e.g. the dummy label ``"D"`` together with
    integer pairs) are sorted by their ``repr`` to obtain a total order.
    """
    return tuple(sorted(labels, key=lambda lab: (type(lab).__name__, repr(lab))))
