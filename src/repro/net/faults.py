"""Network fault injection.

Reproduces the evaluation's network knobs:

* **Delay injection** (Fig. 9 a–d, f–i): every message to or from an
  *impacted* replica suffers an extra delay ``delta``.
* **Drops**: messages from/to selected nodes are silently discarded — the
  chaos engine's ``pause`` / ``resume``.
* **Partitions**: two groups of nodes that cannot exchange messages until the
  partition is lifted (the chaos engine's ``partition`` / ``heal``, and
  liveness tests around GST).

Drops and partitions can be installed and removed at any simulated time,
which is how tests express "before GST / after GST" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple


@dataclass
class DelayRule:
    """Extra one-way delay applied to messages touching an impacted node set."""

    impacted: Set[int]
    extra_delay: float

    def applies(self, sender: int, receiver: int) -> bool:
        """Return ``True`` if the rule adds delay to a ``sender -> receiver`` message."""
        return sender in self.impacted or receiver in self.impacted


class FaultInjector:
    """Mutable collection of network fault rules consulted on every send."""

    def __init__(self) -> None:
        self._delay_rules: list[DelayRule] = []
        self._dropped_nodes: Set[int] = set()
        self._partitions: list[Tuple[Set[int], Set[int]]] = []
        self.dropped_messages = 0

    # ----------------------------------------------------------------- delay
    def inject_delay(self, impacted: Iterable[int], extra_delay: float) -> DelayRule:
        """Add *extra_delay* seconds to messages to/from the *impacted* nodes."""
        rule = DelayRule(set(impacted), float(extra_delay))
        self._delay_rules.append(rule)
        return rule

    def extra_delay(self, sender: int, receiver: int) -> float:
        """Total injected delay for a ``sender -> receiver`` message."""
        return sum(rule.extra_delay for rule in self._delay_rules if rule.applies(sender, receiver))

    # ------------------------------------------------------------------ drop
    def drop_node(self, node: int) -> None:
        """Silently drop every message to or from *node* (crash at the network)."""
        self._dropped_nodes.add(node)

    def restore_node(self, node: int) -> None:
        """Undo :meth:`drop_node`."""
        self._dropped_nodes.discard(node)

    # ------------------------------------------------------------- partition
    def partition(self, group_a: Iterable[int], group_b: Iterable[int]) -> None:
        """Prevent communication between *group_a* and *group_b*."""
        self._partitions.append((set(group_a), set(group_b)))

    def heal_partitions(self) -> None:
        """Remove every partition (models passing GST)."""
        self._partitions.clear()

    # --------------------------------------------------------------- queries
    def should_drop(self, sender: int, receiver: int) -> bool:
        """Return ``True`` if the message must be dropped."""
        if sender in self._dropped_nodes or receiver in self._dropped_nodes:
            return True
        for group_a, group_b in self._partitions:
            crosses = (sender in group_a and receiver in group_b) or (
                sender in group_b and receiver in group_a
            )
            if crosses:
                return True
        return False

    def record_drop(self) -> None:
        """Bump the dropped-message counter (called by the network)."""
        self.dropped_messages += 1
