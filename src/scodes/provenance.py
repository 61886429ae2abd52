"""
Provenance trees for computed bounds.

Every bound value carries the rule that produced it, a human-readable
citation, the child results it was derived from, and any injected table
facts it leaned on, so a reported number can be audited leaf by leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Tuple


def decimal_str(value: int) -> str:
    """`value` in decimal, whatever its size: str() refuses ints of more
    than sys.get_int_max_str_digits() digits (4300 by default), and bound
    values for large n have more."""
    return str(Decimal(value))


@dataclass(frozen=True)
class BoundResult:
    value: int
    rule: str
    citation: str = ""
    children: Tuple["BoundResult", ...] = ()
    assumptions: Tuple[str, ...] = ()

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def uses_facts(self) -> bool:
        return any(n.rule.startswith("fact") for n in self.walk())

    def render(self) -> str:
        lines = []
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            cite = f"  [{node.citation}]" if node.citation else ""
            extra = f"  ({'; '.join(node.assumptions)})" if node.assumptions else ""
            lines.append(f"{'  ' * depth}{decimal_str(node.value)}  <- {node.rule}{cite}{extra}")
            stack.extend((c, depth + 1) for c in reversed(node.children))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
