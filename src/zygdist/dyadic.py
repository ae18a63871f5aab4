"""Half-open real intervals with exact rational endpoints.

Sampled functions and martingales record their spans as :class:`RealInterval`
objects, so grid geometry (lengths and cell widths) is computed in
:class:`fractions.Fraction` arithmetic and never rounds.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["RealInterval"]


def _coerce(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class RealInterval:
    """Half-open interval ``[left, right)`` with exact rational endpoints."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        left = _coerce(left)
        right = _coerce(right)
        if right <= left:
            raise ValueError(f"empty interval [{left}, {right})")
        self.left = left
        self.right = right

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def __eq__(self, other):
        return (
            isinstance(other, RealInterval)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"RealInterval({self.left}, {self.right})"
