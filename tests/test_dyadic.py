"""Exact interval bookkeeping, the dyadic tree of [0, 1), and the lattice and
tree-distance oracles."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import box_lattice, unit_tree_distance
from zygdist.dyadic import RealInterval
from zygdist.verification import _unit_tree_cells, _unit_tree_distance

unit_cells = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
)


# -- real intervals ------------------------------------------------------------


def test_real_interval_is_exact():
    iv = RealInterval(0.1, Fraction(1, 2))
    assert iv.left == Fraction(0.1)  # the float's exact binary value
    assert iv.length == Fraction(1, 2) - Fraction(0.1)
    assert RealInterval(0, 1) == RealInterval(Fraction(0), 1.0)
    assert len({RealInterval(0, 1), RealInterval(0, 1), RealInterval(0, 2)}) == 2
    for left, right in [(1, 1), (2, 1)]:
        with pytest.raises(ValueError):
            RealInterval(left, right)


# -- dyadic tree of [0, 1) -------------------------------------------------------
#
# Cells ``(n, j)`` stand for ``[j 2^-n, (j + 1) 2^-n)``.  The tree relations
# are checked on exact ``Fraction`` intervals and against the distance matrix
# that ``verification._verify_dyadic_distance_bound`` uses.

_DEPTH = 6


def unit_cell(n, j):
    return RealInterval(Fraction(j, 1 << n), Fraction(j + 1, 1 << n))


def _contains(outer, inner):
    return outer.left <= inner.left and inner.right <= outer.right


def _children(cell):
    n, j = cell
    return (n + 1, 2 * j), (n + 1, 2 * j + 1)


def _predecessor(cell):
    n, j = cell
    return n - 1, j // 2


@functools.cache
def _tree():
    cells = _unit_tree_cells(_DEPTH)
    return {cell: i for i, cell in enumerate(cells)}, _unit_tree_distance(_DEPTH)


def _distance(a, b):
    index, dist = _tree()
    return int(dist[index[a], index[b]])


def _common_ancestor(a, b):
    """The ancestor of ``a`` at the generation the distance matrix meets ``b``."""
    (n, _), (m, _) = a, b
    steps = n + m - _distance(a, b)
    assert steps % 2 == 0
    p = steps // 2
    return p, int(unit_cell(*a).left * (1 << p))


def test_predecessor_chain_of_unit_cell():
    cell = (3, 5)
    spans = [(Fraction(5, 8), Fraction(6, 8)), (Fraction(1, 2), Fraction(3, 4)),
             (Fraction(1, 2), 1), (0, 1)]
    for steps, (left, right) in enumerate(spans):
        iv = unit_cell(*cell)
        assert (iv.left, iv.right) == (left, right)
        assert _distance((3, 5), cell) == steps == unit_tree_distance((3, 5), cell)
        cell = _predecessor(cell)


def test_children_oracles():
    assert [unit_cell(*c) for c in _children((0, 0))] == [
        RealInterval(0, Fraction(1, 2)),
        RealInterval(Fraction(1, 2), 1),
    ]
    assert [unit_cell(*c) for c in _children((2, 1))] == [
        RealInterval(Fraction(2, 8), Fraction(3, 8)),
        RealInterval(Fraction(3, 8), Fraction(4, 8)),
    ]
    for parent in [(0, 0), (2, 1), (5, 31)]:
        first, second = _children(parent)
        assert _distance(parent, first) == _distance(parent, second) == 1
        assert _distance(first, second) == 2


def test_children_partition_parent():
    for cell in _unit_tree_cells(_DEPTH - 1):
        first, second = _children(cell)
        parent, a, b = unit_cell(*cell), unit_cell(*first), unit_cell(*second)
        assert a.left == parent.left
        assert a.right == b.left
        assert b.right == parent.right
        assert _predecessor(first) == _predecessor(second) == cell
        assert _distance(cell, first) == _distance(cell, second) == 1


def test_predecessor_contains_and_doubles():
    for cell in _unit_tree_cells(_DEPTH)[1:]:
        parent = _predecessor(cell)
        iv, piv = unit_cell(*cell), unit_cell(*parent)
        assert _contains(piv, iv)
        assert piv.length == 2 * iv.length
        assert cell in _children(parent)
        assert _distance(cell, parent) == 1
        # no other cell of the parent's generation contains it
        for j in range(1 << parent[0]):
            if j != parent[1]:
                assert not _contains(unit_cell(parent[0], j), iv)
                assert _distance(cell, (parent[0], j)) > 1


def test_sibling_is_disjoint_other_half():
    for n, j in _unit_tree_cells(_DEPTH)[1:]:
        cell, sib = (n, j), (n, j ^ 1)
        iv, siv = unit_cell(*cell), unit_cell(*sib)
        assert sib != cell
        assert iv.right <= siv.left or siv.right <= iv.left
        assert _predecessor(sib) == _predecessor(cell)
        assert siv.length == iv.length
        assert _distance(cell, sib) == 2


def test_containing_dyadic_oracles():
    assert _common_ancestor((3, 1), (3, 2)) == (1, 0)
    assert _common_ancestor((3, 3), (3, 4)) == (0, 0)
    assert _common_ancestor((2, 1), (4, 6)) == (2, 1)
    assert _common_ancestor((4, 6), (2, 1)) == (2, 1)
    assert _common_ancestor((5, 11), (5, 11)) == (5, 11)
    assert _common_ancestor((1, 1), (6, 63)) == (1, 1)


def test_containing_dyadic_is_minimal():
    cells = _unit_tree_cells(_DEPTH)
    for a in cells:
        for b in cells:
            ancestor = _common_ancestor(a, b)
            iv = unit_cell(*ancestor)
            assert _contains(iv, unit_cell(*a)) and _contains(iv, unit_cell(*b))
            for child in _children(ancestor):
                civ = unit_cell(*child)
                assert not (_contains(civ, unit_cell(*a)) and _contains(civ, unit_cell(*b)))


# -- tree metric ---------------------------------------------------------------


def test_distance_oracles():
    assert unit_tree_distance((3, 4), (3, 4)) == 0
    assert unit_tree_distance((1, 0), (1, 1)) == 2
    assert unit_tree_distance((2, 0), (2, 3)) == 4
    assert unit_tree_distance((0, 0), (1, 1)) == 1
    assert unit_tree_distance((3, 7), (2, 3)) == 1
    assert unit_tree_distance((3, 3), (3, 4)) == 6  # common ancestor: the root


@given(unit_cells, unit_cells)
def test_distance_properties(a, b):
    d = unit_tree_distance(a, b)
    assert d == unit_tree_distance(b, a)
    assert abs(a[0] - b[0]) <= d <= a[0] + b[0]
    assert (d - a[0] - b[0]) % 2 == 0
    assert (d == 0) == (a == b)


@given(unit_cells)
def test_distance_to_parent_is_one(cell):
    n, j = cell
    if n > 0:
        assert unit_tree_distance(cell, (n - 1, j >> 1)) == 1
    assert unit_tree_distance((n + 1, 2 * j), (n + 1, 2 * j + 1)) == 2


# -- box lattice ---------------------------------------------------------------


def test_box_lattice_total_mass_and_bands():
    iv = RealInterval(0, 1)
    depth = 5
    samples = list(box_lattice(iv, depth))
    assert len(samples) == sum(2 ** (n + 1) for n in range(depth))
    total = sum(w for _, _, w in samples)
    assert math.isclose(total, depth * math.log(2.0), rel_tol=1e-12)
    for x, h, _ in samples:
        assert iv.left <= x < iv.right
        # h sits in the dyadic band its layer represents
        band = h / Fraction(3, 2)
        assert iv.length / 2**depth <= band <= iv.length
        assert x - band / 2 >= iv.left and x + band / 2 <= iv.right


def test_box_lattice_respects_interval_position():
    iv = RealInterval(Fraction(1, 2), Fraction(3, 4))
    for x, h, w in box_lattice(iv, 3):
        assert iv.left < x < iv.right
        assert 0 < h < iv.length
        assert w > 0
