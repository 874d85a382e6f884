"""Tree queries on Dewey nodes, answered without scanning the tree.

Python's tuple order is the Dewey (lexicographic) order, and in it the
subtree of a node v is one contiguous range [v, succ(v)), where
succ(v) = v[:-1] + (v[-1] + 1,); the whole tree is the root's subtree.
A question about a subtree is therefore one bisection of a sorted tuple
of nodes.  The snapshots of both engines (`VirtualState`,
`ExtendedState`) keep two such tuples, `order` (every node) and `cps`
(the choice points: nodes whose box still holds a clause).  They are
immutable, so states that did not change one share it.  Neither live
machine bisects: the core engine's `Machine` is a node stack of
positions and the multimodel engine's `ExtMachine` a layout of integer
node slots (see engine and multimodel); each builds the two tuples only
for its snapshots.  The rebuilder keeps its tree as a set of words and
answers by probing children (below) and by its inverse numbering.

A node's children are numbered 1..k without gaps in every reachable
state of both engines and in every rebuilt state: children are created
in order (a clause's body slots all at once), and pruning removes a
lexicographic suffix of the tree or all of a node's children.  So v is a
leaf iff v + (1,) is not in the tree, and its children are counted by
probing 1, 2, ...

Every node a state stores is the canonical tuple of its word, made by
`child` or `parent` and kept for the life of the process in one table, so
all states share one object per node.  Equality never depends on it, but
set and dict comparisons test identity first: comparing two states costs
one step per node, not one per node component.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

__all__ = [
    "child",
    "parent",
    "derive_indexes",
    "child_count",
    "last_in_subtree",
]


# The link maps are keyed by the id of a canonical node, which the table
# keeps alive, so that id is never reused; they make `child` and `parent`
# O(1) on canonical nodes.
_NODES = {(): ()}
_CHILDREN = {}  # (id(v), i) -> v.i
_PARENTS = {}  # id(v.i) -> v


def child(v: tuple, i: int) -> tuple:
    """The canonical node v.i."""
    node = _CHILDREN.get((id(v), i))
    if node is None:
        v = _NODES.setdefault(v, v)
        w = v + (i,)
        node = _CHILDREN[id(v), i] = _NODES.setdefault(w, w)
        _PARENTS[id(node)] = v
    return node


def parent(v: tuple) -> tuple:
    """The canonical parent of v; the root is its own parent."""
    p = _PARENTS.get(id(v))
    if p is None:
        w = v[:-1]
        p = _NODES.setdefault(w, w)
    return p


def derive_indexes(state) -> None:
    """Fill in the `order` and `cps` of a state built without them (an
    initial state, or one made by hand), from its `tree` and `boxes`."""
    if state.order is None:
        object.__setattr__(state, "order", tuple(sorted(state.tree)))
    if state.cps is None:
        cps = tuple(v for v in state.order if state.boxes.get(v))
        object.__setattr__(state, "cps", cps)


def child_count(tree, v: tuple) -> int:
    k = 0
    while v + (k + 1,) in tree:
        k += 1
    return k


def last_in_subtree(nodes: tuple, v: tuple) -> Optional[tuple]:
    """The greatest node of sorted `nodes` in v's subtree, or None."""
    i = bisect_left(nodes, v[:-1] + (v[-1] + 1,)) if v else len(nodes)
    if i and nodes[i - 1] >= v:
        return nodes[i - 1]
    return None
