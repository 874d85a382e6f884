"""Dewey nodes: canonical words, and the gapless numbering of children.

A node is named by its Dewey word, a tuple of ints whose Python order is
the Dewey (lexicographic) order: a prefix sorts before its extensions,
siblings by component.  No live machine answers a tree question from
words, or keys anything by word: all run on engine's node stack, of
positions in Dewey order (see engine).  Words are built where they are
observed: in the stack's `nodes` list, in snapshots, and in `node_str`.

A node's children are numbered 1..k without gaps in every reachable
state of both engines and in every rebuilt state: children are created
in order (a clause's body slots all at once), and pruning removes a
lexicographic suffix of the tree or all of a node's children.  So v is a
leaf iff v + (1,) is not in the tree, and the rebuilder numbers v's next
child one more than the children it counts in v's subtree.

Every node a state stores is the canonical tuple of its word, made by
`child` and kept for the life of the process in one table, so all states
share one object per node; `parent` looks the canonical parent up in that
table.  Equality never depends on it, but list, set and dict comparisons
test identity first.  The adequacy check compares the rebuilder's node
list with the machine's as it stands, so that costs one step per node,
not one per node component.
"""

from __future__ import annotations

__all__ = [
    "child",
    "parent",
]


# The link map is keyed by the id of a canonical node, which the table
# keeps alive, so that id is never reused; it makes `child` O(1) on
# canonical nodes.
_NODES = {(): ()}
_CHILDREN = {}  # (id(v), i) -> v.i


def child(v: tuple, i: int) -> tuple:
    """The canonical node v.i."""
    node = _CHILDREN.get((id(v), i))
    if node is None:
        v = _NODES.setdefault(v, v)
        w = v + (i,)
        node = _CHILDREN[id(v), i] = _NODES.setdefault(w, w)
    return node


def parent(v: tuple) -> tuple:
    """The canonical parent of v; the root is its own parent."""
    w = v[:-1]
    return _NODES.setdefault(w, w)

