"""Additive functionals on tries and patricia tries.

An additive functional Phi sums a toll function phi over all fringe
subtrees: Phi(T) = sum_{v in T} phi(T^v), equivalently the recursion
Phi(T) = phi(T) + sum_a Phi(T^a) with Phi(empty) = 0.  Tolls here are
shape-only (a toll reads only the aggregates below, never a common prefix),
which is what makes a patricia toll pull back to the trie built from the
same keys:

    pulled_phi(T) = 0                      if T's root has exactly one child
                    phi(compress(T))       otherwise

and then Phi(compress(T)) = pulled_Phi(T) for every trie T.

Evaluation is one fold from the leaves up (``trees._bottom_up``, without
recursion, so any depth works).  It gives each node its aggregates (leaf
counts, essentiality bits, and the nested shape signature, whose tuples
share their children's) and, when a toll is pulled back, those of its
patricia projection, so a batch of tolls costs one traversal.  Tolls are
added in left-to-right post-order, children in ascending character order,
so a fractional toll sums bit for bit the same on equal trees.  chi
denotes a toll's value on a lone leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import EmptyTree, integer_at_least
from .trees import Trie, _bottom_up, _shape_root, shape_signature

_LEAF_SIG = "*"
# the deepest shape phi_shape and sample_patricia_roots take, in levels
# below the root; comparing and pickling a signature recurse once per level
MAX_SHAPE_DEPTH = 256


class _Stats:
    """One node's aggregates, as the fold here computes them.  The
    simulation engine's view gives a rule the same fields, one numpy array
    (one entry per node) each."""

    __slots__ = ("leaf_count", "node_count", "outdeg", "essential", "shape_sig")

    def __init__(self, leaf_count, node_count, outdeg, essential, shape_sig):
        self.leaf_count = leaf_count
        self.node_count = node_count
        self.outdeg = outdeg
        self.essential = essential
        self.shape_sig = shape_sig


@dataclass(frozen=True)
class TollFunction:
    """A shape-only toll: per-fringe-subtree contribution of an additive functional.

    stats_fn evaluates the toll from node aggregates (leaf_count,
    node_count, outdeg, essential, shape_sig); chi, the toll's value on a
    lone leaf, is read off it when asked for, so the two cannot disagree.
    The same rule serves the explicit trees here and every toll of the
    simulation engine, so it must be elementwise: given scalars it
    returns a number, given equal-length numpy arrays (one entry per node)
    it returns an array of values or a number for all of them; the engine
    refuses any other result with ValueError.  leaf_count and outdeg cost
    the engine nothing, while node_count and essential each cost it one
    sweep up its node table on a rule's first read.  shape_sig
    is only compared with ``==`` against a nested signature.  The
    comparisons (and the pickling of a forking run) recurse once per level
    of the signature, so ``phi_shape`` takes shapes of at most
    MAX_SHAPE_DEPTH = 256 levels; a custom rule that compares a nested
    signature of its own keeps Python's recursion limit, which a signature
    of about 490 levels reaches.
    Any callable serves, a lambda or a closure too: a simulation runs a
    rule from outside this package in the calling process at every thread
    count.  ``pullback`` wraps a patricia toll for use on tries: the
    wrapper's base is that toll, and it is ``pulled``.
    """

    name: str
    stats_fn: callable = field(compare=False)
    base: "TollFunction | None" = None

    @property
    def chi(self) -> float:
        """The toll's value on a lone leaf."""
        return float(self.stats_fn(_LEAF))

    @property
    def pulled(self) -> bool:
        """Whether this toll is a patricia toll pulled back to tries."""
        return self.base is not None

    def value(self, tree) -> float:
        """phi applied to a whole tree (i.e. to the fringe at its root)."""
        total, root = np.zeros(1), _fold(tree, [self])
        if root is not None:
            _add_tolls([self], total, *root)
        return float(total[0])

    def __repr__(self):
        return f"TollFunction({self.name!r})"


_LEAF = _Stats(1, 1, 0, 1, _LEAF_SIG)


def _node_stats(items, side):
    """A node's aggregates from its (character, (own, projected)) child pairs,
    reading the children's own (side 0) or projected (side 1) aggregates."""
    if not items:
        return _LEAF
    leaf_count = sum(v[side].leaf_count for _, v in items)
    node_count = 1 + sum(v[side].node_count for _, v in items)
    essential = max(0, 1 - sum(v[side].essential for _, v in items))
    return _Stats(leaf_count, node_count, len(items), essential, tuple((a, v[side].shape_sig) for a, v in items))


def _fold(tree, tolls, visit=None):
    """The root's (own, projected) aggregates, None on the empty tree.

    projected is the aggregates of the node's patricia projection (its
    child's at a unary node) when a toll is pulled back, else own.  One
    fold from the leaves up calls visit(own, projected) at every node, in
    left-to-right post-order.
    """
    pulled = [t for t in tolls if t.pulled]
    if pulled and not isinstance(tree, Trie):
        raise ValueError(f"{pulled[0].name} is a pulled-back toll and applies to tries only")
    if tree.root is None:
        return None

    def combine(_node, items):
        own = pat = _node_stats(items, 0)
        if pulled:
            pat = items[0][1][1] if len(items) == 1 else _node_stats(items, 1)
        if visit is not None:
            visit(own, pat)
        return own, pat

    return _bottom_up(tree.root, combine)


def _add_tolls(tolls, totals, own, pat):
    """Add each toll's value at a node, from the node's own and projected
    aggregates: a pulled toll adds nothing at a unary node and its base's
    value at the projection elsewhere."""
    for j, t in enumerate(tolls):
        if t.base is None:
            totals[j] += t.stats_fn(own)
        elif own.outdeg != 1:
            totals[j] += t.base.stats_fn(pat)


def evaluate_additive(tolls, tree):
    """Evaluate additive functionals in one post-order fold.

    ``tolls`` may be a single TollFunction or a sequence; the result is a
    float or a numpy vector accordingly.  Pulled-back tolls require a Trie;
    plain tolls evaluate on either tree kind from its own structure.
    """
    single = isinstance(tolls, TollFunction)
    toll_list = [tolls] if single else list(tolls)
    totals = np.zeros(len(toll_list))
    _fold(tree, toll_list, partial(_add_tolls, toll_list, totals))
    return float(totals[0]) if single else totals


def evaluate_summed(toll, tree) -> float:
    """Oracle route: literally sum phi over every extracted fringe subtree.

    Quadratic in tree size; used to cross-check the single-pass recursion.
    """
    from .trees import fringe

    total = 0.0
    for path, _node in tree.paths():
        total += toll.value(fringe(tree, path))
    return total


def pullback(phi: TollFunction) -> TollFunction:
    """The trie toll inducing phi's functional on the compressed tree.

    The result is zero on trees whose root has exactly one child and
    phi(compress(T)) elsewhere, so that the induced functional on any trie
    equals phi's functional on its patricia trie.
    """
    if phi.pulled:
        raise ValueError("toll is already a pullback")
    return TollFunction(f"pullback({phi.name})", phi.stats_fn, base=phi)


# module-level evaluation rules: bound with functools.partial so tolls (and
# simulation configs holding them) stay picklable for worker processes


def _count_is(st, k):
    return (st.leaf_count == k) * 1.0


def _count_at_least(st, k):
    return (st.leaf_count >= k) * 1.0


# a fringe has more than one node exactly when its root has a child
def _is_internal(st):
    return (st.outdeg > 0) * 1.0


def _is_lone_leaf(st):
    return (st.outdeg == 0) * 1.0


def _matches_signature(st, sig):
    return (st.shape_sig == sig) * 1.0


def _is_essential(st):
    return st.essential * 1.0


def phi_k(k: int) -> TollFunction:
    """Indicator of fringe subtrees holding exactly k keys."""
    k = integer_at_least("k", k, 1)
    return TollFunction(f"k={k}", partial(_count_is, k=k))


def phi_geq(k: int) -> TollFunction:
    """Indicator of fringe subtrees holding at least k keys."""
    k = integer_at_least("k", k, 1)
    return TollFunction(f"geq={k}", partial(_count_at_least, k=k))


def phi_internal() -> TollFunction:
    """Indicator of fringe subtrees with more than one node, i.e. whose
    root has a child: counts internal nodes."""
    return TollFunction("internal", _is_internal)


def phi_leaf() -> TollFunction:
    """Indicator of the single-node fringe, whose root has no child:
    counts leaves."""
    return TollFunction("leaf", _is_lone_leaf)


def _shape_key(shape):
    """A shape's nested signature and key count; the empty tree and a shape
    deeper than MAX_SHAPE_DEPTH levels are rejected."""
    root = _shape_root(shape)
    depth = _bottom_up(root, lambda _, items: 1 + max(d for _, d in items) if items else 0)
    if depth > MAX_SHAPE_DEPTH:
        raise ValueError(f"a shape {depth} levels deep is past the limit of {MAX_SHAPE_DEPTH} levels")
    return shape_signature(root), root.leaf_count


def phi_shape(shape) -> TollFunction:
    """Indicator of fringe subtrees structurally equal to a fixed shape of
    at most MAX_SHAPE_DEPTH = 256 levels below its root (ValueError past it)."""
    sig0, k0 = _shape_key(shape)
    return TollFunction(f"shape[{k0}]", partial(_matches_signature, sig=sig0))


def phi_alpha() -> TollFunction:
    """Essentiality indicator: 1 when no child's fringe is essential.

    Summing it gives the independence number: every maximum independent set
    consists exactly of the essential nodes' worth of vertices, and the
    recursion phi(T) = max(0, 1 - sum_b phi(T^b)) computes the indicator
    bottom-up in the same pass as everything else.
    """
    return TollFunction("alpha", _is_essential)


def independence_number(tree) -> int:
    """alpha(T) via the essentiality functional."""
    return int(round(evaluate_additive(phi_alpha(), tree)))


def matching_number(tree) -> int:
    """Maximum matching size of a tree: node count minus independence number."""
    if tree.root is None:
        raise EmptyTree("matching number undefined on the empty tree")
    return tree.node_count() - independence_number(tree)


def brute_force_independence(tree) -> int:
    """Exact maximum-independent-set size by take/skip dynamic programming.

    Independent of the essentiality recursion: one fold from the leaves up
    gives each node the largest independent sets of its fringe that take
    it and that skip it, so any size and depth works.
    """
    if tree.root is None:
        return 0

    def combine(_node, items):
        return 1 + sum(skip for _, (_, skip) in items), sum(max(pair) for _, pair in items)

    return max(_bottom_up(tree.root, combine))
