"""Additive functionals on tries and patricia tries.

An additive functional Phi sums a toll function phi over all fringe
subtrees: Phi(T) = sum_{v in T} phi(T^v), equivalently the recursion
Phi(T) = phi(T) + sum_a Phi(T^a) with Phi(empty) = 0.  Tolls here are
shape-only (they never read common-prefix attributes), which is what makes
a patricia toll pull back to the trie built from the same keys:

    pulled_phi(T) = 0                      if T's root has exactly one child
                    phi(compress(T))       otherwise

and then Phi(compress(T)) = pulled_Phi(T) for every trie T.

Evaluation is a single post-order pass with memoized per-node aggregates
(leaf counts, essentiality bits, bounded shape signatures), so a batch of
tolls costs one traversal.  chi denotes a toll's value on a lone leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import EmptyTree, LimitExceeded, ShapeDependence
from .trees import Trie, shape_signature

_LEAF_SIG = "*"


class _Stats:
    """Per-node aggregates: scalars from the post-order pass here, or one
    numpy array per field (one entry per node) from the simulation engine."""

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
    node_count, outdeg, essential, shape_sig); chi is the value on a single
    leaf.  The same rule serves the explicit trees here and every toll of
    the simulation engine, so it must be elementwise: given scalars it
    returns a number, given equal-length numpy arrays (one entry per node)
    it returns an array of values or a number for all of them.  shape_sig
    is only compared with ``==`` against a nested signature, and is None
    when needs_shape is 0.  For simulations with threads > 1 the rule must
    be picklable: a module-level function, or a functools.partial of one,
    as the built-in rules are.  Tolls wrapping a patricia toll for use on
    tries carry pulled=True and gate on the root outdegree.
    """

    name: str
    chi: float
    stats_fn: callable = field(compare=False)
    shape_only: bool = True
    needs_shape: int = 0
    pulled: bool = False
    base: "TollFunction | None" = None

    def value(self, tree) -> float:
        """phi applied to a whole tree (i.e. to the fringe at its root)."""
        if tree.root is None:
            return 0.0
        return evaluate_additive(self, tree, _root_toll_only=True)

    def __repr__(self):
        return f"TollFunction({self.name!r})"


def _toll_cap(tolls):
    return max((t.needs_shape for t in tolls), default=0)


def evaluate_additive(tolls, tree, _root_toll_only=False):
    """Evaluate additive functionals (or just the root toll) in one post-order pass.

    ``tolls`` may be a single TollFunction or a sequence; the result is a
    float or a numpy vector accordingly.  Pulled-back tolls require a Trie;
    plain tolls evaluate on either tree kind from its own structure.
    """
    single = isinstance(tolls, TollFunction)
    toll_list = [tolls] if single else list(tolls)
    is_trie = isinstance(tree, Trie)
    for t in toll_list:
        if t.pulled and not is_trie:
            raise ValueError(f"{t.name} is a pulled-back toll and applies to tries only")

    want_pat = is_trie and any(t.pulled for t in toll_list)
    cap = _toll_cap(toll_list)
    totals = np.zeros(len(toll_list))

    if tree.root is None:
        return float(totals[0]) if single else totals

    def node_stats(chars, child_stats):
        outdeg = len(child_stats)
        if outdeg == 0:
            return _Stats(1, 1, 0, 1, _LEAF_SIG if cap >= 1 else None)
        leaf_count = sum(s.leaf_count for s in child_stats)
        node_count = 1 + sum(s.node_count for s in child_stats)
        essential = max(0, 1 - sum(s.essential for s in child_stats))
        sig = None
        if cap and leaf_count <= cap:
            sig = tuple((a, s.shape_sig) for a, s in zip(chars, child_stats))
        return _Stats(leaf_count, node_count, outdeg, essential, sig)

    def pat_project(chars, direct, child_pats):
        if direct.outdeg == 1:
            return child_pats[0]
        if direct.outdeg == 0:
            return direct
        node_count = 1 + sum(s.node_count for s in child_pats)
        essential = max(0, 1 - sum(s.essential for s in child_pats))
        sig = None
        if cap and direct.leaf_count <= cap:
            sig = tuple((a, s.shape_sig) for a, s in zip(chars, child_pats))
        return _Stats(direct.leaf_count, node_count, direct.outdeg, essential, sig)

    def apply_tolls(direct, pat, out):
        for j, t in enumerate(toll_list):
            if t.pulled:
                if direct.outdeg != 1:
                    out[j] += t.base.stats_fn(pat)
            else:
                out[j] += t.stats_fn(direct)

    # iterative post-order: (sorted child items, next child idx, child stats, child pat stats)
    stack = [(sorted(tree.root.children.items()), 0, [], [])]
    root_result = None
    while stack:
        items, idx, stats_acc, pat_acc = stack[-1]
        if idx < len(items):
            stack[-1] = (items, idx + 1, stats_acc, pat_acc)
            child = items[idx][1]
            stack.append((sorted(child.children.items()), 0, [], []))
            continue
        stack.pop()
        chars = [a for a, _ in items]
        direct = node_stats(chars, stats_acc)
        pat = pat_project(chars, direct, pat_acc) if want_pat else direct
        if not stack:
            root_result = (direct, pat)
        if not _root_toll_only:
            apply_tolls(direct, pat, totals)
        if stack:
            stack[-1][2].append(direct)
            stack[-1][3].append(pat)

    if _root_toll_only:
        direct, pat = root_result
        totals = np.zeros(len(toll_list))
        apply_tolls(direct, pat, totals)
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

    Requires a shape-only toll; the result is zero on trees whose root has
    exactly one child and phi(compress(T)) elsewhere, so that the induced
    functional on any trie equals phi's functional on its patricia trie.
    """
    if not phi.shape_only:
        raise ShapeDependence(f"{phi.name} may depend on prefix attributes and has no pullback")
    if phi.pulled:
        raise ValueError("toll is already a pullback")
    return TollFunction(
        name=f"pullback({phi.name})",
        chi=phi.chi,
        stats_fn=phi.stats_fn,
        pulled=True,
        base=phi,
        needs_shape=phi.needs_shape,
    )


# module-level evaluation rules: bound with functools.partial so tolls (and
# simulation configs holding them) stay picklable for worker processes


def _count_is(st, k):
    return (st.leaf_count == k) * 1.0


def _count_at_least(st, k):
    return (st.leaf_count >= k) * 1.0


def _is_internal(st):
    return (st.node_count > 1) * 1.0


def _is_lone_leaf(st):
    return (st.node_count == 1) * 1.0


def _matches_signature(st, sig):
    return (st.shape_sig == sig) * 1.0


def _is_essential(st):
    return st.essential * 1.0


def phi_k(k: int) -> TollFunction:
    """Indicator of fringe subtrees holding exactly k keys."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return TollFunction(
        name=f"k={k}",
        chi=1.0 if k == 1 else 0.0,
        stats_fn=partial(_count_is, k=k),
    )


def phi_geq(k: int) -> TollFunction:
    """Indicator of fringe subtrees holding at least k keys."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return TollFunction(
        name=f"geq={k}",
        chi=1.0 if k <= 1 else 0.0,
        stats_fn=partial(_count_at_least, k=k),
    )


def phi_internal() -> TollFunction:
    """Indicator of fringe subtrees with more than one node: counts internal nodes."""
    return TollFunction(name="internal", chi=0.0, stats_fn=_is_internal)


def phi_leaf() -> TollFunction:
    """Indicator of the single-node fringe: counts leaves."""
    return TollFunction(name="leaf", chi=1.0, stats_fn=_is_lone_leaf)


def phi_shape(shape) -> TollFunction:
    """Indicator of fringe subtrees structurally equal to a fixed shape."""
    sig0 = shape_signature(shape)
    if sig0 == ():
        raise ValueError("the empty tree is not a shape")
    root = shape.root if hasattr(shape, "root") else shape
    k0 = root.leaf_count
    return TollFunction(
        name=f"shape[{k0}]",
        chi=1.0 if sig0 == _LEAF_SIG else 0.0,
        stats_fn=partial(_matches_signature, sig=sig0),
        needs_shape=k0,
    )


def phi_alpha() -> TollFunction:
    """Essentiality indicator: 1 when no child's fringe is essential.

    Summing it gives the independence number: every maximum independent set
    consists exactly of the essential nodes' worth of vertices, and the
    recursion phi(T) = max(0, 1 - sum_b phi(T^b)) computes the indicator
    bottom-up in the same pass as everything else.
    """
    return TollFunction(name="alpha", chi=1.0, stats_fn=_is_essential)


def independence_number(tree) -> int:
    """alpha(T) via the essentiality functional."""
    return int(round(evaluate_additive(phi_alpha(), tree)))


def matching_number(tree) -> int:
    """Maximum matching size of a tree: node count minus independence number."""
    if tree.root is None:
        raise EmptyTree("matching number undefined on the empty tree")
    return tree.node_count() - independence_number(tree)


BRUTE_FORCE_NODE_LIMIT = 25


def brute_force_independence(tree) -> int:
    """Exact maximum-independent-set size by take/skip dynamic programming.

    Independent of the essentiality recursion; guarded to small trees.
    """
    if tree.root is None:
        return 0
    if tree.node_count() > BRUTE_FORCE_NODE_LIMIT:
        raise LimitExceeded(
            f"brute-force independence limited to {BRUTE_FORCE_NODE_LIMIT} nodes, got {tree.node_count()}"
        )

    def dp(node):
        take, skip = 1, 0
        for child in node.children.values():
            c_take, c_skip = dp(child)
            take += c_skip
            skip += max(c_take, c_skip)
        return take, skip

    return max(dp(tree.root))
