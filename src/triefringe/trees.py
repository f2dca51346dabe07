"""Tries and patricia tries over a finite alphabet {0, .., m-1}.

A trie splits a key set on successive characters and may contain nodes of
outdegree 1; a patricia trie is the same tree with every chain of unary
nodes merged away, the merged characters kept as a per-node common-prefix
attribute.  Keys are finite tuples of ints or lazy infinite streams (any
object indexable by character position); key sets must be pairwise
distinct and prefix-free.

Besides construction this module provides fringe (subtree) extraction,
exhaustive enumeration of small patricia shapes, the exact probability of
a given shape under a memoryless source, and the distribution of the
common-prefix attribute conditioned on the shape.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

import numpy as np

from .errors import DepthExceeded, InvalidPath, LimitExceeded, UnaryNode
from .source import SourceDistribution

DEFAULT_MAX_DEPTH = 10_000


class _Node:
    """A tree node: children by character, the common prefix of its keys
    (always () in a trie), the index of its key at a leaf, and its leaf
    and node counts."""

    __slots__ = ("children", "prefix", "key_index", "leaf_count", "node_count")

    def __init__(self, children=None, key_index=None, prefix=()):
        self.children = children = {} if children is None else children
        self.prefix = tuple(prefix)
        self.key_index = key_index
        if children:
            kids = children.values()
            self.leaf_count = sum([c.leaf_count for c in kids])
            self.node_count = 1 + sum([c.node_count for c in kids])
        else:
            self.leaf_count = self.node_count = 1

    @property
    def is_leaf(self):
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return _same_tree(self, other)

    def __hash__(self):
        return _bottom_up(self, lambda n, items: hash((n.prefix, n.key_index, tuple(items))))


class TrieNode(_Node):
    __slots__ = ()


class PatriciaNode(_Node):
    __slots__ = ()


def _same_tree(a, b):
    """Equality of two nodes without recursion, so any depth works: equal
    types, prefixes and keys and, under equal characters, equal children.
    The walk carries b's node at a's place, and reaches a child only after
    both parents' characters compared equal; a shared subtree is walked
    too, but each of its places compares by identity alone."""
    return all(
        x is y
        or (type(x) is type(y) and x.children.keys() == y.children.keys() and x.prefix == y.prefix and x.key_index == y.key_index)
        for x, y in _preorder(a, b, lambda y, ch: y.children[ch])
    )


def _preorder(root, state, step):
    """(node, state) pairs of a tree in preorder, children in ascending
    character order whatever their dict order, and nothing for the empty
    tree (root None).  A child's state is ``step(parent state, char)``,
    made when the walk resumes past the parent, so a reader that stops at
    a node makes none of its children's.  One explicit stack, no recursion,
    so any depth works."""
    if root is None:
        return
    stack = [(root, state)]
    while stack:
        node, state = item = stack.pop()
        yield item
        if children := node.children:
            for a in sorted(children, reverse=True):
                stack.append((children[a], step(state, a)))


class _Tree:
    """Shared wrapper: root node (None = empty tree) and alphabet size."""

    def __init__(self, root, m):
        self.root = root
        self.m = m

    @property
    def is_empty(self):
        return self.root is None

    @property
    def num_keys(self):
        """The key count: the root's leaf count."""
        return self.leaf_count()

    def node_count(self):
        return 0 if self.root is None else self.root.node_count

    def leaf_count(self):
        return 0 if self.root is None else self.root.leaf_count

    def nodes(self):
        """All nodes in preorder, children visited in alphabet order."""
        return map(itemgetter(0), _preorder(self.root, None, lambda state, a: None))

    def paths(self):
        """(path, node) pairs in preorder; paths are tuples of split characters."""
        return map(itemgetter(1, 0), _preorder(self.root, (), lambda path, a: path + (a,)))

    def node_at(self, path):
        if self.root is None:
            raise InvalidPath(f"empty tree has no node at {path!r}")
        node = self.root
        for a in path:
            child = node.children.get(a)
            if child is None:
                raise InvalidPath(f"no node at path {tuple(path)!r}")
            node = child
        return node

    def __eq__(self, other):
        if not isinstance(other, _Tree):
            return NotImplemented
        return type(self) is type(other) and self.m == other.m and self.root == other.root


class Trie(_Tree):
    """A trie; unlike a patricia trie it may contain nodes of outdegree 1."""


class PatriciaTrie(_Tree):
    def validate(self):
        """Check the structural invariant: no node of outdegree exactly 1."""
        for node in self.nodes():
            if len(node.children) == 1:
                raise UnaryNode("patricia trie contains a node with exactly one child")
        return True


def key_from_string(s: str) -> tuple[int, ...]:
    """Convert a character-digit string like '1000' into a key tuple."""
    return tuple(int(ch) for ch in s)


def _is_finite_key(key) -> bool:
    return hasattr(key, "__len__")


class KeySet:
    """A finite list of pairwise-distinct, mutually prefix-free keys.

    Finite keys are normalized to int tuples and validated eagerly; lazy
    streams are validated implicitly during construction (a violation
    surfaces as DepthExceeded).
    """

    def __init__(self, keys, m: int):
        if m < 2:
            raise ValueError("alphabet size must be >= 2")
        self.m = m
        self.keys = []
        finite = []
        for key in keys:
            if isinstance(key, str):
                key = key_from_string(key)
            if _is_finite_key(key):
                key = tuple(int(c) for c in key)
                for c in key:
                    if not 0 <= c < m:
                        raise ValueError(f"character {c} outside alphabet of size {m}")
                finite.append(key)
            self.keys.append(key)
        self._validate_finite(finite)

    @staticmethod
    def _validate_finite(finite):
        if len(set(finite)) != len(finite):
            raise ValueError("keys must be pairwise distinct")
        for a, b in zip(sorted(finite), sorted(finite)[1:]):
            if len(a) <= len(b) and b[: len(a)] == a:
                raise ValueError(f"key {a!r} is a prefix of {b!r}")

    def __len__(self):
        return len(self.keys)


def _as_keyset(keys, m):
    if isinstance(keys, KeySet):
        return keys
    if m is None:
        raise ValueError("alphabet size m is required when keys are not a KeySet")
    return KeySet(keys, m)


def _build(keys, m, max_depth, combine):
    """The root and alphabet size of the tree that splits a key set on
    successive characters.

    The empty set gives no root, a singleton a lone leaf.  A subset of two
    or more keys is grouped by one character at a time until it splits;
    its node is worth ``combine((None, chain), [(char, child), ...])``,
    where chain lists the characters all its keys share before the split,
    and a leaf ``combine((key index, ()), [])``.  Nothing recurses (a chain
    is grouped in a loop, the rest is one ``_fold``), so any depth works.
    Raises DepthExceeded when two keys agree on ``max_depth`` characters.
    """
    ks = _as_keyset(keys, m)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    def expand(task):
        """A key subset's key and chain (its label) and its split."""
        indices, depth = task
        if len(indices) == 1:
            return (indices[0], ()), (), ()
        chain = []
        while True:
            if depth >= max_depth:
                raise DepthExceeded(max_depth)
            groups = {}
            for i in indices:
                groups.setdefault(ks.keys[i][depth], []).append(i)
            depth += 1
            if len(groups) >= 2:
                break
            chain.append(next(iter(groups)))
        chars = sorted(groups)
        return (None, chain), chars, [(groups[a], depth) for a in chars]

    root = None if not ks.keys else _fold((list(range(len(ks.keys))), 0), expand, combine)
    return root, ks.m


def _trie_node(label, items):
    """A trie node with its chain spelled out above it as unary nodes."""
    key, chain = label
    node = TrieNode(dict(items), key)
    for a in reversed(chain):
        node = TrieNode({a: node})
    return node


def build_trie(keys, m=None, max_depth: int = DEFAULT_MAX_DEPTH) -> Trie:
    """Build the trie of a key set by splitting on successive characters.

    The empty set gives the empty tree, a singleton a lone leaf; otherwise
    the root splits the keys by their first character and each group is
    built the same way, any depth without recursion.  Raises DepthExceeded
    when two keys agree on ``max_depth`` characters.
    """
    return Trie(*_build(keys, m, max_depth, _trie_node))


def build_patricia(keys, m=None, max_depth: int = DEFAULT_MAX_DEPTH) -> PatriciaTrie:
    """Build the patricia trie directly: split on the first non-common character.

    The skipped common characters become the node's prefix attribute.  The
    key split is build_trie's, so this equals compress(build_trie(keys)) on
    any key set, and any depth works.
    """
    return PatriciaTrie(*_build(keys, m, max_depth, lambda label, items: PatriciaNode(dict(items), *label)))


def compress(t: Trie) -> PatriciaTrie:
    """Merge every chain of unary nodes of a trie into its youngest node.

    The merged characters are prepended into the surviving node's prefix
    attribute; the resulting node set is in bijection with the trie nodes
    that do not have exactly one child.  One fold from the leaves up, with
    no recursion, so any depth works: a node passes up the children, prefix
    and key of its patricia node, and a unary node passes up its child's,
    one character longer.  A prefix is built reversed, so that lengthening
    it is one append.
    """

    def squeeze(node, items):
        if len(items) == 1:
            ((a, (children, rev_prefix, key)),) = items
            rev_prefix.append(a)  # each value is read by its parent alone
            return children, rev_prefix, key
        return {a: PatriciaNode(c, k, p[::-1]) for a, (c, p, k) in items}, [], node.key_index

    root = None
    if t.root is not None:
        children, rev_prefix, key = _bottom_up(t.root, squeeze)
        root = PatriciaNode(children, key, rev_prefix[::-1])
    return PatriciaTrie(root, t.m)


def fringe(t: _Tree, path):
    """The subtree rooted at ``path``, re-rooted.

    For patricia tries the new root's prefix attribute is cleared (a fringe
    tree carries no common prefix in its root).  Paths are tuples of split
    characters from the root; strings like '10' are accepted.
    """
    if isinstance(path, str):
        path = key_from_string(path)
    node = t.node_at(tuple(path))
    if node.prefix:
        node = type(node)(node.children, node.key_index)
    return type(t)(node, t.m)


# enumerate_patricia_shapes holds every shape it returns, 409-539 bytes
# each under tracemalloc, so 2^18 shapes take up to about 140 MB
MAX_ENUMERATION_SHAPES = 1 << 18


def _compositions(total, parts):
    """All orderings of ``total`` into ``parts`` positive integers, in
    lexicographic order: the gaps between ascending cut points."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def _shapes(k, m):
    """The shapes of 1, 2, .., k leaves in turn, the smaller ones shared as
    subtrees; the table is dropped when the call returns."""
    by_size = [None, (PatriciaNode(),)]
    for j in range(2, k + 1):
        out = []
        for size in range(2, min(m, j) + 1):
            for chars in itertools.combinations(range(m), size):
                for comp in _compositions(j, size):
                    for subs in itertools.product(*(by_size[i] for i in comp)):
                        out.append(PatriciaNode(children=dict(zip(chars, subs))))
        by_size.append(tuple(out))
    return by_size[k]


def count_patricia_shapes(k: int, m: int) -> int:
    """The number of m-ary trees with k leaves and no unary node.

    One at k = 1; the count of j leaves sums, over s = 2..m children,
    C(m, s) choices of their characters times the ordered ways ``seq[j]``
    for s subtrees to hold j leaves in all, convolved from the counts of
    fewer leaves, and a table keeps the counts of 1, 2, .., k - 1 leaves.
    """
    counts = [0, 1]
    for j in range(2, k + 1):
        seq, total = counts, 0
        for s in range(2, min(m, j) + 1):
            seq = [sum(seq[i] * counts[t - i] for i in range(1, t)) for t in range(j + 1)]
            total += math.comb(m, s) * seq[j]
        counts.append(total)
    return counts[k] if k >= 0 else 0


def enumerate_patricia_shapes(k: int, m: int) -> list[PatriciaTrie]:
    """All distinct m-ary trees with k leaves and no unary node, each once.

    Shapes carry neither prefixes nor key labels, and the call keeps
    nothing.  The shapes of 1, 2, .. leaves are counted before any is built,
    and the first count past MAX_ENUMERATION_SHAPES (2^18) refuses k: counts
    never fall as k grows, and by k = 14 the binary shapes alone pass it.
    The largest k is 13 for 2 letters, 7 for 3, 5 for 4 and 4 for 8.
    """
    if k < 1:
        raise LimitExceeded(f"shape enumeration needs k >= 1, got {k}")
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    for j in range(1, k + 1):
        if (count := count_patricia_shapes(j, m)) > MAX_ENUMERATION_SHAPES:
            raise LimitExceeded(
                f"{count} shapes of {j} keys over {m} letters: k = {k} is past the shape budget of {MAX_ENUMERATION_SHAPES}"
            )
    return [PatriciaTrie(node, m) for node in _shapes(k, m)]


def _fold(top, expand, combine):
    """Fold a tree from its leaves up without recursion, so any depth works.

    The tree is given by ``expand(item) -> (label, chars, child items)``,
    characters ascending (none at a leaf), and an item is worth
    ``combine(label, [(char, child value), ...])``.  Items are expanded
    depth first, lowest character first, and combine runs once per place
    in the tree, in left-to-right post-order (each child's subtree in
    ascending character order, then the item).  Each value is passed to
    its parent's combine alone, even where a subtree is shared.  Memory
    beyond the values is a stack as deep as the tree.
    """
    values, stack, pending = [], [top], []  # values: folded items whose parent is pending
    while stack:
        item = stack.pop()
        if item is None:  # the children of the innermost pending item are folded
            label, chars = pending.pop()
            items = list(zip(chars, values[-len(chars) :]))
            del values[-len(chars) :]
        else:
            label, chars, children = expand(item)
            if chars:  # fold the children first, lowest character first
                pending.append((label, chars))
                stack.append(None)
                stack.extend(reversed(children))
                continue
            items = chars
        values.append(combine(label, items))
    return values[0]


def _node_children(node):
    chars = sorted(node.children)
    return node, chars, [node.children[a] for a in chars]


def _bottom_up(node, combine):
    """Fold an existing tree with ``_fold``: a node is worth
    ``combine(node, [(char, child value), ...])``, its children in
    ascending character order whatever the order of its children dict, so
    a side effect such as a running sum happens in the same order on equal
    trees."""
    return _fold(node, _node_children, combine)


def shape_signature(t) -> tuple:
    """Canonical structure of a tree, ignoring prefixes and key labels."""
    node = t.root if isinstance(t, _Tree) else t
    if node is None:
        return ()
    return _bottom_up(node, lambda n, items: tuple(items) if items else "*")


def shape_string(t) -> str:
    """Parenthesized text form of a shape: leaves '*', children 'char:sub'."""
    node = t.root if isinstance(t, _Tree) else t
    if node is None:
        return ""
    return _bottom_up(node, lambda n, items: "(" + ",".join(f"{a}:{sub}" for a, sub in items) + ")" if items else "*")


def shape_probability(shape, d: SourceDistribution) -> float:
    """Exact probability that the patricia trie of k i.i.d. keys equals this shape.

    Equals k! * prod_{leaves v} p_v * prod_{internal w} 1/(1 - rho(|T^w|_e)),
    where p_v is the probability of the leaf's path in the tree structure.
    The factors are multiplied in preorder, each product rounded as float
    arithmetic rounds it, but every partial product (and path probability)
    keeps its binary exponent apart (``math.frexp``), so none overflows or
    underflows: any k works, a value below the float range is 0.0, and
    every value inside it has the bits of the plain float product.  A
    shape with a character outside the source's alphabet is 0.0, as the
    engine never draws one.
    """
    root = shape.root if isinstance(shape, _Tree) else shape
    if root is None:
        raise ValueError("the empty tree is not a patricia shape")
    k_factorial = math.factorial(root.leaf_count)
    shift = max(0, k_factorial.bit_length() - 64)
    acc, acc_exp = math.frexp(k_factorial / (1 << shift))  # int / int rounds correctly
    acc_exp += shift
    # its own stack, not _preorder: made through step(), the path
    # probabilities cost the whole law 8-24 % more time
    stack = [(root, 1.0, 0)]  # a node and its path probability, as mantissa and exponent
    while stack:
        node, path, path_exp = stack.pop()
        if not node.children:
            factor, factor_exp = path, path_exp
        else:
            if len(node.children) == 1:
                raise UnaryNode("shape contains a node with exactly one child")
            factor, factor_exp = 1.0 / (1.0 - d.rho(node.leaf_count)), 0
            for a, child in reversed(node.children.items()):
                if not 0 <= a < d.m:
                    return 0.0
                sub, sub_exp = math.frexp(path * d.probs[a])
                stack.append((child, sub, path_exp + sub_exp))
        acc, exp = math.frexp(acc * factor)
        acc_exp += exp + factor_exp
    return math.ldexp(acc, acc_exp)


class PrefixLaw:
    """Distribution of the common-prefix attribute of a node with i >= 2 keys.

    Point masses q_i({alpha}) = p_alpha^i * (1 - rho(i)); the induced length
    law is Geom_0(1 - rho(i)).  Provides point-mass queries and a sampler.
    """

    def __init__(self, i: int, d: SourceDistribution):
        if i < 2:
            raise ValueError("prefix law defined for nodes with at least 2 keys")
        self.i = i
        self.d = d
        self.rho_i = d.rho(i)
        # character law tilted by the i-th power
        tilted = np.array([p**i for p in d.probs])
        tilted /= tilted.sum()
        self._tilted_cum_head = np.cumsum(tilted[:-1])

    def mass(self, alpha) -> float:
        """q_i({alpha}) for a finite string alpha (tuple of chars)."""
        if isinstance(alpha, str):
            alpha = key_from_string(alpha)
        p_alpha = math.prod(self.d.probs[a] for a in alpha)
        return p_alpha**self.i * (1.0 - self.rho_i)

    def length_pmf(self, n: int) -> float:
        """P(|prefix| = n) = (1 - rho(i)) * rho(i)^n."""
        return (1.0 - self.rho_i) * self.rho_i**n

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        length = rng.geometric(1.0 - self.rho_i) - 1
        if length == 0:
            return ()
        u = rng.random(length)
        return tuple(int(c) for c in np.searchsorted(self._tilted_cum_head, u, side="right"))


class _BlockKey:
    """One row of a shared, lazily deepened random character matrix."""

    __slots__ = ("block", "row")

    def __init__(self, block, row):
        self.block = block
        self.row = row

    def __getitem__(self, i):
        return int(self.block.column(i)[self.row])


KEY_BLOCK_WIDTH = 32
# a gap of fewer rows than this between two rows a block needs is drawn
# with them: skipping it costs an advance and one more draw call, about as
# much as drawing a few dozen rows
_SKIP_MIN_ROWS = 16


class CharBlocks:
    """Random characters of the keys of one or more replicates, drawn 32 columns at a time.

    Replicate r owns counts[r] consecutive rows and draws them from its own
    generator in a fixed sequence of (counts[r], 32) blocks, so the
    characters depend on neither the pooling of replicates nor the moment
    of deepening; a replicate with no keys draws nothing.  Deepening
    appends one row-major block to a list and column t is column t % 32 of
    block t // 32, so no drawn block is copied again.

    A read may name the rows it needs (``active``, ascending; None is every
    row), and a block past the first is drawn only for the rows named by
    the read that first reaches it: each run of those rows is drawn where
    a full draw would put it, and the generator is advanced over the rows
    between runs and after the last one, so it ends where a full draw
    leaves it.  A sparse block keeps the slot of each row it holds, and a
    read of a row it does not hold gets the characters of its first slot.
    Only a smaller one of the nested key sets of one CharBlocks
    (``slln_track``) names such rows: in mid-pass, keys that a larger set
    found alone before the block and that the smaller set has found alone
    too, so it never uses their characters there.  The first block holds
    every row; a read of every row (None) from a sparse block raises
    ValueError.
    """

    def __init__(self, d: SourceDistribution, rngs, counts):
        if len(rngs) != len(counts):
            raise ValueError(f"{len(rngs)} generators for {len(counts)} replicate counts: one each")
        self.d = d
        self.rngs = rngs
        self.counts = [int(c) for c in counts]
        self.starts = [0, *itertools.accumulate(self.counts)]
        self.total = self.starts[-1]
        self.blocks = []
        self.slots = []
        self._draw_block(None)

    def _runs(self, active):
        """Per replicate, the (first, end) runs of its rows that a block draws:
        all of them, or the rows in ``active`` joined across short gaps."""
        if active is None:
            return [[(0, c)] if c else [] for c in self.counts]
        runs = []
        bounds = np.searchsorted(active, self.starts).tolist()
        for r, start in enumerate(self.starts[:-1]):
            local = active[bounds[r] : bounds[r + 1]] - start
            if not local.size:
                runs.append([])
                continue
            cut = np.flatnonzero(np.diff(local) > _SKIP_MIN_ROWS) + 1
            firsts, ends = local[np.r_[0, cut]], local[np.r_[cut - 1, -1]] + 1
            runs.append(list(zip(firsts.tolist(), ends.tolist())))
        return runs

    def _draw_block(self, active):
        width = KEY_BLOCK_WIDTH
        runs = self._runs(active)
        block = np.empty((sum(hi - lo for rep in runs for lo, hi in rep), width), np.int8)
        # a sparse block's slot of each drawn row, and of any other row slot 0
        slot = None if active is None else np.zeros(self.total, np.intp)
        at = 0
        for rng, start, c, rep in zip(self.rngs, self.starts, self.counts, runs):
            row = 0  # the row the generator stands at
            for lo, hi in rep:
                # Python ints: advance overflows on some numpy integer deltas
                if lo > row:
                    rng.bit_generator.advance(width * (lo - row))
                block[at : at + hi - lo] = self.d.draw_chars(rng, (hi - lo, width))
                if slot is not None:
                    slot[start + lo : start + hi] = np.arange(at, at + hi - lo)
                at += hi - lo
                row = hi
            if c > row:
                rng.bit_generator.advance(width * (c - row))
        self.blocks.append(block)
        self.slots.append(slot)

    def column(self, t, active=None):
        """Column t at the rows ``active`` (ascending; None for every row)."""
        while t >= len(self.blocks) * KEY_BLOCK_WIDTH:
            self._draw_block(active)
        col = self.blocks[t // KEY_BLOCK_WIDTH][:, t % KEY_BLOCK_WIDTH]
        slot = self.slots[t // KEY_BLOCK_WIDTH]
        if slot is not None:
            if active is None:
                raise ValueError(f"block {t // KEY_BLOCK_WIDTH} was drawn for named rows; a read of it must name them")
            return col[slot[active]]
        return col if active is None else col[active]


def random_key_set(d: SourceDistribution, n: int, rng: np.random.Generator) -> KeySet:
    """A KeySet of n lazily materialized random keys from the source."""
    ks = KeySet([], d.m)
    block = CharBlocks(d, [rng], [n])
    ks.keys = [_BlockKey(block, r) for r in range(n)]
    return ks
