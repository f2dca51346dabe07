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
from functools import lru_cache

import numpy as np

from .errors import DepthExceeded, InvalidPath, LimitExceeded, UnaryNode
from .source import SourceDistribution

DEFAULT_MAX_DEPTH = 10_000


class TrieNode:
    __slots__ = ("children", "key_index", "leaf_count", "node_count")

    def __init__(self, children=None, key_index=None):
        self.children = children if children is not None else {}
        self.key_index = key_index
        self.leaf_count = 1 if not self.children else sum(c.leaf_count for c in self.children.values())
        self.node_count = 1 + sum(c.node_count for c in self.children.values())

    @property
    def is_leaf(self):
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, TrieNode):
            return NotImplemented
        return self.key_index == other.key_index and self.children == other.children

    def __hash__(self):
        return hash((self.key_index, tuple(sorted(self.children.items(), key=lambda kv: kv[0]))))


class PatriciaNode:
    __slots__ = ("children", "prefix", "key_index", "leaf_count", "node_count")

    def __init__(self, children=None, prefix=(), key_index=None):
        self.children = children if children is not None else {}
        self.prefix = tuple(prefix)
        self.key_index = key_index
        self.leaf_count = 1 if not self.children else sum(c.leaf_count for c in self.children.values())
        self.node_count = 1 + sum(c.node_count for c in self.children.values())

    @property
    def is_leaf(self):
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, PatriciaNode):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.key_index == other.key_index
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.prefix, self.key_index, tuple(sorted(self.children.items(), key=lambda kv: kv[0]))))


class _Tree:
    """Shared wrapper: root node (None = empty tree), alphabet size, key count."""

    node_cls = None

    def __init__(self, root, m, num_keys):
        self.root = root
        self.m = m
        self.num_keys = num_keys

    @property
    def is_empty(self):
        return self.root is None

    def node_count(self):
        return 0 if self.root is None else self.root.node_count

    def leaf_count(self):
        return 0 if self.root is None else self.root.leaf_count

    def nodes(self):
        """All nodes in preorder, children visited in alphabet order."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for a in sorted(node.children, reverse=True):
                stack.append(node.children[a])

    def paths(self):
        """(path, node) pairs in preorder; paths are tuples of split characters."""
        if self.root is None:
            return
        stack = [((), self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for a in sorted(node.children, reverse=True):
                stack.append((path + (a,), node.children[a]))

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
    node_cls = TrieNode

    def has_unary_nodes(self):
        return any(len(node.children) == 1 for node in self.nodes())


class PatriciaTrie(_Tree):
    node_cls = PatriciaNode

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


def build_trie(keys, m=None, max_depth: int = DEFAULT_MAX_DEPTH) -> Trie:
    """Build the trie of a key set by splitting on successive characters.

    The empty set gives the empty tree, a singleton a lone leaf; otherwise
    the root splits the keys by their first character and recurses.  Raises
    DepthExceeded when two keys agree on ``max_depth`` characters.
    """
    ks = _as_keyset(keys, m)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    def build(indices, depth):
        if len(indices) == 1:
            return TrieNode(key_index=indices[0])
        if depth >= max_depth:
            raise DepthExceeded(max_depth)
        groups = {}
        for i in indices:
            groups.setdefault(ks.keys[i][depth], []).append(i)
        children = {a: build(sub, depth + 1) for a, sub in sorted(groups.items())}
        return TrieNode(children=children)

    root = None if not ks.keys else build(list(range(len(ks.keys))), 0)
    return Trie(root, ks.m, len(ks.keys))


def build_patricia(keys, m=None, max_depth: int = DEFAULT_MAX_DEPTH) -> PatriciaTrie:
    """Build the patricia trie directly: split on the first non-common character.

    The skipped common characters accumulate in each node's prefix attribute.
    Structurally equal to compress(build_trie(keys)) on any key set.
    """
    ks = _as_keyset(keys, m)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    def build(indices, depth):
        if len(indices) == 1:
            return PatriciaNode(key_index=indices[0])
        prefix = []
        while True:
            if depth >= max_depth:
                raise DepthExceeded(max_depth)
            first = ks.keys[indices[0]][depth]
            if all(ks.keys[i][depth] == first for i in indices[1:]):
                prefix.append(first)
                depth += 1
                continue
            break
        groups = {}
        for i in indices:
            groups.setdefault(ks.keys[i][depth], []).append(i)
        children = {a: build(sub, depth + 1) for a, sub in sorted(groups.items())}
        return PatriciaNode(children=children, prefix=tuple(prefix))

    root = None if not ks.keys else build(list(range(len(ks.keys))), 0)
    return PatriciaTrie(root, ks.m, len(ks.keys))


def compress(t: Trie) -> PatriciaTrie:
    """Merge every chain of unary nodes of a trie into its youngest node.

    The merged characters are prepended into the surviving node's prefix
    attribute; the resulting node set is in bijection with the trie nodes
    that do not have exactly one child.
    """

    def squeeze(node):
        prefix = []
        cur = node
        while len(cur.children) == 1:
            (a, child), = cur.children.items()
            prefix.append(a)
            cur = child
        children = {a: squeeze(c) for a, c in sorted(cur.children.items())}
        return PatriciaNode(children=children, prefix=tuple(prefix), key_index=cur.key_index)

    root = None if t.root is None else squeeze(t.root)
    return PatriciaTrie(root, t.m, t.num_keys)


def fringe(t: _Tree, path):
    """The subtree rooted at ``path``, re-rooted.

    For patricia tries the new root's prefix attribute is cleared (a fringe
    tree carries no common prefix in its root).  Paths are tuples of split
    characters from the root; strings like '10' are accepted.
    """
    if isinstance(path, str):
        path = key_from_string(path)
    node = t.node_at(tuple(path))
    if isinstance(node, PatriciaNode) and node.prefix:
        node = PatriciaNode(children=node.children, prefix=(), key_index=node.key_index)
    return type(t)(node, t.m, node.leaf_count)


MAX_ENUMERATION_KEYS = 10


def _compositions(total, parts):
    """All orderings of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _shapes(k, m):
    if k == 1:
        return (PatriciaNode(),)
    out = []
    for size in range(2, m + 1):
        for chars in itertools.combinations(range(m), size):
            for comp in _compositions(k, size):
                for subs in itertools.product(*(_shapes(j, m) for j in comp)):
                    out.append(PatriciaNode(children=dict(zip(chars, subs))))
    return tuple(out)


def enumerate_patricia_shapes(k: int, m: int) -> list[PatriciaTrie]:
    """All distinct m-ary trees with k leaves and no unary node, each once.

    Shapes carry neither prefixes nor key labels.  Guarded to k <= 10
    against combinatorial blowup.
    """
    if not 1 <= k <= MAX_ENUMERATION_KEYS:
        raise LimitExceeded(f"shape enumeration supports 1 <= k <= {MAX_ENUMERATION_KEYS}, got {k}")
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    return [PatriciaTrie(node, m, k) for node in _shapes(k, m)]


def shape_signature(t) -> tuple:
    """Canonical structure of a tree, ignoring prefixes and key labels."""
    node = t.root if isinstance(t, _Tree) else t
    if node is None:
        return ()

    def sig(n):
        if not n.children:
            return "*"
        return tuple((a, sig(c)) for a, c in sorted(n.children.items()))

    return sig(node)


def shape_string(t) -> str:
    """Parenthesized text form of a shape: leaves '*', children 'char:sub'."""
    node = t.root if isinstance(t, _Tree) else t
    if node is None:
        return ""

    def render(n):
        if not n.children:
            return "*"
        return "(" + ",".join(f"{a}:{render(c)}" for a, c in sorted(n.children.items())) + ")"

    return render(node)


def shape_probability(shape, d: SourceDistribution) -> float:
    """Exact probability that the patricia trie of k i.i.d. keys equals this shape.

    Equals k! * prod_{leaves v} p_v * prod_{internal w} 1/(1 - rho(|T^w|_e)),
    where p_v is the probability of the leaf's path in the tree structure.
    """
    root = shape.root if isinstance(shape, _Tree) else shape
    if root is None:
        raise ValueError("the empty tree is not a patricia shape")
    k = root.leaf_count
    acc = math.factorial(k)

    def walk(node, path_prob):
        nonlocal acc
        if not node.children:
            acc *= path_prob
            return
        if len(node.children) == 1:
            raise UnaryNode("shape contains a node with exactly one child")
        acc *= 1.0 / (1.0 - d.rho(node.leaf_count))
        for a, c in node.children.items():
            walk(c, path_prob * d.probs[a])

    walk(root, 1.0)
    return acc


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
        return self.block.char(self.row, i)


KEY_BLOCK_WIDTH = 32


class CharBlocks:
    """Random characters of the keys of one or more replicates, drawn 32 columns at a time.

    Replicate r owns counts[r] consecutive rows and draws them from its own
    generator in a fixed sequence of (counts[r], 32) blocks, so the
    characters depend on neither the pooling of replicates nor the moment
    of deepening; a replicate with no keys draws nothing.  Deepening
    appends one row-major (total, 32) block to a list and column t is
    column t % 32 of block t // 32, so no drawn block is copied again.
    """

    def __init__(self, d: SourceDistribution, rngs, counts):
        self.d = d
        self.rngs = rngs
        self.counts = [int(c) for c in counts]
        self.total = sum(self.counts)
        self.blocks = []
        self._draw_block()

    def _draw_block(self):
        block = np.empty((self.total, KEY_BLOCK_WIDTH), np.int8)
        at = 0
        for rng, c in zip(self.rngs, self.counts):
            if c:
                block[at : at + c] = self.d.draw_chars(rng, (c, KEY_BLOCK_WIDTH))
                at += c
        self.blocks.append(block)

    def _block_of(self, t):
        while t >= len(self.blocks) * KEY_BLOCK_WIDTH:
            self._draw_block()
        return self.blocks[t // KEY_BLOCK_WIDTH]

    def column(self, t):
        return self._block_of(t)[:, t % KEY_BLOCK_WIDTH]

    def char(self, row, i):
        return int(self._block_of(i)[row, i % KEY_BLOCK_WIDTH])


def random_key_set(d: SourceDistribution, n: int, rng: np.random.Generator) -> KeySet:
    """A KeySet of n lazily materialized random keys from the source."""
    ks = KeySet([], d.m)
    block = CharBlocks(d, [rng], [n])
    ks.keys = [_BlockKey(block, r) for r in range(n)]
    return ks
