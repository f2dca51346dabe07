"""Seeded Monte Carlo over random tries and patricia tries.

Replicates draw a key count (fixed n or Poisson(lam)), grow the keys
lazily from the source, and evaluate a batch of additive functionals on
the patricia trie (and, when requested, the plain functionals on the trie
of the same keys).  Each replicate owns a generator derived by hashing
(master_seed, replicate_index), so results are bit-identical for a given
seed regardless of the block plan or worker count, and replicates are
statistically independent.

Every toll runs through one vectorized engine that never materializes
tree objects: a replicate (or a block of replicates, processed as one
forest) is grouped into one table of trie nodes.  Keys carrying the same
character prefix form a group; groups with one key are leaves, groups with
at least two are trie nodes that split on the next character column.
Grouping takes several levels per pass: each key still in a node of two
or more keys is coded by that node and its next few characters, one
bincount counts the keys of every cell of the deepest level, sums over
blocks of m cells give the levels above it, and the occupied cells under
nodes of two or more keys become the rows of each level.  Bottom-up
sweeps give every row the aggregates the explicit-tree evaluator computes
per node (leaf count, node count, outdegree, essentiality bit, shape), once
for the trie fringe and once for the compressed fringe, and each toll's own
rule runs elementwise on those columns; shapes are matched on the table.
Patricia nodes are the rows without exactly one child: the internal ones
the fringe histogram counts by size, and one leaf per key.

A run is planned once as blocks of consecutive replicates, as many as
are expected to hold _BLOCK_KEYS = 2^15 keys (n or lam + 1 per
replicate), or one replicate that alone holds more, and each block runs
through the whole engine (character draw, forest, tolls, histogram and
trie node counts) as one forest.  A block's arrays (a 32-column character
block is 1 MB at 2^15 keys, each row column a few hundred KB) stay near
the size of a core's L2 cache (2 MB on the 2-vCPU Xeon the size was
chosen on), and traced memory is bounded by one block.  On the
benchmark's fixed-binary runs (n = 10^4, three replicates to a block)
2^15 keys ran 10-15 % faster than blocks of 2^14 (one replicate), 2^16
or 2^17 keys; with 5*10^4-key replicates the size made no difference.
The blocks are also the tasks of one process pool kept for the life of
the process: a call hands it the blocks of all its configs as one task
list, and only with more than one thread and one task, more than
_POOL_KEYS = 2^20 expected keys in all, and no toll rule from outside
this package.  The pool has min(threads, tasks) workers; a call that
needs another count shuts the kept pool down, and waits for it, before
the new one forks.  Keeping the pool spares every call a fork and fresh
workers' cold heaps, and its workers end at interpreter exit.  A rule of
the caller's own may not pickle (a lambda or a closure), or may be
missing or stale in a worker, which keeps the module state of its fork
(a rule defined or redefined after it), so a run with such a rule runs
its blocks in the calling process at every thread count.  One forking
call at a time holds the pool; calls from other threads wait for it.  A
child forked from the process (os.fork, or a multiprocessing fork) starts
with an empty pool slot and a free lock, even when a thread of its parent
held the lock, so its first forking call starts a pool of its own.  The
library's `threads` is checked as every count is: an integer of at least
1, else ValueError, before any block runs.
Outputs are concatenated in replicate order, and since replicates own
their streams and every per-replicate sum adds in an order no other
replicate affects, neither the block plan nor the worker count changes a
single output bit.

The root statistics (sample_patricia_roots, estimate_root_essential and
the root toll of estimate_fX) run on the same engine: each
replicate's patricia root is found by following unary rows down from its
trie root, and every toll is also read at that row.

The engine fixes glibc's heap thresholds once per process, before its
first block: an allocation of 4 MiB or more gets a mapping of its own
(the mmap threshold), and the heap returns its free top to the system
only past 8 MiB (the trim threshold).  Left to glibc, both start near
128 KiB and rise only when a larger mapped block is freed.  Then a
block's arrays of a few hundred KB to a few MB come from fresh mappings,
and every fresh mapping is paid again in page faults: serial
fixed-binary and wide-alphabet benchmark ops took a median of 6643 and
349 (at most 7484) minor faults and 25 and 6 ms of system time per op,
against 7-10 faults with the thresholds fixed.  (Until the character
draw was sliced, its float64 temporary of 12.8 MB per 5*10^4 keys
raised both thresholds as a side effect.)  Of the pairs 1/2, 2/4 and
4/8 MiB only 4/8 kept the faults down on both workloads, and the
smallest such pair is kept because the heap may hold up to the trim
threshold in free memory.  Forked pool workers inherit the setting;
where the C library has no mallopt nothing is set.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .asymptotics import psi_eval, psi_for_k
from .errors import DegenerateVariance, DepthExceeded, EmptyTree, LimitExceeded, WorkerStopped, finite_at_least, integer_at_least
from .functionals import _LEAF_SIG, TollFunction, _count_is, _is_lone_leaf, _shape_key, _Stats, phi_alpha
from .source import SourceDistribution
from .trees import DEFAULT_MAX_DEPTH, CharBlocks

_POOL_KEYS = 1 << 20
_BLOCK_KEYS = 1 << 15
# the largest lambda numpy's Generator.poisson accepts
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
# glibc's mallopt parameter numbers (malloc.h) and the values set for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 8 << 20, 4 << 20


@cache
def _fix_heap_thresholds():
    """Set glibc's mmap and trim thresholds, once per process (see the
    module docstring); does nothing where the C library has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """The generator owned by one replicate: hash of (master_seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed & (2**64 - 1), index)))


# ---------------------------------------------------------------------------
# configuration and summaries


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation request; immutable and safe to share.  A Poisson
    lambda past numpy's limit (about 9.2e18) raises LimitExceeded."""

    source: SourceDistribution
    mode: str  # "fixed" | "poisson"
    size: float  # n for fixed mode, lambda for poisson mode
    replicates: int
    master_seed: int
    functionals: tuple[TollFunction, ...]
    max_depth: int = DEFAULT_MAX_DEPTH
    paired_trie: bool = False
    histogram_kmax: int = 64

    def __post_init__(self):
        if self.mode not in ("fixed", "poisson"):
            raise ValueError(f"mode must be 'fixed' or 'poisson', got {self.mode!r}")
        for name in ("replicates", "histogram_kmax", "max_depth"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 1))
        finite_at_least("size", self.size, 0)
        if self.mode == "fixed" and self.size != int(self.size):
            raise ValueError("fixed mode needs an integer key count")
        if self.mode == "poisson" and self.size > _POISSON_LAM_MAX:
            raise LimitExceeded(f"lambda {self.size:.6g} is past numpy's Poisson limit, lambda {_POISSON_LAM_MAX:.6g}")
        if any(t.pulled for t in self.functionals):
            raise ValueError("simulations evaluate patricia tolls; use paired_trie for the trie side")
        object.__setattr__(self, "functionals", tuple(self.functionals))

    @classmethod
    def fixed(cls, source, n, replicates, master_seed, functionals, **kw):
        return cls(source, "fixed", float(n), replicates, master_seed, tuple(functionals), **kw)

    @classmethod
    def poisson(cls, source, lam, replicates, master_seed, functionals, **kw):
        return cls(source, "poisson", float(lam), replicates, master_seed, tuple(functionals), **kw)


@dataclass(frozen=True)
class FunctionalStats:
    """Moment summary of one functional across replicates."""

    name: str
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    skewness: float | None
    excess_kurtosis: float | None

    def as_dict(self):
        return {
            "name": self.name,
            "mean": self.mean,
            "var": self.variance,
            "se_mean": self.se_mean,
            "se_var": self.se_variance,
            "skew": self.skewness,
            "exkurt": self.excess_kurtosis,
        }


@dataclass(frozen=True)
class SimulationSummary:
    """Results of a run: per-functional moments, fringe histogram, provenance."""

    config: SimulationConfig
    functionals: tuple[FunctionalStats, ...]
    trie_functionals: tuple[FunctionalStats, ...] | None
    histogram_mean: np.ndarray  # mean count of patricia fringes per size
    histogram_se: np.ndarray
    mean_keys: float
    mean_pat_nodes: float
    mean_trie_nodes: float

    @property
    def histogram_k(self) -> np.ndarray:
        """The fringe sizes of the histogram's buckets."""
        return _fringe_sizes(self.config.histogram_kmax)

    def stats(self, name: str) -> FunctionalStats:
        return _named(self.functionals, name)

    def trie_stats(self, name: str) -> FunctionalStats:
        return _named(self.trie_functionals or (), name)

    def as_dict(self):
        return {
            "mode": self.config.mode,
            "size": self.config.size,
            "replicates": self.config.replicates,
            "seed": self.config.master_seed,
            "source": list(self.config.source.probs),
            "mean_keys": self.mean_keys,
            "mean_patricia_nodes": self.mean_pat_nodes,
            "mean_trie_nodes": self.mean_trie_nodes,
            "functionals": [st.as_dict() for st in self.functionals],
            "trie_functionals": [st.as_dict() for st in self.trie_functionals]
            if self.trie_functionals is not None
            else None,
            "fringe_histogram": {
                "k": histogram_labels(self.config.histogram_kmax),
                "mean_count": list(self.histogram_mean),
                "se": list(self.histogram_se),
            },
        }


def _named(stats, name):
    """The first of `stats` called `name`, else KeyError."""
    for st in stats:
        if st.name == name:
            return st
    raise KeyError(name)


def _fringe_sizes(kmax):
    """The fringe sizes of a histogram's buckets: 2..kmax, then kmax + 1
    for the overflow bucket of every larger size."""
    return np.concatenate([np.arange(2, kmax + 1), [kmax + 1]])


def histogram_labels(kmax):
    """The printed labels of a histogram's buckets: 2..kmax, then "overflow"."""
    return [*range(2, kmax + 1), "overflow"]


# ---------------------------------------------------------------------------
# the pooled forest as one node table


_NO_MATCH = (np.empty(0, np.int64), 0)


class _ShapeColumn:
    """The fringe shapes of one view's rows: ``column == sig`` is True at the
    rows whose fringe has the nested signature ``sig``.

    A row matches sig when it holds as many keys as sig has leaves and its
    len(sig) children, consecutive rows in character order as in a
    signature, carry sig's characters and match its subshapes.  In the
    patricia view a child stands for the row its unary chain ends at, and
    no unary row matches.  Matches are kept per subshape, so a column costs
    nothing until something compares it.
    """

    def __init__(self, forest, compress):
        self.forest = forest
        self.compress = compress
        self.matched = {_LEAF_SIG: (None, 1)}  # leaves are read off the count column
        self.families = {}

    def __eq__(self, sig):
        match = np.zeros(len(self.forest.count), bool)
        match[self.rows(sig)] = True
        return match

    def rows(self, sig):
        """The sorted rows whose fringe has shape sig."""
        found = self._match(sig)[0]
        return np.flatnonzero(self.forest.count == 1) if found is None else found

    def _match(self, sig):
        """The sorted rows of shape sig and its leaf count; no rows and 0
        when nothing matches, as for an empty or non-canonical signature."""
        if sig in self.matched:
            return self.matched[sig]
        subs = [self._match(sub) for _, sub in sig]
        keys = sum(k for _, k in subs) if all(k for _, k in subs) else 0
        hit = _NO_MATCH
        if keys and not (self.compress and len(sig) == 1):
            rows, chars, kids = self._family(keys, len(sig))
            sel = np.arange(len(rows))
            for i, ((a, _), (found, _)) in enumerate(zip(sig, subs)):
                sel = sel[chars[i, sel] == a]
                kid = kids[i, sel]
                if found is None:
                    sel = sel[self.forest.count[kid] == 1]
                else:
                    at = np.minimum(np.searchsorted(found, kid), len(found) - 1)
                    sel = sel[found[at] == kid]
            if sel.size:
                hit = rows[sel], keys
        self.matched[sig] = hit
        return hit

    def _family(self, keys, degree):
        """The rows of `keys` keys and `degree` children, with the characters
        and (chain end) rows of their children, one line per child."""
        if (keys, degree) not in self.families:
            f = self.forest
            rows = np.flatnonzero((f.count == keys) & (f.child_count == degree))
            kids = f.first_child(rows) + np.arange(degree)[:, None]
            ends = f.chain_ends(kids.ravel())[0].reshape(kids.shape) if self.compress else kids
            self.families[keys, degree] = rows, f.char[kids], ends
        return self.families[keys, degree]


class _Forest:
    """The tries of a pool of replicates as one table of nodes.

    A node is a group of keys agreeing on their first t characters whose
    every proper ancestor group held >= 2 keys; groups with one key are
    leaves.  Rows run level by level, rows offsets[t]..offsets[t+1] holding
    depth t, and within a level in (parent, char) order, so the children of
    a node are consecutive rows of the next level.  Columns: count (keys in
    the fringe), parent row (-1 at roots), char, rep and child_count.

    Construction groups several levels per pass.  At depth t, the g-th row
    holding >= 2 keys gives each of its keys the code g*m^s plus the keys'
    characters t..t+s-1 read as a base-m number; one bincount of the codes
    is the table of depth t+s, and summing its blocks of m cells gives the
    tables of the depths above.  The stride s is the largest whose table
    has no more cells than there are coded keys (else 1), and never passes
    max_depth.  The table is the same as grouping one level per pass, and
    so are the character columns read.  Columns are read only at the keys
    still in a row with >= 2 keys, so a character block past the first is
    drawn only for those keys.  The alphabet size m is the characters'
    source's.  The counts may cover only the first rows of ``chars`` (a
    smaller set of ``slln_track``'s nested ones), and then every read names
    its rows.
    """

    def __init__(self, chars, counts, max_depth, rep_offset=0):
        R, m = len(counts), chars.d.m
        alive = np.flatnonzero(counts >= 1)
        # per-level pieces of each column, joined once grouping ends
        levels = {
            "count": [counts[alive]],
            "parent": [np.full(len(alive), -1)],
            "char": [np.full(len(alive), -1, dtype=np.int8)],
            "rep": [alive],
        }
        offsets = [0, len(alive)]
        # the rows of the deepest level holding >= 2 keys (numbered within
        # the level), and for each key in one of them the rank of its row
        # among those rows; `active` lists those keys, None while it is all
        big = np.flatnonzero(levels["count"][0] >= 2)
        group = np.repeat(np.arange(len(big)), levels["count"][0][big])
        active = None if len(group) == chars.total else np.flatnonzero(np.repeat(counts >= 2, counts))

        t = 0
        while big.size:
            if t >= max_depth:
                # rows run in replicate order, so this names the first
                # replicate with two keys still together at depth t
                raise DepthExceeded(max_depth, replicate=int(levels["rep"][-1][big[0]]) + rep_offset)
            # one pass groups `stride` levels: the largest stride whose table
            # of (group, next stride characters) cells is no larger than the
            # active key count.  By pigeonhole every level of the pass then
            # holds a node with >= 2 keys, so a level-by-level scan would read
            # the same columns, and a pass may cross a character block edge.
            stride = 1
            while len(big) * m ** (stride + 1) <= len(group):
                stride += 1
            stride = min(stride, max_depth - t)
            code = group  # rebuilt below, so the codes may overwrite it
            for u in range(t, t + stride):
                code *= m
                code += chars.column(u, active)
            tables = [np.bincount(code, minlength=len(big) * m**stride)]
            for _ in range(stride - 1):
                # blocks of m cells summed as m - 1 adds of strided columns,
                # several times faster than reshape(-1, m).sum(axis=1)
                finer = tables[-1]
                coarser = finer[0::m] + finer[1::m]
                for c in range(2, m):
                    coarser += finer[c::m]
                tables.append(coarser)
            # one level per table, coarsest first: its rows are the occupied
            # cells under the parent level's rows `big`, in (parent, char)
            # order, so the children of a node are consecutive rows.  `cells`
            # holds the table cells of the rows `big`; the coarsest table is
            # exactly one m-cell block per group.
            cells = None
            for table in reversed(tables):
                block = table.reshape(-1, m)
                if cells is not None:
                    block = np.take(block, cells, axis=0)
                # a boolean mask, // and one subtraction are several times
                # faster than flatnonzero of the ints and divmod
                occupied = np.flatnonzero(block != 0)
                under = occupied // m
                char = occupied - under * m
                up = big[under]
                count = block.ravel()[occupied]
                levels["count"].append(count)
                levels["parent"].append(up + offsets[-2])
                levels["char"].append(char.astype(np.int8))
                levels["rep"].append(levels["rep"][-1][up])
                offsets.append(offsets[-1] + len(occupied))
                big = np.flatnonzero(count >= 2)
                cells = occupied[big] if cells is None else cells[under[big]] * m + char[big]
            # each key still in a row with >= 2 keys takes that row's rank
            rank = np.full(len(tables[0]), -1)
            rank[cells] = np.arange(len(cells))
            group = rank[code]
            keep = group >= 0
            group = np.compress(keep, group)
            active = np.flatnonzero(keep) if active is None else np.compress(keep, active)
            t += stride

        self.R = R
        self.offsets = offsets
        for name, pieces in levels.items():
            setattr(self, name, np.concatenate(pieces))
            pieces.clear()  # frees this column's pieces before the next is joined
        self.child_count = np.bincount(self.parent[offsets[1]:], minlength=len(self.count))
        # a replicate's rows are consecutive within a level, so a per-replicate
        # sum first adds up runs of equal rep, several times faster than a
        # weighted bincount over every row; a run starts at row 0, where rep
        # changes and at every level (no run in an empty table).  A run thus
        # never depends on which other replicates share the table, and
        # neither does the order in which a replicate's values are added.
        edge = np.empty(len(self.rep), bool)
        edge[:1] = True
        np.not_equal(self.rep[1:], self.rep[:-1], out=edge[1:])
        edge[offsets[1:-1]] = True
        self.runs = np.flatnonzero(edge)

    def per_rep(self, values):
        """Per-replicate sum of one value per row."""
        run_sums = np.add.reduceat(values, self.runs, dtype=np.float64)
        return np.bincount(self.rep[self.runs], run_sums, minlength=self.R)

    def rows_per_rep(self):
        """Per-replicate row count (trie nodes), summed from the run lengths."""
        return np.bincount(self.rep[self.runs], np.diff(self.runs, append=len(self.rep)), minlength=self.R)

    def histogram(self, kmax):
        """Counts of internal patricia fringes by size: k = 2..kmax plus overflow."""
        internal = np.flatnonzero(self.child_count >= 2)
        bins = np.take(self.count, internal)
        np.minimum(bins, kmax + 1, out=bins)
        bins -= 2
        rep = np.take(self.rep, internal)
        rep *= kmax
        bins += rep
        return np.bincount(bins, minlength=self.R * kmax).reshape(self.R, kmax).astype(np.float64)

    def first_child(self, rows):
        """The first child row of each of `rows`, which must have children.
        Below the roots the parent column never decreases, since levels run
        in order and each level in parent order, so bisection finds it."""
        return self.offsets[1] + np.searchsorted(self.parent[self.offsets[1] :], rows)

    def chain_ends(self, rows):
        """The row each of `rows` reaches by following unary rows down, and
        the number of unary rows passed on the way."""
        end = np.array(rows, dtype=np.int64)
        steps = np.zeros(len(end), dtype=np.int64)
        chain = np.flatnonzero(self.child_count[end] == 1)
        while chain.size:
            end[chain] = self.first_child(end[chain])
            steps[chain] += 1
            chain = chain[self.child_count[end[chain]] == 1]
        return end, steps

    def pat_roots(self):
        """Row and depth of each replicate's patricia root, -1 for both when
        the replicate has no keys.  The depth is the root prefix length."""
        roots = self.offsets[1]
        row = np.full(self.R, -1)
        depth = np.full(self.R, -1, dtype=np.int64)
        row[self.rep[:roots]], depth[self.rep[:roots]] = self.chain_ends(np.arange(roots))
        return row, depth

    def view(self, compress):
        """Per-row aggregates of the fringe each row roots, as the oracle's _Stats.

        The trie view describes the trie fringe.  With compress, the
        patricia view describes the compressed fringe: a unary row carries
        its only child's node count and essential bit, and a parent sums
        its children's values from there.  Only patricia rows of this view
        enter a toll sum or root toll, and at those rows outdeg is the row's
        own child count.
        """
        unary = self.child_count == 1
        nodes = (~unary if compress else np.ones(len(self.count), bool)).astype(np.float64)
        essential = np.ones(len(self.count))
        off = self.offsets
        for t in range(len(off) - 3, -1, -1):
            rows, kids = slice(off[t], off[t + 1]), slice(off[t + 1], off[t + 2])
            up, size = self.parent[kids] - off[t], off[t + 1] - off[t]
            nodes[rows] += np.bincount(up, nodes[kids], size)
            below = np.bincount(up, essential[kids], size)
            essential[rows] = np.maximum(0.0, 1.0 - below)
            if compress:
                lone = np.flatnonzero(unary[rows])
                essential[off[t] + lone] = below[lone]
        return _Stats(self.count, nodes, self.child_count, essential, _ShapeColumn(self, compress))


def _rule_values(toll, view):
    """The toll's rule on every row of a view, as floats."""
    return np.broadcast_to(np.asarray(toll.stats_fn(view), dtype=np.float64), view.leaf_count.shape)


def _toll_sums(forest, tolls, paired_trie=False):
    """Per-replicate sums of each toll over the patricia trie ("pat") and over
    the trie ("trie"), each toll's value at the patricia root, i.e. the toll
    of P_n itself ("root"), and the depth of that root ("root_depth").  A
    replicate without keys has root values 0 and root depth -1."""
    shape = (forest.R, len(tolls))
    root_row, root_depth = forest.pat_roots()
    has_root = root_row >= 0
    out = {"pat": np.zeros(shape), "root": np.zeros(shape), "root_depth": root_depth}
    if paired_trie:
        out["trie"] = np.zeros(shape)
    if not tolls:
        return out
    unary = np.flatnonzero(forest.child_count == 1)
    pat = forest.view(True)
    gated = np.empty(len(forest.count))
    for j, t in enumerate(tolls):
        # a copy with its unary rows zeroed costs less than np.where or
        # selecting the patricia rows, leaves the rule's array (which may be
        # a column of the view) intact, and sums a non-finite value there as 0
        np.copyto(gated, _rule_values(t, pat))
        gated[unary] = 0.0
        out["pat"][:, j] = forest.per_rep(gated)
        out["root"][has_root, j] = gated[root_row[has_root]]
    if paired_trie:
        pat = gated = unary = None  # the two views are never held at once
        trie = forest.view(False)
        for j, t in enumerate(tolls):
            out["trie"][:, j] = forest.per_rep(_rule_values(t, trie))
    return out


# ---------------------------------------------------------------------------
# blocked execution


def _keys_per_replicate(config):
    """The expected key count of one replicate, at least 1."""
    return max(1.0, config.size if config.mode == "fixed" else config.size + 1.0)


def _block_bounds(config):
    """Consecutive replicate ranges, each of as many replicates as are
    expected to fit in _BLOCK_KEYS keys, or of one that alone holds more."""
    step = max(1, int(_BLOCK_KEYS / _keys_per_replicate(config)))
    R = config.replicates
    return [(a, min(a + step, R)) for a in range(0, R, step)]


def _engine_block(config, start, stop):
    """Run replicates [start, stop) through the forest engine as one forest.
    A replicate's patricia nodes are its histogram's internal nodes and one
    leaf per key."""
    _fix_heap_thresholds()
    rngs = [replicate_rng(config.master_seed, i) for i in range(start, stop)]
    if config.mode == "fixed":
        counts = np.full(len(rngs), int(config.size), dtype=np.int64)
    else:
        counts = np.array([rng.poisson(config.size) for rng in rngs], dtype=np.int64)
    # the character blocks are freed once the forest is built, before any toll
    forest = _Forest(CharBlocks(config.source, rngs, counts), counts, config.max_depth, start)
    out = _toll_sums(forest, config.functionals, config.paired_trie)
    out["n"] = counts.astype(np.float64)
    out["hist"] = forest.histogram(config.histogram_kmax)
    out["pat_nodes"] = out["hist"].sum(axis=1) + out["n"]
    out["trie_nodes"] = forest.rows_per_rep()
    return out


# the kept process pool: (worker count, executor), or None; the lock makes
# one forking call at a time use it
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """Empty the pool slot and renew its lock in a forked child: the pool
    belongs to the parent, and the lock may have been held by a parent
    thread the child does not have."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool():
    """Empty the pool slot, shutting its pool down first: its queued tasks
    are cancelled and its workers waited for."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool[1].shutdown(wait=True, cancel_futures=True)


def _library_rules(configs):
    """Whether every toll's rule is a function of this package or a partial
    of one, the only rules a pool worker runs: it looks a rule up by name
    in the module state of its fork, where the package's own rules are as
    the caller has them."""
    for config in configs:
        for toll in config.functionals:
            rule = toll.stats_fn
            while isinstance(rule, partial):
                rule = rule.func
            if (getattr(rule, "__module__", None) or "").partition(".")[0] != __package__:
                return False
    return True


def _run_on_pool(tasks, workers):
    """Every task's block outputs, in task order, from the kept pool, or
    None when no pool can start.  A kept pool of another worker count is
    shut down before the new one starts; its workers hold the module state
    of the moment they forked.  A worker that stops before its block is
    done (killed for lack of memory, say) raises WorkerStopped and drops
    the pool; any other error of a block cancels the tasks not yet started
    and waits for the running ones before it propagates, so no later call
    queues behind them."""
    import concurrent.futures as cf

    global _pool
    futures = []
    with _pool_lock:
        try:
            if _pool is None or _pool[0] != workers:
                _drop_pool()
                _pool = (workers, cf.ProcessPoolExecutor(max_workers=workers))
            futures = [_pool[1].submit(_engine_block, *task) for task in tasks]
            return [fut.result() for fut in futures]
        except cf.BrokenExecutor as exc:
            _drop_pool()
            raise WorkerStopped(f"a pool worker stopped before its block was done: {exc}") from exc
        except OSError as exc:  # sandboxed environments may forbid subprocesses
            _drop_pool()
            warnings.warn(
                f"process pool unavailable ({exc!r}); running {len(tasks)} blocks serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        except BaseException:
            for fut in futures:
                fut.cancel()
            cf.wait(futures)
            raise


def _collect(configs, threads=1):
    """Yield each config's engine outputs, every replicate's in replicate
    order.

    The blocks of all configs are one task list.  They run on the kept
    process pool when there are threads to spare, more than one task, more
    than _POOL_KEYS expected keys in all, and every toll's rule is the
    package's own.  Otherwise each config's blocks run in this process in
    turn when its output is asked for, so a caller that reduces each output
    as it comes holds one config's at a time."""
    threads = integer_at_least("threads", threads, 1)
    plans = [_block_bounds(config) for config in configs]
    tasks = [(config, a, b) for config, blocks in zip(configs, plans) for a, b in blocks]
    keys = sum(config.replicates * _keys_per_replicate(config) for config in configs)
    results = None
    if threads > 1 and len(tasks) > 1 and keys > _POOL_KEYS and _library_rules(configs):
        results = _run_on_pool(tasks, min(threads, len(tasks)))
    for config, blocks in zip(configs, plans):
        if results is None:
            mine = [_engine_block(config, a, b) for a, b in blocks]
        else:
            mine = [results.pop(0) for _ in blocks]  # each let go as its config's output is built
        yield {key: np.concatenate([r[key] for r in mine]) for key in mine[0]}


# ---------------------------------------------------------------------------
# moments


def _mean_se(samples):
    """Mean over replicates (the first axis) and its standard error, which
    is 0 for a single replicate."""
    mean = samples.mean(axis=0)
    R = len(samples)
    se = samples.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else np.zeros_like(mean)
    return mean, se


def _moment_stats(name, samples) -> FunctionalStats:
    R = len(samples)
    mean = float(np.mean(samples))
    if R < 2:
        return FunctionalStats(name, mean, 0.0, 0.0, 0.0, None, None)
    var = float(np.var(samples, ddof=1))
    se_mean = math.sqrt(var / R)
    centered = samples - mean
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(0.0, m4 - var**2 * (R - 3) / (R - 1)) / R)
    if m2 == 0.0:
        return FunctionalStats(name, mean, var, se_mean, se_var, None, None)
    m3 = float(np.mean(centered**3))
    skew = m3 / m2**1.5
    exkurt = m4 / m2**2 - 3.0
    return FunctionalStats(name, mean, var, se_mean, se_var, skew, exkurt)


def run(config: SimulationConfig, threads: int = 1) -> SimulationSummary:
    """Execute a simulation; deterministic in (config, master_seed) regardless
    of threads or the block plan."""
    (data,) = _collect([config], threads)
    names = [t.name for t in config.functionals]
    stats = tuple(_moment_stats(nm, data["pat"][:, j]) for j, nm in enumerate(names))
    trie_stats = None
    if config.paired_trie:
        trie_stats = tuple(_moment_stats(nm, data["trie"][:, j]) for j, nm in enumerate(names))
    hist_mean, hist_se = _mean_se(data["hist"])
    return SimulationSummary(
        config=config,
        functionals=stats,
        trie_functionals=trie_stats,
        histogram_mean=hist_mean,
        histogram_se=hist_se,
        mean_keys=float(np.mean(data["n"])),
        mean_pat_nodes=float(np.mean(data["pat_nodes"])),
        mean_trie_nodes=float(np.mean(data["trie_nodes"])),
    )


# ---------------------------------------------------------------------------
# Poissonized profile estimation


@dataclass(frozen=True)
class ProfileEstimates:
    """Monte Carlo estimates of the mean/variance/covariance profiles at one lambda."""

    lam: float
    replicates: int
    f_e: float
    f_e_se: float
    f_v: float
    f_v_se: float
    f_c: float
    f_c_se: float


def estimate_fX(toll: TollFunction, d: SourceDistribution, lam: float, replicates: int, master_seed: int) -> ProfileEstimates:
    """Estimate the Poissonized profiles of a bounded toll at one lambda.

    With x = pulled toll at the root, y = pulled functional of the trie,
    N the Poisson key count and chi the toll's leaf value:

        f_E = E x - chi lam e^-lam
        f_V = 2 Cov(x, y) - Var x + 2 chi lam e^-lam (E y - E x)
              - chi^2 lam e^-lam (1 - lam e^-lam)
        f_C = Cov(x, N) + chi lam (lam - 1) e^-lam

    Standard errors come from the per-replicate influence values of each
    estimator.
    """
    replicates = integer_at_least("replicates", replicates, 2)
    base = toll.base if toll.pulled else toll
    config = SimulationConfig.poisson(d, lam, replicates, master_seed, (base,))
    (data,) = _collect([config])
    # the pulled toll vanishes where the trie root is unary
    x = np.where(data["root_depth"] == 0, data["root"][:, 0], 0.0)
    y = data["pat"][:, 0]  # pulled functional of the trie = functional of its patricia trie
    n = data["n"]
    R = len(x)
    chi = base.chi
    c1 = chi * lam * math.exp(-lam)

    x_mean, f_e_se = _mean_se(x)
    xc = x - x_mean
    yc = y - y.mean()
    nc = n - n.mean()

    f_e = float(x_mean - c1)

    cov_xy = float(np.sum(xc * yc) / (R - 1))
    var_x = float(np.sum(xc * xc) / (R - 1))
    f_v = 2.0 * cov_xy - var_x + 2.0 * c1 * float(y.mean() - x_mean) - chi**2 * lam * math.exp(-lam) * (
        1.0 - lam * math.exp(-lam)
    )
    h_v = 2.0 * xc * yc - xc * xc + 2.0 * c1 * (y - x)
    f_v_se = _mean_se(h_v)[1]

    cov_xn = float(np.sum(xc * nc) / (R - 1))
    f_c = cov_xn + chi * lam * (lam - 1.0) * math.exp(-lam)
    h_c = xc * nc
    f_c_se = _mean_se(h_c)[1]

    return ProfileEstimates(lam, R, f_e, float(f_e_se), f_v, float(f_v_se), float(f_c), float(f_c_se))


def sample_patricia_roots(d: SourceDistribution, n: int, replicates: int, master_seed: int, shapes=()):
    """Per-replicate structure of P_n: which of `shapes` it equals, and its root prefix length.

    Returns (shape_index, prefix_length) integer arrays; the shape index is
    -1 where the tree matches none of the given shapes, and an empty shape
    or one deeper than 256 levels raises ValueError as phi_shape does,
    before any replicate runs.  The root prefix
    length of the patricia trie is the depth of the trie node it compresses
    to, which for k >= 2 keys follows Geom_0(1 - rho(k)).
    """
    sigs = tuple(_shape_key(shape)[0] for shape in shapes)
    toll = TollFunction("shape-index", partial(_shape_index, sigs=sigs))
    (data,) = _collect([SimulationConfig.fixed(d, n, replicates, master_seed, (toll,))])
    return data["root"][:, 0].astype(np.int64) - 1, data["root_depth"]


def _shape_index(st, sigs):
    """1 + the index of the last of `sigs` each fringe's shape equals, else 0."""
    index = np.zeros(len(st.leaf_count))
    for j, sig in enumerate(sigs):
        index[st.shape_sig.rows(sig)] = j + 1
    return index


def estimate_root_essential(d: SourceDistribution, n: int, replicates: int, master_seed: int):
    """Monte Carlo estimate of E[phi_alpha(P_n)], the essential-root probability.

    Returns (estimate, standard error).  Unlike the pulled toll at the trie
    root this is the toll of the patricia trie itself, so it stays positive
    even when every key shares its first character.
    """
    replicates = integer_at_least("replicates", replicates, 2)
    (data,) = _collect([SimulationConfig.fixed(d, n, replicates, master_seed, (phi_alpha(),))])
    mean, se = _mean_se(data["root"][:, 0])
    return float(mean), float(se)


# ---------------------------------------------------------------------------
# normality diagnostics


@dataclass(frozen=True)
class NormalityDiagnostics:
    skewness: float
    skewness_se: float
    excess_kurtosis: float
    excess_kurtosis_se: float


def normality_diagnostics(samples) -> NormalityDiagnostics:
    """Standardized 3rd/4th central moments with jackknife standard errors.

    Needs at least 100 finite samples; raises DegenerateVariance on constant input.
    """
    x = np.asarray(samples, dtype=np.float64)
    R = len(x)
    if R < 100:
        raise ValueError("need at least 100 samples for moment diagnostics")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"sample {bad[0]} is {x[bad[0]]}, not a finite number")
    if x.min() == x.max():  # np.var of a constant like 0.1 need not be 0
        raise DegenerateVariance("sample variance is zero")
    # the moments do not change under a shift, and power sums of a sample
    # far from 0 would cancel
    x = x - x.mean()

    def moments(s1, s2, s3, s4, n):
        m1 = s1 / n
        mu2 = s2 / n - m1**2
        mu3 = s3 / n - 3 * m1 * s2 / n + 2 * m1**3
        mu4 = s4 / n - 4 * m1 * s3 / n + 6 * m1**2 * s2 / n - 3 * m1**4
        skew = mu3 / mu2**1.5
        exk = mu4 / mu2**2 - 3.0
        return skew, exk

    s1, s2, s3, s4 = x.sum(), (x**2).sum(), (x**3).sum(), (x**4).sum()
    skew, exk = moments(s1, s2, s3, s4, R)
    # leave-one-out statistics from the power sums
    lskew, lexk = moments(s1 - x, s2 - x**2, s3 - x**3, s4 - x**4, R - 1)
    skew_se = math.sqrt((R - 1) / R * float(np.sum((lskew - lskew.mean()) ** 2)))
    exk_se = math.sqrt((R - 1) / R * float(np.sum((lexk - lexk.mean()) ** 2)))
    return NormalityDiagnostics(float(skew), skew_se, float(exk), exk_se)


# ---------------------------------------------------------------------------
# oscillation scan


def _default_psi_e(d, toll):
    """psi_E of the k-fringe tolls (a closed form for k >= 2; k = 1 counts
    the leaves) and of the leaf count (zero), recognized by their rules;
    None for any other toll."""
    rule = toll.stats_fn
    if isinstance(rule, partial) and rule.func is _count_is:
        k = rule.keywords["k"]
        return psi_for_k(d, k, "E") if k >= 2 else 0.0
    if rule is _is_lone_leaf:
        return 0.0
    return None


@dataclass(frozen=True)
class OscillationScan:
    log_lambda: np.ndarray
    mean_over_lambda: np.ndarray
    se: np.ndarray
    psi_overlay: np.ndarray  # psi_E(log lam)/H + chi; nan when no closed form

    def residual_trend(self):
        """Weighted LS slope of the residuals against log lambda, with its t-statistic.

        Residuals are taken against the periodic overlay when one is
        available (so a large genuine oscillation is not mistaken for a
        drift), else against a constant.  Raises DegenerateVariance when a
        point's replicates all agree, since its weight 1/se^2 is infinite.
        """
        x, se = self.log_lambda, self.se
        flat = np.flatnonzero(se == 0.0)
        if flat.size:
            j = flat[0]
            raise DegenerateVariance(f"oscillation point {j} (log lambda {x[j]:.6g}) has standard error 0")
        y = self.mean_over_lambda.copy()
        if np.all(np.isfinite(self.psi_overlay)):
            y = y - self.psi_overlay
        w = 1.0 / se**2
        xm = np.sum(w * x) / np.sum(w)
        ym = np.sum(w * y) / np.sum(w)
        sxx = np.sum(w * (x - xm) ** 2)
        slope = np.sum(w * (x - xm) * (y - ym)) / sxx
        return float(slope), float(slope / math.sqrt(1.0 / sxx))


def oscillation_scan(
    d: SourceDistribution,
    toll: TollFunction,
    lam_min: float,
    replicates: int,
    master_seed: int,
    periods: int = 3,
    points_per_period: int = 8,
    threads: int = 1,
) -> OscillationScan:
    """Scan E[Phi]/lambda over a geometric lambda grid spanning `periods`
    periods d_p of the source, or spans of log 2 for an aperiodic source.
    The blocks of all points are one task list, so at more than one
    thread the process pool runs points side by side; threads never
    changes the result.

    The companion overlay column is psi_E(log lam)/H + chi when the toll has
    a closed-form limit function (the k-fringe tolls and the leaf count),
    else NaN.  A grid that reaches past numpy's Poisson limit (about
    9.2e18) raises LimitExceeded before any replicate runs.
    """
    replicates = integer_at_least("replicates", replicates, 2)
    finite_at_least("lam_min", lam_min, 0, strict=True)
    periods = integer_at_least("periods", periods, 1)
    points_per_period = integer_at_least("points_per_period", points_per_period, 1)
    period = d.periodicity() or math.log(2.0)
    psi_e = _default_psi_e(d, toll)
    h = d.entropy()
    points = periods * points_per_period + 1
    logs = np.log(lam_min) + period * np.arange(points) / points_per_period
    configs = []
    for j, ll in enumerate(logs):
        try:
            # exp(100) is past the limit already, and the cap keeps exp finite
            configs.append(SimulationConfig.poisson(d, math.exp(min(ll, 100.0)), replicates, master_seed + j, (toll,)))
        except LimitExceeded as exc:
            raise LimitExceeded(f"oscillation point {j} (log lambda {ll:.6g}): {exc}") from None
    means = np.zeros(points)
    ses = np.zeros(points)
    overlay = np.full(points, np.nan)
    for j, (data, ll, config) in enumerate(zip(_collect(configs, threads), logs, configs)):
        means[j], ses[j] = _mean_se(data["pat"][:, 0] / config.size)
        if psi_e is not None:
            overlay[j] = psi_eval(psi_e, ll) / h + toll.chi
    return OscillationScan(logs, means, ses, overlay)


# ---------------------------------------------------------------------------
# fringe distribution


@dataclass(frozen=True)
class FringeDistribution:
    """Empirical law of the fringe size: mass per patricia node, by key count."""

    k: np.ndarray  # 2..kmax then an overflow bucket (coded kmax+1)
    mass_mean: np.ndarray
    mass_se: np.ndarray
    leaf_mass_mean: float
    replicates: int

    def mass(self, k: int) -> float:
        """The mean mass of fringe size k, for k in 2..kmax + 1 (kmax + 1 is
        the overflow bucket); any other k raises ValueError."""
        k, top = integer_at_least("k", k, 2), int(self.k[-1])
        if k > top:
            raise ValueError(f"k must be in 2..{top} ({top} is the overflow bucket), got {k}")
        return float(self.mass_mean[k - 2])


def fringe_distribution(config: SimulationConfig, threads: int = 1) -> FringeDistribution:
    """Per-replicate fringe-size masses (count of size-k fringes over node count).

    Raises EmptyTree when a replicate has no keys, since its masses are 0/0.
    """
    (data,) = _collect([config], threads)
    empty = np.flatnonzero(data["n"] == 0)
    if empty.size:
        raise EmptyTree(f"replicate {empty[0]} has no keys, so its fringe masses are undefined")
    nodes = data["pat_nodes"]
    masses = data["hist"] / nodes[:, None]
    leaf_mass = data["n"] / nodes
    mass_mean, mass_se = _mean_se(masses)
    return FringeDistribution(
        k=_fringe_sizes(config.histogram_kmax),
        mass_mean=mass_mean,
        mass_se=mass_se,
        leaf_mass_mean=float(leaf_mass.mean()),
        replicates=len(nodes),
    )


# ---------------------------------------------------------------------------
# strong-law tracking on nested key sets


def slln_track(
    d: SourceDistribution,
    toll: TollFunction,
    n_grid,
    master_seed: int,
    psi_e=None,
):
    """Phi(P_n)/n - H^-1 psi_E(log n) - chi along one nested key path.

    Every n reads the first n keys of one growing key block, so the
    sequence tracks one realization of the almost-sure limit.  The forests
    are built on one CharBlocks, largest n first, so a character block is
    drawn for the keys that the largest set to reach it reads there.  A
    smaller set uses a key's characters only above the depth where the key
    is alone, which is no deeper than in any larger set, so each of them
    was drawn; the others it reads in mid-pass it never uses (see
    CharBlocks).  Returns a list of (n, ratio, deviation) triples, n
    ascending.
    """
    if psi_e is None:
        psi_e = _default_psi_e(d, toll)
    if psi_e is None:
        raise ValueError("no closed-form limit function for this toll; pass psi_e")

    grid = list(n_grid)
    if not grid or not all(float(n).is_integer() and n >= 1 for n in grid):
        raise ValueError(f"n_grid must be a nonempty grid of integers >= 1, got {grid}")
    n_grid = sorted((int(n) for n in grid), reverse=True)
    chars = CharBlocks(d, [replicate_rng(master_seed, 0)], [n_grid[0]])
    h = d.entropy()
    out = []
    for n in n_grid:
        forest = _Forest(chars, np.array([n]), DEFAULT_MAX_DEPTH)
        phi = float(_toll_sums(forest, (toll,))["pat"][0, 0])
        ratio = phi / n
        deviation = ratio - psi_eval(psi_e, math.log(n)) / h - toll.chi
        out.append((n, ratio, deviation))
    return out[::-1]
