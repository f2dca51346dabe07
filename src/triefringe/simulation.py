"""Seeded Monte Carlo over random tries and patricia tries.

Replicates draw a key count (fixed n or Poisson(lam)), grow the keys
lazily from the source, and evaluate a batch of additive functionals on
the patricia trie (and, when requested, the plain functionals on the trie
of the same keys).  Each replicate owns a generator derived by hashing
(master_seed, replicate_index), so results are bit-identical for a given
seed regardless of chunking or worker count, and replicates are
statistically independent.

The built-in tolls never materialize tree objects: a replicate (or a whole
pool of replicates, processed as one forest) is reduced level by level.
Keys carrying the same character prefix form a group; groups with one key
are leaves, groups with at least two are trie nodes that split on the next
character column.  Patricia nodes are the groups without exactly one child
group; group sizes give every fringe count, a bottom-up sweep gives the
essentiality bits for the independence number, and bounded canonical
signatures give fringe-shape counts.  Tolls without an engine mapping fall
back to explicit tree construction per replicate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import psi_eval
from .errors import DegenerateVariance, DepthExceeded
from .functionals import TollFunction, evaluate_additive
from .source import SourceDistribution
from .trees import DEFAULT_MAX_DEPTH, build_patricia, build_trie, random_key_set

_LEAF_SIG = "*"
_CHUNK_KEYS = 1 << 20


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """The generator owned by one replicate: hash of (master_seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed & (2**64 - 1), index)))


# ---------------------------------------------------------------------------
# configuration and summaries


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation request; immutable and safe to share."""

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
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        if self.mode == "fixed" and self.size != int(self.size):
            raise ValueError("fixed mode needs an integer key count")
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
    histogram_k: np.ndarray  # fringe sizes 2..kmax, then one overflow bucket
    histogram_mean: np.ndarray  # mean count of patricia fringes per size
    histogram_se: np.ndarray
    mean_keys: float
    mean_pat_nodes: float
    mean_trie_nodes: float

    def stats(self, name: str) -> FunctionalStats:
        for st in self.functionals:
            if st.name == name:
                return st
        raise KeyError(name)

    def trie_stats(self, name: str) -> FunctionalStats:
        for st in self.trie_functionals or ():
            if st.name == name:
                return st
        raise KeyError(name)

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
                "k": [int(k) for k in self.histogram_k[:-1]] + ["overflow"],
                "mean_count": list(self.histogram_mean),
                "se": list(self.histogram_se),
            },
        }


# ---------------------------------------------------------------------------
# pooled character matrix


class _PooledChars:
    """Character rows for a pool of replicates, deepened 32 columns at a time.

    Every replicate draws its own rows from its own generator in the same
    fixed sequence of (n_r, 32) blocks as a standalone KeyBlock, so the
    materialized characters depend on neither the pooling nor the moment of
    deepening, and the engine sees exactly the trees the explicit-tree path
    would build.  Deepening appends one row-major (total, 32) block to a
    list; column t is column t % 32 of block t // 32, so no drawn block is
    ever copied again.
    """

    def __init__(self, dist, rngs, counts):
        from .trees import KEY_BLOCK_WIDTH

        self.dist = dist
        self.rngs = rngs
        self.counts = counts
        self.width = KEY_BLOCK_WIDTH
        self.total = int(np.sum(counts))
        self.blocks = []
        self._draw_block()

    def _draw_block(self):
        block = np.empty((self.total, self.width), np.int8)
        at = 0
        for rng, c in zip(self.rngs, self.counts):
            if c:
                block[at : at + c] = self.dist.draw_chars(rng, (int(c), self.width))
                at += int(c)
        self.blocks.append(block)

    def column(self, t):
        while t >= len(self.blocks) * self.width:
            self._draw_block()
        return self.blocks[t // self.width][:, t % self.width]


# ---------------------------------------------------------------------------
# the level-by-level forest reduction


class _Level:
    __slots__ = ("count", "parent", "char", "rep", "child_count")

    def __init__(self, count, parent, char, rep):
        self.count = count
        self.parent = parent
        self.char = char
        self.rep = rep
        self.child_count = None


def _build_levels(chars, counts, m, max_depth, rep_offset=0):
    """Group keys level by level; returns the per-level node tables.

    Nodes at depth t are the groups of keys agreeing on their first t
    characters whose every proper ancestor group held >= 2 keys; that is
    exactly the node set of the trie forest.
    """
    R = len(counts)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    rep_of_key = np.repeat(np.arange(R, dtype=np.int64), counts)

    alive = np.flatnonzero(counts >= 1)
    root_id = np.full(R, -1, dtype=np.int64)
    root_id[alive] = np.arange(len(alive))
    levels = [
        _Level(
            count=counts[alive].copy(),
            parent=np.full(len(alive), -1, dtype=np.int64),
            char=np.full(len(alive), -1, dtype=np.int64),
            rep=alive.astype(np.int64),
        )
    ]
    key_group = root_id[rep_of_key]
    active = np.flatnonzero(counts[rep_of_key] >= 2)

    t = 0
    while active.size:
        if t >= max_depth:
            bad_rep = int(rep_of_key[active[0]]) + rep_offset
            raise DepthExceeded(max_depth, replicate=bad_rep)
        col = chars.column(t)[active].astype(np.int64)
        codes = key_group[active] * m + col
        # counting-sort style renumbering: new group ids run in (parent, char)
        # order, so children of one node sit contiguously in alphabet order
        occupancy = np.bincount(codes, minlength=len(levels[-1].count) * m)
        occupied = np.flatnonzero(occupancy)
        rank_of_code = np.cumsum(occupancy > 0) - 1
        inverse = rank_of_code[codes]
        level = _Level(
            count=occupancy[occupied],
            parent=occupied // m,
            char=occupied % m,
            rep=levels[-1].rep[occupied // m],
        )
        levels.append(level)
        key_group[active] = inverse
        active = active[level.count[inverse] >= 2]
        t += 1

    for lower, upper in zip(levels, levels[1:]):
        lower.child_count = np.bincount(upper.parent, minlength=len(lower.count))
    levels[-1].child_count = np.zeros(len(levels[-1].count), dtype=np.int64)
    return levels


class _Forest:
    """Derived statistics of one pooled forest of replicates."""

    def __init__(self, levels, R, counts, shape_cap=0):
        self.levels = levels
        self.R = R
        self.counts = np.asarray(counts, dtype=np.float64)
        self.shape_cap = shape_cap
        self._pat_internal = [(lv.child_count >= 2) for lv in levels]
        self._leaves = [(lv.count == 1) for lv in levels]
        self._ess = None
        self._pat_root_gid = None
        self._pat_root_level = None
        self._sig = None
        self._sig_memo = None
        # global patricia-node ids, level by level
        self._pat_mask = [(lv.child_count != 1) for lv in levels]
        sizes = [int(mask.sum()) for mask in self._pat_mask]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.total_pat = int(offsets[-1])
        self._gid = []
        for lv, mask, off in zip(levels, self._pat_mask, offsets):
            gid = np.full(len(lv.count), -1, dtype=np.int64)
            gid[mask] = off + np.arange(mask.sum())
            self._gid.append(gid)

    # -- aggregation helpers ------------------------------------------------

    def _per_rep(self, masks):
        out = np.zeros(self.R)
        for lv, mask in zip(self.levels, masks):
            if mask is None or not mask.any():
                continue
            out += np.bincount(lv.rep[mask], minlength=self.R)
        return out

    def _per_rep_weighted(self, level_values):
        out = np.zeros(self.R)
        for lv, vals in zip(self.levels, level_values):
            if vals is None:
                continue
            out += np.bincount(lv.rep, weights=vals, minlength=self.R)
        return out

    # -- essentiality -------------------------------------------------------

    def _pat_parents(self):
        """Nearest patricia-internal strict ancestor (as global id) per node."""
        parents = []
        inherited = np.full(len(self.levels[0].count), -1, dtype=np.int64)
        pass_down = np.where(self._pat_internal[0], self._gid[0], inherited)
        parents.append(inherited)
        for t in range(1, len(self.levels)):
            lv = self.levels[t]
            inherited = pass_down[lv.parent]
            parents.append(inherited)
            pass_down = np.where(self._pat_internal[t], self._gid[t], inherited)
        return parents

    def essentials(self):
        """Essential bit per patricia node (indexed by global id), bottom-up."""
        if self._ess is not None:
            return self._ess
        parents = self._pat_parents()
        ess = np.zeros(self.total_pat)
        child_sum = np.zeros(self.total_pat)
        pat_root_gid = np.full(self.R, -1, dtype=np.int64)
        pat_root_level = np.full(self.R, -1, dtype=np.int64)
        for t in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[t]
            mask = self._pat_mask[t]
            if not mask.any():
                continue
            gids = self._gid[t][mask]
            is_leaf = self._leaves[t][mask]
            values = np.where(is_leaf, 1.0, np.maximum(0.0, 1.0 - child_sum[gids]))
            ess[gids] = values
            par = parents[t][mask]
            have_parent = par >= 0
            np.add.at(child_sum, par[have_parent], values[have_parent])
            roots = ~have_parent
            if roots.any():
                pat_root_gid[lv.rep[mask][roots]] = gids[roots]
                pat_root_level[lv.rep[mask][roots]] = t
        self._ess = ess
        self._pat_root_gid = pat_root_gid
        self._pat_root_level = pat_root_level
        return ess

    def pat_root_gid(self):
        self.essentials()
        return self._pat_root_gid

    def pat_root_level(self):
        """Depth of each replicate's patricia root = its root prefix length."""
        self.essentials()
        return self._pat_root_level

    def trie_alpha_per_rep(self):
        """Independence number of the plain trie, per replicate."""
        child_sum = [np.zeros(len(lv.count)) for lv in self.levels]
        out = np.zeros(self.R)
        for t in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[t]
            values = np.where(self._leaves[t], 1.0, np.maximum(0.0, 1.0 - child_sum[t]))
            out += np.bincount(lv.rep, weights=values, minlength=self.R)
            if t:
                np.add.at(child_sum[t - 1], lv.parent, values)
        return out

    # -- bounded canonical shapes --------------------------------------------

    def signatures(self):
        """Per-node canonical patricia-shape ids for fringes of <= shape_cap keys.

        Unary trie nodes pass their only child's id through, so every node's
        id describes the *compressed* fringe; ids are interned in _sig_memo.
        """
        if self._sig is not None:
            return self._sig
        cap = self.shape_cap
        memo = {_LEAF_SIG: 0}
        sigs = [np.full(len(lv.count), -1, dtype=np.int64) for lv in self.levels]
        for t in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[t]
            sig_t = sigs[t]
            sig_t[self._leaves[t]] = 0
            if t + 1 < len(self.levels):
                nxt = self.levels[t + 1]
                starts = np.searchsorted(nxt.parent, np.arange(len(lv.count)))
                ends = np.searchsorted(nxt.parent, np.arange(1, len(lv.count) + 1))
                small = (lv.count >= 2) & (lv.count <= cap)
                unary = small & (lv.child_count == 1)
                sig_t[unary] = sigs[t + 1][starts[unary]]
                for i in np.flatnonzero(small & (lv.child_count >= 2)):
                    lo, hi = starts[i], ends[i]
                    parts = tuple(
                        (int(c), int(s)) for c, s in zip(nxt.char[lo:hi], sigs[t + 1][lo:hi])
                    )
                    sig_t[i] = memo.setdefault(parts, len(memo))
        self._sig = sigs
        self._sig_memo = memo
        return sigs

    def shape_id(self, sig) -> int:
        """Intern a functionals-style nested signature into this forest's id space."""
        self.signatures()
        if sig == _LEAF_SIG:
            return 0

        def convert(s):
            if s == _LEAF_SIG:
                return 0
            parts = tuple((int(a), convert(sub)) for a, sub in s)
            return self._sig_memo.get(parts, -2)

        return convert(sig)

    # -- functional extraction ------------------------------------------------

    def pat_value(self, key):
        kind = key[0]
        if kind == "leaf":
            return self.counts.copy()
        if kind == "k":
            k = key[1]
            if k == 1:
                return self.counts.copy()
            return self._per_rep([(m & (lv.count == k)) for lv, m in zip(self.levels, self._pat_internal)])
        if kind == "geq":
            k = key[1]
            base = self._per_rep([(m & (lv.count >= k)) for lv, m in zip(self.levels, self._pat_internal)])
            if k <= 1:
                base += self.counts
            return base
        if kind == "internal":
            return self._per_rep(self._pat_internal)
        if kind == "alpha":
            ess = self.essentials()
            return self._per_rep_weighted(
                [np.where(mask, ess[gid], 0.0) for mask, gid in zip(self._pat_mask, self._gid)]
            )
        if kind == "shape":
            target = self.shape_id(key[1])
            if target == 0:
                return self.counts.copy()
            sigs = self.signatures()
            return self._per_rep(
                [(m & (s == target)) for lv, m, s in zip(self.levels, self._pat_internal, sigs)]
            )
        raise KeyError(key)

    def trie_value(self, key):
        kind = key[0]
        if kind == "leaf":
            return self.counts.copy()
        if kind == "k":
            k = key[1]
            if k == 1:
                return self.counts.copy()
            return self._per_rep([lv.count == k for lv in self.levels])
        if kind == "geq":
            k = key[1]
            return self._per_rep([lv.count >= max(k, 1) for lv in self.levels])
        if kind == "internal":
            return self._per_rep([lv.count >= 2 for lv in self.levels])
        if kind == "alpha":
            return self.trie_alpha_per_rep()
        raise KeyError(f"no trie-side engine evaluation for {key!r}")

    def root_toll_value(self, key):
        """pulled_phi evaluated at each replicate's root: phi_p(root) * phi(pat root)."""
        lv0 = self.levels[0]
        out = np.zeros(self.R)
        phi_p = lv0.child_count != 1
        kind = key[0]
        if kind == "k":
            vals = phi_p & (lv0.count == key[1])
        elif kind == "geq":
            vals = phi_p & (lv0.count >= key[1])
        elif kind == "internal":
            vals = phi_p & (lv0.count >= 2)
        elif kind == "leaf":
            vals = phi_p & (lv0.count == 1)
        elif kind == "alpha":
            ess = self.essentials()
            gid0 = self._gid[0]
            vals = np.where(phi_p & (gid0 >= 0), ess[np.maximum(gid0, 0)], 0.0)
        elif kind == "shape":
            target = self.shape_id(key[1])
            sig0 = self.signatures()[0]
            if target == 0:
                vals = phi_p & (lv0.count == 1)
            else:
                vals = phi_p & (sig0 == target)
        else:
            raise KeyError(key)
        out[lv0.rep] = np.asarray(vals, dtype=np.float64)
        return out

    def pat_root_essential_per_rep(self):
        """Essentiality of the patricia root per replicate (0 for empty trees).

        This is the root *toll* of the independence-number functional on the
        patricia trie itself, not gated by the trie root's outdegree: the
        patricia root is the youngest trie node of the root's unary chain.
        """
        ess = self.essentials()
        gid = self.pat_root_gid()
        out = np.zeros(self.R)
        have = gid >= 0
        out[have] = ess[gid[have]]
        return out

    def pat_nodes_per_rep(self):
        return self._per_rep(self._pat_mask)

    def trie_nodes_per_rep(self):
        return self._per_rep([np.ones(len(lv.count), dtype=bool) for lv in self.levels])

    def histogram_per_rep(self, kmax):
        """Counts of internal patricia fringes by size: k = 2..kmax plus overflow."""
        nbins = kmax
        out = np.zeros((self.R, nbins))
        for lv, mask in zip(self.levels, self._pat_internal):
            if not mask.any():
                continue
            ks = np.minimum(lv.count[mask], kmax + 1) - 2
            flat = lv.rep[mask] * nbins + ks
            out += np.bincount(flat, minlength=self.R * nbins).reshape(self.R, nbins)
        return out


# ---------------------------------------------------------------------------
# chunked execution


def _draw_counts(config, rngs):
    if config.mode == "fixed":
        return np.full(len(rngs), int(config.size), dtype=np.int64)
    return np.array([rng.poisson(config.size) for rng in rngs], dtype=np.int64)


def _engine_chunk(config, start, stop, want_roots=False):
    """Run replicates [start, stop) through the forest engine."""
    rngs = [replicate_rng(config.master_seed, i) for i in range(start, stop)]
    counts = _draw_counts(config, rngs)
    chars = _PooledChars(config.source, rngs, counts)
    levels = _build_levels(chars, counts, config.source.m, config.max_depth, rep_offset=start)
    cap = max((t.needs_shape for t in config.functionals), default=0)
    forest = _Forest(levels, len(rngs), counts, shape_cap=cap)

    keys = [t.engine_key for t in config.functionals]
    out = {
        "n": counts.astype(np.float64),
        "pat": np.column_stack([forest.pat_value(k) for k in keys]) if keys else np.zeros((len(rngs), 0)),
        "pat_nodes": forest.pat_nodes_per_rep(),
        "trie_nodes": forest.trie_nodes_per_rep(),
        "hist": forest.histogram_per_rep(config.histogram_kmax),
    }
    if config.paired_trie:
        out["trie"] = np.column_stack([forest.trie_value(k) for k in keys])
    if want_roots:
        out["root"] = np.column_stack([forest.root_toll_value(k) for k in keys])
    return out


def _object_chunk(config, start, stop, want_roots=False):
    """Fallback path building explicit trees; supports arbitrary tolls."""
    from .functionals import pullback

    R = stop - start
    tolls = list(config.functionals)
    n_arr = np.zeros(R)
    pat_vals = np.zeros((R, len(tolls)))
    trie_vals = np.zeros((R, len(tolls))) if config.paired_trie else None
    root_vals = np.zeros((R, len(tolls))) if want_roots else None
    pat_nodes = np.zeros(R)
    trie_nodes = np.zeros(R)
    kmax = config.histogram_kmax
    hist = np.zeros((R, kmax))

    for j in range(R):
        rng = replicate_rng(config.master_seed, start + j)
        n = int(config.size) if config.mode == "fixed" else int(rng.poisson(config.size))
        n_arr[j] = n
        ks = random_key_set(config.source, n, rng)
        try:
            pat = build_patricia(ks, max_depth=config.max_depth)
        except DepthExceeded as exc:
            raise DepthExceeded(config.max_depth, replicate=start + j) from exc
        pat_vals[j] = evaluate_additive(tolls, pat) if tolls else 0.0
        pat_nodes[j] = pat.node_count()
        for node in pat.nodes():
            if node.children:
                hist[j, min(node.leaf_count, kmax + 1) - 2] += 1
        if config.paired_trie or want_roots:
            trie = build_trie(ks, max_depth=config.max_depth)
            trie_nodes[j] = trie.node_count()
            if config.paired_trie:
                trie_vals[j] = evaluate_additive(tolls, trie) if tolls else 0.0
            if want_roots:
                for c, t in enumerate(tolls):
                    root_vals[j, c] = pullback(t).value(trie)
        else:
            trie_nodes[j] = np.nan

    out = {"n": n_arr, "pat": pat_vals, "pat_nodes": pat_nodes, "trie_nodes": trie_nodes, "hist": hist}
    if config.paired_trie:
        out["trie"] = trie_vals
    if want_roots:
        out["root"] = root_vals
    return out


def _engine_capable(config) -> bool:
    if any(t.engine_key is None or t.pulled for t in config.functionals):
        return False
    if config.paired_trie and any(t.engine_key[0] == "shape" for t in config.functionals):
        return False
    return True


def _chunk_bounds(config):
    """Replicate ranges of ceil(R / reps_per_chunk) chunks whose sizes differ by
    at most one, so no pool worker is left with a long tail chunk."""
    per = max(1.0, config.size if config.mode == "fixed" else config.size + 1.0)
    reps_per_chunk = max(1, int(_CHUNK_KEYS / per))
    R = config.replicates
    n_chunks = -(-R // reps_per_chunk)
    bounds = [i * R // n_chunks for i in range(n_chunks + 1)]
    return list(zip(bounds, bounds[1:]))


def _collect(config, want_roots=False, threads=1):
    worker = _engine_chunk if _engine_capable(config) else _object_chunk
    chunks = _chunk_bounds(config)
    results = [None] * len(chunks)
    if threads > 1 and len(chunks) > 1 and worker is _engine_chunk:
        import concurrent.futures as cf

        try:
            with cf.ProcessPoolExecutor(max_workers=threads) as pool:
                futures = {
                    pool.submit(worker, config, a, b, want_roots): i for i, (a, b) in enumerate(chunks)
                }
                for fut, i in futures.items():
                    results[i] = fut.result()
        except (OSError, PermissionError) as exc:  # sandboxed environments may forbid subprocesses
            warnings.warn(
                f"process pool unavailable ({exc!r}); running {len(chunks)} chunks serially",
                RuntimeWarning,
                stacklevel=2,
            )
            results = [worker(config, a, b, want_roots) for a, b in chunks]
    else:
        results = [worker(config, a, b, want_roots) for a, b in chunks]
    merged = {}
    for key in results[0]:
        merged[key] = np.concatenate([r[key] for r in results])
    return merged


# ---------------------------------------------------------------------------
# moments


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
    of threads or chunking."""
    data = _collect(config, want_roots=False, threads=threads)
    names = [t.name for t in config.functionals]
    stats = tuple(_moment_stats(nm, data["pat"][:, j]) for j, nm in enumerate(names))
    trie_stats = None
    if config.paired_trie:
        trie_stats = tuple(_moment_stats(nm, data["trie"][:, j]) for j, nm in enumerate(names))
    hist = data["hist"]
    R = config.replicates
    hist_mean = hist.mean(axis=0)
    hist_se = hist.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(hist.shape[1])
    kmax = config.histogram_kmax
    return SimulationSummary(
        config=config,
        functionals=stats,
        trie_functionals=trie_stats,
        histogram_k=np.concatenate([np.arange(2, kmax + 1), [kmax + 1]]),
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
    base = toll.base if toll.pulled else toll
    config = SimulationConfig.poisson(d, lam, replicates, master_seed, (base,))
    data = _collect(config, want_roots=True)
    x = data["root"][:, 0]
    y = data["pat"][:, 0]  # pulled functional of the trie = functional of its patricia trie
    n = data["n"]
    R = len(x)
    chi = base.chi
    c1 = chi * lam * math.exp(-lam)

    xc = x - x.mean()
    yc = y - y.mean()
    nc = n - n.mean()

    f_e = float(x.mean() - c1)
    f_e_se = float(np.std(x, ddof=1) / math.sqrt(R))

    cov_xy = float(np.sum(xc * yc) / (R - 1))
    var_x = float(np.sum(xc * xc) / (R - 1))
    f_v = 2.0 * cov_xy - var_x + 2.0 * c1 * float(y.mean() - x.mean()) - chi**2 * lam * math.exp(-lam) * (
        1.0 - lam * math.exp(-lam)
    )
    h_v = 2.0 * xc * yc - xc * xc + 2.0 * c1 * (y - x)
    f_v_se = float(np.std(h_v, ddof=1) / math.sqrt(R))

    cov_xn = float(np.sum(xc * nc) / (R - 1))
    f_c = cov_xn + chi * lam * (lam - 1.0) * math.exp(-lam)
    h_c = xc * nc
    f_c_se = float(np.std(h_c, ddof=1) / math.sqrt(R))

    return ProfileEstimates(lam, R, f_e, f_e_se, f_v, f_v_se, float(f_c), f_c_se)


def sample_patricia_roots(d: SourceDistribution, n: int, replicates: int, master_seed: int, shapes=()):
    """Per-replicate structure of P_n: which of `shapes` it equals, and its root prefix length.

    Returns (shape_index, prefix_length) integer arrays; the shape index is
    -1 where the tree matches none of the given shapes.  The root prefix
    length of the patricia trie is the depth of the trie node it compresses
    to, which for k >= 2 keys follows Geom_0(1 - rho(k)).
    """
    from .trees import shape_signature

    rngs = [replicate_rng(master_seed, i) for i in range(replicates)]
    counts = np.full(replicates, n, dtype=np.int64)
    chars = _PooledChars(d, rngs, counts)
    levels = _build_levels(chars, counts, d.m, DEFAULT_MAX_DEPTH)
    forest = _Forest(levels, replicates, counts, shape_cap=n)
    # the pass-through signature at the trie root is the patricia root's shape
    sig0 = forest.signatures()[0]
    root_sig = np.full(replicates, -3, dtype=np.int64)
    root_sig[levels[0].rep] = sig0
    shape_index = np.full(replicates, -1, dtype=np.int64)
    for j, shape in enumerate(shapes):
        target = forest.shape_id(shape_signature(shape))
        shape_index[root_sig == target] = j
    return shape_index, forest.pat_root_level()


def estimate_root_essential(d: SourceDistribution, n: int, replicates: int, master_seed: int):
    """Monte Carlo estimate of E[phi_alpha(P_n)], the essential-root probability.

    Returns (estimate, standard error).  Unlike the pulled toll at the trie
    root this is the toll of the patricia trie itself, so it stays positive
    even when every key shares its first character.
    """
    rngs = [replicate_rng(master_seed, i) for i in range(replicates)]
    counts = np.full(replicates, n, dtype=np.int64)
    chars = _PooledChars(d, rngs, counts)
    levels = _build_levels(chars, counts, d.m, DEFAULT_MAX_DEPTH)
    forest = _Forest(levels, replicates, counts)
    vals = forest.pat_root_essential_per_rep()
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates))


# ---------------------------------------------------------------------------
# normality diagnostics


@dataclass(frozen=True)
class NormalityDiagnostics:
    skewness: float
    skewness_se: float
    excess_kurtosis: float
    excess_kurtosis_se: float
    flags: tuple[str, ...]


def normality_diagnostics(samples, skew_threshold=None, kurtosis_threshold=None) -> NormalityDiagnostics:
    """Standardized 3rd/4th central moments with jackknife standard errors.

    Flags are raised when an absolute moment exceeds the caller's threshold.
    Raises DegenerateVariance on constant input.
    """
    x = np.asarray(samples, dtype=np.float64)
    R = len(x)
    if R < 100:
        raise ValueError("need at least 100 samples for moment diagnostics")
    if np.var(x) == 0.0:
        raise DegenerateVariance("sample variance is zero")

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

    flags = []
    if skew_threshold is not None and abs(skew) > skew_threshold:
        flags.append("skewness")
    if kurtosis_threshold is not None and abs(exk) > kurtosis_threshold:
        flags.append("kurtosis")
    return NormalityDiagnostics(float(skew), skew_se, float(exk), exk_se, tuple(flags))


# ---------------------------------------------------------------------------
# oscillation scan


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
        drift), else against a constant.
        """
        x, se = self.log_lambda, self.se
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
    period: float | None = None,
    psi_e=None,
) -> OscillationScan:
    """Scan E[Phi]/lambda over a geometric lambda grid spanning >= `periods` periods.

    The companion overlay column is psi_E(log lam)/H + chi when the toll has
    a closed-form limit function (the k-fringe tolls and the leaf count);
    pass psi_e to supply one explicitly.
    """
    from .asymptotics import psi_for_k

    d_p = d.periodicity()
    if period is None:
        period = d_p if d_p > 0 else math.log(2.0)
    if psi_e is None and toll.engine_key is not None:
        if toll.engine_key[0] == "k" and toll.engine_key[1] >= 2:
            psi_e = psi_for_k(d, toll.engine_key[1], "E")
        elif toll.engine_key[0] == "leaf":
            psi_e = 0.0
    h = d.entropy()
    points = periods * points_per_period + 1
    logs = np.log(lam_min) + period * np.arange(points) / points_per_period
    means = np.zeros(points)
    ses = np.zeros(points)
    overlay = np.full(points, np.nan)
    for j, ll in enumerate(logs):
        lam = math.exp(ll)
        config = SimulationConfig.poisson(d, lam, replicates, master_seed + j, (toll,))
        data = _collect(config)
        vals = data["pat"][:, 0] / lam
        means[j] = vals.mean()
        ses[j] = vals.std(ddof=1) / math.sqrt(len(vals))
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
        return float(self.mass_mean[int(k) - 2])


def fringe_distribution(config: SimulationConfig, threads: int = 1) -> FringeDistribution:
    """Per-replicate fringe-size masses (count of size-k fringes over node count)."""
    data = _collect(config, threads=threads)
    nodes = data["pat_nodes"]
    masses = data["hist"] / nodes[:, None]
    leaf_mass = data["n"] / nodes
    R = len(nodes)
    kmax = config.histogram_kmax
    return FringeDistribution(
        k=np.concatenate([np.arange(2, kmax + 1), [kmax + 1]]),
        mass_mean=masses.mean(axis=0),
        mass_se=masses.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(kmax),
        leaf_mass_mean=float(leaf_mass.mean()),
        replicates=R,
    )


# ---------------------------------------------------------------------------
# strong-law tracking on nested key sets


def slln_track(
    d: SourceDistribution,
    toll: TollFunction,
    n_grid,
    master_seed: int,
    psi_e=None,
    max_depth: int = DEFAULT_MAX_DEPTH,
):
    """Phi(P_n)/n - H^-1 psi_E(log n) - chi along one nested key path.

    Each n reuses the previous keys plus new ones (a single growing key
    block), so the sequence tracks one realization of the almost-sure limit.
    Returns a list of (n, ratio, deviation) triples.
    """
    from .asymptotics import psi_for_k

    if psi_e is None and toll.engine_key is not None:
        if toll.engine_key[0] == "k" and toll.engine_key[1] >= 2:
            psi_e = psi_for_k(d, toll.engine_key[1], "E")
        elif toll.engine_key[0] == "leaf":
            psi_e = 0.0
    if psi_e is None:
        raise ValueError("no closed-form limit function for this toll; pass psi_e")
    if toll.engine_key is None:
        raise ValueError("slln_track supports engine-mapped tolls")

    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    rng = replicate_rng(master_seed, 0)
    chars = _PooledChars(d, [rng], np.array([n_max]))
    h = d.entropy()
    out = []
    for n in n_grid:
        sub = _SlicedChars(chars, n)
        levels = _build_levels(sub, np.array([n]), d.m, max_depth)
        forest = _Forest(levels, 1, np.array([n]), shape_cap=toll.needs_shape)
        phi = float(forest.pat_value(toll.engine_key)[0])
        ratio = phi / n
        deviation = ratio - psi_eval(psi_e, math.log(n)) / h - toll.chi
        out.append((n, ratio, deviation))
    return out


class _SlicedChars:
    """A row-prefix view of a pooled character matrix (shared deepening)."""

    def __init__(self, inner, rows):
        self.inner = inner
        self.rows = rows

    def column(self, t):
        return self.inner.column(t)[: self.rows]
