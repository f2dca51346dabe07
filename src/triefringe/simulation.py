"""Seeded Monte Carlo over random tries and patricia tries.

Replicates draw a key count (fixed n or Poisson(lam)), grow the keys
lazily from the source, and evaluate a batch of additive functionals on
the patricia trie (and, when requested, the plain functionals on the trie
of the same keys).  Each replicate owns a generator derived by hashing
(master_seed, replicate_index), so results are bit-identical for a given
seed regardless of chunking or worker count, and replicates are
statistically independent.

Every toll runs through one vectorized engine that never materializes
tree objects: a replicate (or a whole pool of replicates, processed as one
forest) is grouped level by level into one table of trie nodes.  Keys
carrying the same character prefix form a group; groups with one key are
leaves, groups with at least two are trie nodes that split on the next
character column.  Bottom-up sweeps give every row the aggregates the
explicit-tree evaluator computes per node (leaf count, node count,
outdegree, essentiality bit, bounded shape signature), once for the trie
fringe and once for the compressed fringe, and each toll's own rule runs
elementwise on those columns.  Patricia nodes are the rows without exactly
one child.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .asymptotics import psi_eval, psi_for_k
from .errors import DegenerateVariance, DepthExceeded, EmptyTree
from .functionals import TollFunction, _count_is, _is_lone_leaf, _Stats
from .source import SourceDistribution
from .trees import DEFAULT_MAX_DEPTH, CharBlocks, shape_signature

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
        if self.histogram_kmax < 1:
            raise ValueError("histogram_kmax must be >= 1")
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
# the pooled forest as one node table


class _ShapeColumn:
    """Shape ids of a view's fringes, interned in a memo shared by the views
    of one forest: ``column == sig`` interns the nested signature ``sig`` and
    compares ids elementwise.  Fringes above the shape cap carry id -1."""

    def __init__(self, ids, memo):
        self.ids = ids
        self.memo = memo

    def _intern(self, sig):
        if sig == _LEAF_SIG:
            return 0
        return self.memo.get(tuple((int(a), self._intern(sub)) for a, sub in sig), -2)

    def __eq__(self, sig):
        return self.ids == self._intern(sig)


class _Forest:
    """The tries of a pool of replicates as one table of nodes.

    A node is a group of keys agreeing on their first t characters whose
    every proper ancestor group held >= 2 keys; groups with one key are
    leaves.  Rows run level by level, rows offsets[t]..offsets[t+1] holding
    depth t, and within a level in (parent, char) order, so the children of
    a node are consecutive rows of the next level.  Columns: count (keys in
    the fringe), parent row (-1 at roots), char, rep and child_count.
    """

    def __init__(self, chars, counts, m, max_depth, rep_offset=0):
        R = len(counts)
        rep_of_key = np.repeat(np.arange(R, dtype=np.int64), counts)
        alive = np.flatnonzero(counts >= 1)
        root_id = np.full(R, -1, dtype=np.int64)
        root_id[alive] = np.arange(len(alive))
        # per-level pieces of each column, joined once grouping ends
        levels = {
            "count": [counts[alive]],
            "parent": [np.full(len(alive), -1)],
            "char": [np.full(len(alive), -1, dtype=np.int8)],
            "rep": [alive],
        }
        offsets = [0, len(alive)]
        key_group = root_id[rep_of_key]
        active = np.flatnonzero(counts[rep_of_key] >= 2)

        t = 0
        while active.size:
            if t >= max_depth:
                raise DepthExceeded(max_depth, replicate=int(rep_of_key[active[0]]) + rep_offset)
            col = chars.column(t)[active].astype(np.int64)
            codes = key_group[active] * m + col
            # counting-sort style renumbering: new group ids run in (parent, char)
            # order, so children of one node sit contiguously in alphabet order
            occupancy = np.bincount(codes, minlength=(offsets[-1] - offsets[-2]) * m)
            occupied = np.flatnonzero(occupancy)
            inverse = (np.cumsum(occupancy > 0) - 1)[codes]
            up = occupied // m
            levels["count"].append(occupancy[occupied])
            levels["parent"].append(up + offsets[-2])
            levels["char"].append((occupied % m).astype(np.int8))
            levels["rep"].append(levels["rep"][-1][up])
            offsets.append(offsets[-1] + len(occupied))
            key_group[active] = inverse
            active = active[levels["count"][-1][inverse] >= 2]
            t += 1

        self.R = R
        self.offsets = offsets
        for name, pieces in levels.items():
            setattr(self, name, np.concatenate(pieces))
            pieces.clear()  # frees this column's pieces before the next is joined
        self.child_count = np.bincount(self.parent[offsets[1]:], minlength=len(self.count))
        # a replicate's rows are consecutive within a level, so a per-replicate
        # sum first adds up runs of equal rep, several times faster than a
        # weighted bincount over every row
        self.runs = np.flatnonzero(np.diff(self.rep, prepend=-1))

    def per_rep(self, values):
        """Per-replicate sum of one value per row."""
        run_sums = np.add.reduceat(values, self.runs, dtype=np.float64)
        return np.bincount(self.rep[self.runs], run_sums, minlength=self.R)

    def at_roots(self, values):
        """Per-replicate value at the trie root; 0 for replicates without keys."""
        out = np.zeros(self.R)
        out[self.rep[: self.offsets[1]]] = values[: self.offsets[1]]
        return out

    def histogram(self, kmax):
        """Counts of internal patricia fringes by size: k = 2..kmax plus overflow."""
        internal = self.child_count >= 2
        bins = self.rep[internal] * kmax + np.minimum(self.count[internal], kmax + 1) - 2
        return np.bincount(bins, minlength=self.R * kmax).reshape(self.R, kmax).astype(np.float64)

    def pat_root_level(self):
        """Depth of each replicate's patricia root (its root prefix length); -1 when empty."""
        pat = np.flatnonzero(self.child_count != 1)
        reps, first = np.unique(self.rep[pat], return_index=True)
        out = np.full(self.R, -1, dtype=np.int64)
        out[reps] = np.searchsorted(self.offsets, pat[first], side="right") - 1
        return out

    def view(self, compress, shape_cap, memo):
        """Per-row aggregates of the fringe each row roots, as the oracle's _Stats.

        The trie view describes the trie fringe.  With compress, the
        patricia view describes the compressed fringe: a unary row carries
        its only child's node count, essential bit and shape id, and a
        parent sums its children's values from there.  Only patricia rows
        of this view enter a toll sum or root toll, and at those rows outdeg
        is the row's own child count.  Shape ids are computed only for
        shape_cap > 0.
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
            essential[rows] = np.where(compress & unary[rows], below, np.maximum(0.0, 1.0 - below))
        shape = _ShapeColumn(self.signatures(shape_cap, compress, memo), memo) if shape_cap else None
        return _Stats(self.count, nodes, self.child_count, essential, shape)

    def signatures(self, cap, compress, memo):
        """Per-row canonical shape ids of fringes of <= cap keys, interned in memo.

        With compress, unary rows pass their only child's id through, so the
        id describes the compressed fringe.
        """
        sig = np.where(self.count == 1, 0, -1)
        first = self.offsets[1] + np.cumsum(self.child_count) - self.child_count
        small = (self.count >= 2) & (self.count <= cap)
        off = self.offsets
        for t in range(len(off) - 3, -1, -1):
            rows = off[t] + np.flatnonzero(small[off[t] : off[t + 1]])
            if compress:
                unary = self.child_count[rows] == 1
                sig[rows[unary]] = sig[first[rows[unary]]]
                rows = rows[~unary]
            for i in rows.tolist():
                lo, hi = first[i], first[i] + self.child_count[i]
                parts = tuple(zip(self.char[lo:hi].tolist(), sig[lo:hi].tolist()))
                sig[i] = memo.setdefault(parts, len(memo))
        return sig


def _rule_values(toll, view):
    """The toll's rule on every row of a view, as floats."""
    return np.broadcast_to(np.asarray(toll.stats_fn(view), dtype=np.float64), view.leaf_count.shape)


def _toll_sums(forest, tolls, paired_trie=False, want_roots=False):
    """Per-replicate sums of each toll over the patricia trie ("pat"), over the
    trie ("trie"), and its pulled-back value at the trie root ("root")."""
    shape = (forest.R, len(tolls))
    out = {"pat": np.zeros(shape)}
    if paired_trie:
        out["trie"] = np.zeros(shape)
    if want_roots:
        out["root"] = np.zeros(shape)
    if not tolls:
        return out
    cap = max(t.needs_shape for t in tolls)
    memo = {_LEAF_SIG: 0}
    pat_rows = forest.child_count != 1
    pat = forest.view(True, cap, memo)
    for j, t in enumerate(tolls):
        # zeroing the other rows costs less than selecting the patricia rows
        gated = np.where(pat_rows, _rule_values(t, pat), 0.0)
        out["pat"][:, j] = forest.per_rep(gated)
        if want_roots:
            out["root"][:, j] = forest.at_roots(gated)
    if paired_trie:
        pat = gated = None  # the two views are never held at once
        trie = forest.view(False, cap, memo)
        for j, t in enumerate(tolls):
            out["trie"][:, j] = forest.per_rep(_rule_values(t, trie))
    return out


# ---------------------------------------------------------------------------
# chunked execution


def _forest_of(config, start, stop):
    """Key counts and forest of replicates [start, stop) of a config."""
    rngs = [replicate_rng(config.master_seed, i) for i in range(start, stop)]
    if config.mode == "fixed":
        counts = np.full(len(rngs), int(config.size), dtype=np.int64)
    else:
        counts = np.array([rng.poisson(config.size) for rng in rngs], dtype=np.int64)
    chars = CharBlocks(config.source, rngs, counts)
    return counts, _Forest(chars, counts, config.source.m, config.max_depth, rep_offset=start)


def _engine_chunk(config, start, stop, want_roots=False):
    """Run replicates [start, stop) through the forest engine."""
    counts, forest = _forest_of(config, start, stop)
    out = _toll_sums(forest, config.functionals, config.paired_trie, want_roots)
    out["n"] = counts.astype(np.float64)
    out["pat_nodes"] = forest.per_rep(forest.child_count != 1)
    out["trie_nodes"] = forest.per_rep(np.ones(len(forest.count)))
    out["hist"] = forest.histogram(config.histogram_kmax)
    return out


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
    chunks = _chunk_bounds(config)
    results = [None] * len(chunks)
    if threads > 1 and len(chunks) > 1:
        import concurrent.futures as cf

        try:
            with cf.ProcessPoolExecutor(max_workers=threads) as pool:
                futures = {
                    pool.submit(_engine_chunk, config, a, b, want_roots): i for i, (a, b) in enumerate(chunks)
                }
                for fut, i in futures.items():
                    results[i] = fut.result()
        except (OSError, PermissionError) as exc:  # sandboxed environments may forbid subprocesses
            warnings.warn(
                f"process pool unavailable ({exc!r}); running {len(chunks)} chunks serially",
                RuntimeWarning,
                stacklevel=2,
            )
            results = [_engine_chunk(config, a, b, want_roots) for a, b in chunks]
    else:
        results = [_engine_chunk(config, a, b, want_roots) for a, b in chunks]
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
    _, forest = _forest_of(SimulationConfig.fixed(d, n, replicates, master_seed, ()), 0, replicates)
    memo = {_LEAF_SIG: 0}
    # the pass-through signature at the trie root is the patricia root's shape
    sig = _ShapeColumn(forest.signatures(n, True, memo), memo)
    shape_index = np.full(replicates, -1, dtype=np.int64)
    for j, shape in enumerate(shapes):
        shape_index[forest.at_roots(sig == shape_signature(shape)) > 0] = j
    return shape_index, forest.pat_root_level()


def estimate_root_essential(d: SourceDistribution, n: int, replicates: int, master_seed: int):
    """Monte Carlo estimate of E[phi_alpha(P_n)], the essential-root probability.

    Returns (estimate, standard error).  Unlike the pulled toll at the trie
    root this is the toll of the patricia trie itself, so it stays positive
    even when every key shares its first character.
    """
    _, forest = _forest_of(SimulationConfig.fixed(d, n, replicates, master_seed, ()), 0, replicates)
    # the patricia view at a trie root describes the patricia root
    vals = forest.at_roots(forest.view(True, 0, None).essential)
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


def _default_psi_e(d, toll):
    """psi_E of the k-fringe tolls with k >= 2 (closed form) and of the leaf
    count (zero), recognized by their rules; None for any other toll."""
    rule = toll.stats_fn
    if isinstance(rule, partial) and rule.func is _count_is and rule.keywords["k"] >= 2:
        return psi_for_k(d, rule.keywords["k"], "E")
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
    d_p = d.periodicity()
    if period is None:
        period = d_p if d_p > 0 else math.log(2.0)
    if psi_e is None:
        psi_e = _default_psi_e(d, toll)
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
    """Per-replicate fringe-size masses (count of size-k fringes over node count).

    Raises EmptyTree when a replicate has no keys, since its masses are 0/0.
    """
    data = _collect(config, threads=threads)
    empty = np.flatnonzero(data["n"] == 0)
    if empty.size:
        raise EmptyTree(f"replicate {empty[0]} has no keys, so its fringe masses are undefined")
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
    if psi_e is None:
        psi_e = _default_psi_e(d, toll)
    if psi_e is None:
        raise ValueError("no closed-form limit function for this toll; pass psi_e")

    n_grid = sorted(int(n) for n in n_grid)
    chars = CharBlocks(d, [replicate_rng(master_seed, 0)], [n_grid[-1]])
    h = d.entropy()
    out = []
    for n in n_grid:
        forest = _Forest(_SlicedChars(chars, n), np.array([n]), d.m, max_depth)
        phi = float(_toll_sums(forest, (toll,))["pat"][0, 0])
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
