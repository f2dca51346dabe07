import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import time
import warnings
from functools import partial

import numpy as np
import pytest

from triefringe.asymptotics import (
    fe_k_star,
    fe_lambda,
    fringe_limit,
    fv_lambda,
    link_trie_patricia,
)
from triefringe import simulation
from triefringe.errors import DegenerateVariance, DepthExceeded, LimitExceeded, WorkerStopped
from triefringe.functionals import TollFunction, phi_alpha, phi_internal, phi_k, phi_leaf, phi_shape
from triefringe.simulation import (
    SimulationConfig,
    estimate_fX,
    estimate_root_essential,
    fringe_distribution,
    normality_diagnostics,
    oscillation_scan,
    run,
    sample_patricia_roots,
    slln_track,
)
from triefringe.source import SourceDistribution

BIN_SYM = SourceDistribution((0.5, 0.5))
TERNARY = SourceDistribution.uniform(3)
SKEWED = SourceDistribution((0.3, 0.7))


def two_way(st):
    """A rule no built-in toll uses: the fringe's root splits two ways."""
    return (st.outdeg == 2) * 1.0


TWO_WAY = TollFunction(name="two-way", stats_fn=two_way)


def outdeg_is(k):
    """A closure rule: the fringe's root splits k ways."""

    def rule(st):
        return (st.outdeg == k) * 1.0

    return rule


def matches(st, sig):
    """A custom shape rule: it compares shape_sig and declares no size."""
    return (st.shape_sig == sig) * 1.0


def pooled_keys(d, mode, size, replicates, seed):
    """Key counts and character blocks of a pool of replicates, as the engine draws them."""
    from triefringe.simulation import replicate_rng
    from triefringe.trees import CharBlocks

    rngs = [replicate_rng(seed, i) for i in range(replicates)]
    counts = np.array([size if mode == "fixed" else rng.poisson(size) for rng in rngs], dtype=np.int64)
    return CharBlocks(d, rngs, counts), counts


def level_by_level(chars, counts, max_depth, rep_offset=0):
    """Reference for the forest layout: keys grouped one trie level per pass.

    Every active key is re-coded as (row, next char) at every level and the
    occupied cells of one bincount become the next level's rows.  Returns
    the engine's columns and offsets.
    """
    R, m = len(counts), chars.d.m
    rep_of_key = np.repeat(np.arange(R, dtype=np.int64), counts)
    alive = np.flatnonzero(counts >= 1)
    root_id = np.full(R, -1, dtype=np.int64)
    root_id[alive] = np.arange(len(alive))
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
    out = {name: np.concatenate(pieces) for name, pieces in levels.items()}
    out["child_count"] = np.bincount(out["parent"][offsets[1]:], minlength=len(out["count"]))
    out["offsets"] = offsets
    return out


def stride_schedule(layout, m):
    """(depth, stride) of each pass of the engine's grouping, read off a
    reference layout: the largest stride whose table of cells is no larger
    than the number of keys in rows with >= 2 keys, else 1."""
    off, count = layout["offsets"], layout["count"]
    passes, t = [], 0
    while t + 1 < len(off):
        big = count[off[t] : off[t + 1]]
        big = big[big >= 2]
        if not big.size:
            break
        stride = 1
        while len(big) * m ** (stride + 1) <= big.sum():
            stride += 1
        passes.append((t, stride))
        t += stride
    return passes


def explicit_run(config):
    """Reference for the engine: every replicate built as explicit
    tries and patricia tries from the same keys, evaluated node by node,
    with every output the engine can give and the pulled-back toll at the
    trie root ("pulled_root")."""
    from triefringe.functionals import evaluate_additive, pullback
    from triefringe.simulation import replicate_rng
    from triefringe.trees import build_patricia, build_trie, random_key_set

    tolls = list(config.functionals)
    kmax = config.histogram_kmax
    keys = ("n", "pat", "trie", "root", "root_depth", "pulled_root", "pat_nodes", "trie_nodes", "hist")
    out = {key: [] for key in keys}
    for i in range(config.replicates):
        rng = replicate_rng(config.master_seed, i)
        n = int(config.size) if config.mode == "fixed" else int(rng.poisson(config.size))
        ks = random_key_set(config.source, n, rng)
        pat = build_patricia(ks, max_depth=config.max_depth)
        trie = build_trie(ks, max_depth=config.max_depth)
        hist = np.zeros(kmax)
        for node in pat.nodes():
            if node.children:
                hist[min(node.leaf_count, kmax + 1) - 2] += 1
        out["n"].append(n)
        out["pat"].append(evaluate_additive(tolls, pat))
        out["trie"].append(evaluate_additive(tolls, trie))
        out["root"].append([t.value(pat) for t in tolls])
        out["root_depth"].append(-1 if pat.root is None else len(pat.root.prefix))
        out["pulled_root"].append([pullback(t).value(trie) for t in tolls])
        out["pat_nodes"].append(pat.node_count())
        out["trie_nodes"].append(trie.node_count())
        out["hist"].append(hist)
    return {key: np.array(rows, dtype=np.float64) for key, rows in out.items()}


class TestRun:
    def test_single_key_replicates(self):
        cfg = SimulationConfig.fixed(BIN_SYM, 1, 50, 11, (phi_leaf(), phi_internal(), phi_alpha()))
        s = run(cfg)
        assert s.stats("leaf").mean == 1.0 and s.stats("leaf").variance == 0.0
        assert s.stats("internal").mean == 0.0
        assert s.stats("alpha").mean == 1.0
        assert s.stats("leaf").skewness is None  # degenerate sample
        with pytest.raises(KeyError):
            s.stats("k=2")
        with pytest.raises(KeyError):
            s.trie_stats("leaf")  # the run has no trie side

    def test_binary_internal_count_deterministic(self):
        from triefringe.functionals import phi_geq

        cfg = SimulationConfig.fixed(BIN_SYM, 37, 40, 13, (phi_internal(), phi_geq(1)))
        s = run(cfg)
        assert s.stats("internal").mean == 36.0
        assert s.stats("internal").variance == 0.0
        assert s.mean_pat_nodes == 73.0
        # every fringe holds at least one key, so geq=1 counts all nodes
        assert s.stats("geq=1").mean == 73.0

    def test_fringe_mean_matches_limit(self):
        cfg = SimulationConfig.fixed(BIN_SYM, 10**4, 200, 17, (phi_k(2),))
        s = run(cfg)
        limit = fe_k_star(BIN_SYM, 2, -1) / BIN_SYM.entropy()
        st = s.stats("k=2")
        assert abs(st.mean / 1e4 - limit) < 3 * st.se_mean / 1e4 + 1e-3

    def test_same_seed_identical(self):
        cfg = SimulationConfig.poisson(SKEWED, 50.0, 64, 23, (phi_k(2), phi_alpha()))
        a, b = run(cfg), run(cfg)
        assert a.as_dict() == b.as_dict()

    def test_threads_do_not_change_results(self, monkeypatch):
        from triefringe import simulation
        from triefringe.trees import enumerate_patricia_shapes

        # large enough that the run forks and really exercises the worker
        # pool, with one replicate to a block
        for cfg in (
            SimulationConfig.fixed(BIN_SYM, 40_000, 64, 29, (phi_k(2), phi_alpha())),
            SimulationConfig.fixed(TERNARY, 50_000, 24, 29, (phi_k(2), phi_alpha())),
        ):
            assert forks(cfg)
            seq = run(cfg, threads=1)
            par = run(cfg, threads=3)
            assert seq.as_dict() == par.as_dict()
        # shape tolls on the trie side travel to the workers too, in small
        # blocks
        small_blocks(monkeypatch)
        tolls = (phi_shape(enumerate_patricia_shapes(3, 2)[0]), phi_alpha())
        cfg = SimulationConfig.fixed(SKEWED, 200, 24, 29, tolls, paired_trie=True)
        assert forks(cfg) and len(simulation._block_bounds(cfg)) == 5
        seq = run(cfg, threads=1)
        simulation._drop_pool()
        assert run(cfg, threads=3).as_dict() == seq.as_dict()
        assert simulation._pool[:2] == (os.getpid(), 3)

    @pytest.mark.parametrize("form", ["lambda", "closure", "module function"])
    def test_user_rule_runs_in_the_caller(self, monkeypatch, form):
        # a rule from outside the package never goes to a pool worker, where
        # a lambda or a closure does not pickle, so it gives the one-thread
        # result at two threads and starts no pool, beside a package rule
        rule = {"lambda": lambda st: (st.outdeg == 2) * 1.0, "closure": outdeg_is(2), "module function": two_way}[form]
        tolls = (TollFunction("two-way", rule), phi_alpha())
        cfg = SimulationConfig.fixed(SKEWED, 200, 24, 29, tolls, paired_trie=True)
        seq = run(cfg, threads=1).as_dict()
        small_blocks(monkeypatch)
        assert forks(cfg) and len(simulation._block_bounds(cfg)) == 5
        assert run(cfg, threads=2).as_dict() == seq
        assert simulation._pool is None and not multiprocessing.active_children()
        pools = inline_pool(monkeypatch)
        assert run(cfg, threads=2).as_dict() == seq and pools == []

    def test_block_plan(self):
        from triefringe.simulation import _BLOCK_KEYS, _block_bounds

        cfg = SimulationConfig.fixed(SKEWED, 10_000, 20, 1, ())
        assert _block_bounds(cfg) == [(0, 3), (3, 6), (6, 9), (9, 12), (12, 15), (15, 18), (18, 20)]
        for mode, size, R in (
            ("fixed", 50_000, 24),
            ("fixed", 40_000, 64),
            ("fixed", 300_000, 7),
            ("fixed", 10, 5),
            ("fixed", 0, 40_000),
            ("fixed", 2_000_000, 3),
            ("poisson", 1e5, 31),
            ("poisson", 1500, 31),
            ("poisson", 0.5, 1),
        ):
            blocks = _block_bounds(SimulationConfig(BIN_SYM, mode, float(size), R, 1, ()))
            per = max(1.0, size if mode == "fixed" else size + 1.0)
            reps_per_block = max(1, int(_BLOCK_KEYS / per))
            assert len(blocks) == math.ceil(R / reps_per_block)
            assert blocks[0][0] == 0 and blocks[-1][1] == R
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            sizes = [b - a for a, b in blocks]
            assert all(size == reps_per_block for size in sizes[:-1]) and 1 <= sizes[-1] <= reps_per_block

    def test_pool_fallback_warns(self, monkeypatch):
        import concurrent.futures

        from triefringe import simulation

        def refuse(*args, **kwargs):
            raise PermissionError("no subprocesses here")

        cfg = SimulationConfig.fixed(TERNARY, 100, 30, 53, (phi_k(2), phi_alpha()))
        seq = run(cfg, threads=1)
        small_blocks(monkeypatch)
        assert forks(cfg) and len(simulation._block_bounds(cfg)) == 3
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.warns(RuntimeWarning, match="no subprocesses here"):
            fallback = run(cfg, threads=2)
        assert fallback.as_dict() == seq.as_dict()

    def test_pool_workers_capped_at_blocks(self, monkeypatch):
        # under fork the pool starts all of its workers at once, so it asks
        # for no more than there are blocks
        from triefringe import simulation

        cfg = SimulationConfig.fixed(TERNARY, 100, 30, 53, (phi_k(2), phi_alpha()))
        seq = run(cfg, threads=1)
        small_blocks(monkeypatch)
        assert len(simulation._block_bounds(cfg)) == 3
        pools = inline_pool(monkeypatch)
        for threads, workers in ((64, 3), (3, 3), (2, 2)):
            simulation._drop_pool()  # so that every run starts a pool
            assert run(cfg, threads=threads).as_dict() == seq.as_dict()
            assert pools.pop()[0] == workers and not pools

    @pytest.mark.parametrize("mode, size", [("fixed", 100), ("poisson", 99)])
    def test_fork_decision(self, monkeypatch, mode, size):
        # a pool starts only at threads > 1, more than one block and more
        # than _POOL_KEYS expected keys (n, or lam + 1, per replicate), and
        # its workers get one task per block, in block order
        from triefringe import simulation

        cfg = SimulationConfig(TERNARY, mode, float(size), 30, 53, (phi_k(2), phi_alpha()))
        seq = run(cfg, threads=1).as_dict()
        monkeypatch.setattr(simulation, "_BLOCK_KEYS", 1000)
        blocks = simulation._block_bounds(cfg)
        assert blocks == [(0, 10), (10, 20), (20, 30)]
        pools = inline_pool(monkeypatch)
        for pool_keys, threads, started in ((3000, 64, False), (2999, 1, False), (2999, 64, True)):
            monkeypatch.setattr(simulation, "_POOL_KEYS", pool_keys)
            assert run(cfg, threads=threads).as_dict() == seq
            assert pools == ([(3, blocks)] if started else []), (pool_keys, threads)
            pools.clear()
        # one block never forks
        monkeypatch.setattr(simulation, "_BLOCK_KEYS", 3000)
        assert run(cfg, threads=64).as_dict() == seq and not pools

    def test_histogram_partitions_nodes(self):
        cfg = SimulationConfig.fixed(TERNARY, 500, 30, 31, (phi_leaf(),))
        s = run(cfg)
        assert s.histogram_mean.sum() + s.mean_keys == pytest.approx(s.mean_pat_nodes, abs=1e-9)

    def test_depth_exceeded_carries_replicate(self):
        from triefringe.simulation import replicate_rng
        from triefringe.trees import build_trie, random_key_set

        cfg = SimulationConfig.fixed(BIN_SYM, 6, 40, 37, (phi_leaf(),), max_depth=6)
        first = None
        for i in range(cfg.replicates):
            try:
                build_trie(random_key_set(BIN_SYM, 6, replicate_rng(37, i)), max_depth=6)
            except DepthExceeded:
                first = i
                break
        assert first is not None and first > 0
        with pytest.raises(DepthExceeded) as err:
            run(cfg)
        assert err.value.replicate == first

    @pytest.mark.parametrize("max_depth", [0, -3])
    def test_depth_bound_below_one_rejected(self, max_depth):
        with pytest.raises(ValueError, match="max_depth"):
            SimulationConfig.fixed(BIN_SYM, 8, 2, 1, (phi_leaf(),), max_depth=max_depth)

    @pytest.mark.parametrize("size", [math.inf, math.nan])
    def test_size_not_finite_rejected(self, size):
        for mode in ("fixed", "poisson"):
            with pytest.raises(ValueError, match="size"):
                SimulationConfig(BIN_SYM, mode, size, 2, 1, ())

    def test_poisson_key_count(self):
        n = 2000
        cfg = SimulationConfig.poisson(BIN_SYM, float(n), 400, 41, (phi_k(2),))
        s = run(cfg)
        se = math.sqrt(n / 400)
        assert abs(s.mean_keys - n) < 3 * se

    def test_poissonized_mean_close_to_fixed(self):
        # depoissonization: |E Phi(fixed n) - E Phi(Poi(n))| = o(sqrt n)
        n, reps = 4000, 300
        fixed = run(SimulationConfig.fixed(BIN_SYM, n, reps, 43, (phi_k(2),)))
        pois = run(SimulationConfig.poisson(BIN_SYM, float(n), reps, 47, (phi_k(2),)))
        a, b = fixed.stats("k=2"), pois.stats("k=2")
        gap = abs(a.mean - b.mean)
        assert gap < 3 * math.hypot(a.se_mean, b.se_mean) + 0.05 * math.sqrt(n)


def forks(config):
    """Whether a run of config at more than one thread starts a pool."""
    from triefringe import simulation

    per = max(1.0, config.size if config.mode == "fixed" else config.size + 1.0)
    return len(simulation._block_bounds(config)) > 1 and config.replicates * per > simulation._POOL_KEYS


def small_blocks(monkeypatch):
    """Blocks of 1000 keys, and a pool for any run of more than 1000 keys."""
    from triefringe import simulation

    monkeypatch.setattr(simulation, "_BLOCK_KEYS", 1000)
    monkeypatch.setattr(simulation, "_POOL_KEYS", 1000)


def inline_pool(monkeypatch):
    """Stand in for the process pool with one that runs every task inline
    and starts no process.  Returns the list of (max_workers, the (start,
    stop) of each task in submission order) of the pools started."""
    import concurrent.futures

    pools = []

    class Inline:
        def __init__(self, max_workers):
            self.tasks = []
            pools.append((max_workers, self.tasks))

        def submit(self, fn, config, start, stop):
            self.tasks.append((start, stop))
            future = concurrent.futures.Future()
            future.set_result(fn(config, start, stop))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    return pools


ENGINE_BLOCK = simulation._engine_block


def _block_that_kills_its_worker(config, start, stop):
    """The engine's block, except that every block after the first ends
    its process at once, as a worker killed for lack of memory does."""
    if start > 0:
        os._exit(3)
    return ENGINE_BLOCK(config, start, stop)


def _noted_block(config, start, stop, folder):
    """The engine's block, after it leaves a file named by the run's depth
    bound and the block's start in `folder` and waits a tenth of a second,
    so that the files name the blocks that started."""
    open(os.path.join(folder, f"{config.max_depth}-{start}"), "w").close()
    time.sleep(0.1)
    return ENGINE_BLOCK(config, start, stop)


# a script that makes two forking runs and prints the pids of its live
# workers after each; a child forked after them runs once more and prints
# whether it started a pool of its own and got the same result
KEPT_POOL_SCRIPT = """
import json, multiprocessing, os, sys
from triefringe import simulation
from triefringe.functionals import phi_k
from triefringe.simulation import SimulationConfig, run
from triefringe.source import SourceDistribution

simulation._BLOCK_KEYS = simulation._POOL_KEYS = 1000
cfg = SimulationConfig.fixed(SourceDistribution.uniform(3), 100, 30, 53, (phi_k(2),))
want = run(cfg).as_dict()
for _ in range(2):
    assert run(cfg, threads=2).as_dict() == want
    print(json.dumps(sorted(p.pid for p in multiprocessing.active_children())), flush=True)
if sys.argv[1] == "fork":
    parent_pool = simulation._pool
    pid = os.fork()
    if pid == 0:
        same = run(cfg, threads=2).as_dict() == want
        own = simulation._pool[0] == os.getpid() and simulation._pool is not parent_pool
        print(json.dumps([same, own]), flush=True)
        simulation._drop_pool()
        os._exit(0)
    os.waitpid(pid, 0)
"""


# a script whose kept pool forks for a built-in toll; then __main__
# defines a rule, runs it, redefines it and runs it again, and prints
# whether each two-thread run matched the serial one
REDEFINED_RULE_SCRIPT = """
import json
from triefringe import simulation
from triefringe.functionals import TollFunction, phi_k
from triefringe.simulation import SimulationConfig, run
from triefringe.source import SourceDistribution

simulation._BLOCK_KEYS = simulation._POOL_KEYS = 1000

def check(toll):
    cfg = SimulationConfig.fixed(SourceDistribution.uniform(3), 100, 30, 53, (toll,))
    want = run(cfg).as_dict()
    return [run(cfg, threads=2).as_dict() == want, run(cfg, threads=2).as_dict() == want]

seen = [check(phi_k(2))]
def rule(st):
    return st.leaf_count
seen.append(check(TollFunction("rule", rule)))
def rule(st):
    return 2 * st.leaf_count
seen.append(check(TollFunction("rule", rule)))
print(json.dumps(seen))
"""


def _kept_pool_script(mode):
    """Run KEPT_POOL_SCRIPT in a fresh interpreter; its stdout lines as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", KEPT_POOL_SCRIPT, mode], capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


class TestKeptPool:
    """One process pool serves every forking call of a process: it is
    started again only for another worker count or after a worker stops,
    an error in a block leaves no task of its call behind, and the workers
    end with the interpreter."""

    def test_workers_are_reused_and_end_with_the_interpreter(self):
        first, second = _kept_pool_script("plain")
        assert len(first) == 2 and second == first
        for pid in first:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_pool_inherited_through_fork_is_not_used(self):
        *_, child = _kept_pool_script("fork")
        assert child == [True, True]

    def test_workers_capped_at_blocks(self, monkeypatch):
        cfg = SimulationConfig.fixed(TERNARY, 100, 30, 53, (phi_k(2), phi_alpha()))
        seq = run(cfg, threads=1).as_dict()
        small_blocks(monkeypatch)
        assert len(simulation._block_bounds(cfg)) == 3
        assert run(cfg, threads=64).as_dict() == seq
        assert len(multiprocessing.active_children()) == 3
        # another worker count replaces the pool, whose workers are gone
        assert run(cfg, threads=2).as_dict() == seq
        assert len(multiprocessing.active_children()) == 2

    def test_pool_starts_afresh_after_a_worker_stops(self, monkeypatch):
        cfg = SimulationConfig.fixed(TERNARY, 100, 30, 53, (phi_k(2), phi_alpha()))
        seq = run(cfg, threads=1).as_dict()
        small_blocks(monkeypatch)
        monkeypatch.setattr(simulation, "_engine_block", _block_that_kills_its_worker)
        with pytest.raises(WorkerStopped):
            run(cfg, threads=2)
        assert simulation._pool is None
        monkeypatch.setattr(simulation, "_engine_block", ENGINE_BLOCK)
        assert run(cfg, threads=2).as_dict() == seq

    def test_error_in_a_block_cancels_the_rest(self, monkeypatch, tmp_path):
        from triefringe.trees import build_trie, random_key_set

        # one replicate of 6 keys to a block, and depth bound 6: a replicate
        # past the first raises DepthExceeded in its block
        cfg = SimulationConfig.fixed(BIN_SYM, 6, 40, 37, (phi_leaf(),), max_depth=6)
        failing = []
        for i in range(cfg.replicates):
            try:
                build_trie(random_key_set(BIN_SYM, 6, simulation.replicate_rng(37, i)), max_depth=6)
            except DepthExceeded:
                failing.append(i)
        assert failing[0] >= 1 and len(failing) <= 20
        monkeypatch.setattr(simulation, "_BLOCK_KEYS", 6)
        monkeypatch.setattr(simulation, "_POOL_KEYS", 6)
        monkeypatch.setattr(simulation, "_engine_block", partial(_noted_block, folder=str(tmp_path)))
        with pytest.raises(DepthExceeded) as err:
            run(cfg, threads=2)
        assert (err.value.replicate, err.value.max_depth) == (failing[0], 6)
        started = sorted(os.listdir(tmp_path))
        assert len(started) < cfg.replicates - len(failing)
        pool = simulation._pool
        cfg = SimulationConfig.fixed(BIN_SYM, 6, 40, 37, (phi_leaf(),))
        assert run(cfg, threads=2).as_dict() == run(cfg, threads=1).as_dict()
        # the pool was kept, and no task of the failed call ran since
        assert simulation._pool is pool
        assert sorted(f for f in os.listdir(tmp_path) if f.startswith("6-")) == started

    def test_calls_from_two_threads_share_the_pool(self, monkeypatch):
        # a run that needs another worker count waits for the other
        # thread's run to finish with the pool before it replaces it
        from concurrent.futures import ThreadPoolExecutor

        cfg = SimulationConfig.fixed(TERNARY, 100, 30, 53, (phi_k(2), phi_alpha()))
        seq = run(cfg, threads=1).as_dict()
        small_blocks(monkeypatch)
        with ThreadPoolExecutor(2) as callers:
            got = list(callers.map(lambda threads: run(cfg, threads=threads).as_dict(), [2, 3] * 8))
        assert got == [seq] * 16

    def test_rule_redefined_after_the_fork_runs_as_redefined(self):
        # a custom rule runs in the calling process, so a rule that
        # __main__ defines or redefines after the kept pool forked still
        # gives the serial result
        done = subprocess.run([sys.executable, "-c", REDEFINED_RULE_SCRIPT], capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[True, True], [True, True], [True, True]]


def _spread(st):
    """A rule whose values are not dyadic fractions, so a per-replicate sum
    of them depends on the order of its additions."""
    return 1.0 / (st.leaf_count + st.node_count / 3.0)


SPREAD = TollFunction(name="spread", stats_fn=_spread)


def record_blocks(monkeypatch):
    """The (first replicate, replicate count) of every block run from now on."""
    from triefringe import simulation

    blocks = []
    engine_block = simulation._engine_block

    def counted(config, start, stop):
        blocks.append((start, stop - start))
        return engine_block(config, start, stop)

    monkeypatch.setattr(simulation, "_engine_block", counted)
    return blocks


class TestBlocks:
    """A run goes through the engine in blocks of about _BLOCK_KEYS keys,
    and every output is the same bit for bit whatever the block size."""

    @pytest.mark.parametrize(
        "mode, spec, size",
        [("fixed", "0.3,0.7", 1000), ("poisson", "0.05,0.95", 1500), ("poisson", "uniform:3", 1200)],
    )
    def test_block_size_does_not_change_output(self, monkeypatch, mode, spec, size):
        from triefringe import simulation
        from triefringe.trees import enumerate_patricia_shapes

        tolls = (phi_k(2), phi_alpha(), phi_shape(enumerate_patricia_shapes(3, 2)[1]), TWO_WAY, SPREAD)
        cfg = SimulationConfig(SourceDistribution.parse(spec), mode, float(size), 12, 5, tolls, paired_trie=True)
        blocks = record_blocks(monkeypatch)
        outs, n_blocks = {}, {}
        for block_keys in (1, 5000, 2**30):
            monkeypatch.setattr(simulation, "_BLOCK_KEYS", block_keys)
            blocks.clear()
            outs[block_keys] = next(simulation._collect([cfg]))
            # consecutive blocks cover the run's replicates in order
            starts = [start for start, _ in blocks]
            assert starts == [0] + [start + reps for start, reps in blocks[:-1]]
            assert sum(reps for _, reps in blocks) == 12
            n_blocks[block_keys] = len(blocks)
        assert n_blocks[1] == 12 and 1 < n_blocks[5000] < 12 and n_blocks[2**30] == 1
        assert outs[1]["pat"][:, 2].sum() > 0 and outs[1]["trie"][:, 2].sum() > 0
        for block_keys in (5000, 2**30):
            for key, want in outs[1].items():
                got = outs[block_keys][key]
                assert got.dtype == want.dtype and np.array_equal(got, want), (key, block_keys)
        # a block that starts past replicate 0 gives those replicates' outputs
        for key, got in simulation._engine_block(cfg, 3, 12).items():
            want = outs[1][key][3:]
            assert got.dtype == want.dtype and np.array_equal(got, want), key

    def test_block_counts(self, monkeypatch):
        from triefringe import simulation

        cfg = SimulationConfig.fixed(SKEWED, 1000, 12, 5, ())
        blocks = record_blocks(monkeypatch)
        # as many replicates as fit, or one that alone holds more
        for block_keys, sizes in ((1, [1] * 12), (999, [1] * 12), (5000, [5, 5, 2]), (2**30, [12])):
            monkeypatch.setattr(simulation, "_BLOCK_KEYS", block_keys)
            blocks.clear()
            list(simulation._collect([cfg]))
            assert [reps for _, reps in blocks] == sizes, block_keys

    def test_depth_bound_names_first_replicate_in_a_later_block(self, monkeypatch):
        from triefringe import simulation
        from triefringe.simulation import replicate_rng
        from triefringe.trees import build_trie, random_key_set

        cfg = SimulationConfig.fixed(BIN_SYM, 6, 40, 37, (phi_leaf(),), max_depth=6)
        failing = []
        for i in range(cfg.replicates):
            try:
                build_trie(random_key_set(BIN_SYM, 6, replicate_rng(37, i)), max_depth=6)
            except DepthExceeded:
                failing.append(i)
        first = failing[0]
        assert first >= 1 and len(failing) >= 2
        # one replicate per block (so the first failing one is in a later
        # block), two per block, and one block
        for block_keys in (6, 12, 2**30):
            monkeypatch.setattr(simulation, "_BLOCK_KEYS", block_keys)
            with pytest.raises(DepthExceeded) as err:
                list(simulation._collect([cfg]))
            assert err.value.replicate == first, block_keys
        # a block may start past replicate 0, as every block but the first does
        for start, named in ((0, first), (1, first), (first + 1, failing[1])):
            with pytest.raises(DepthExceeded) as err:
                simulation._engine_block(cfg, start, cfg.replicates)
            assert err.value.replicate == named, start


class TestMemory:
    def test_traced_peak_bounded_by_block(self):
        # one forest of all 200000 keys peaks at about 34 MB of traced
        # memory, blocks of 2^15 keys at about 5-6 MB
        import tracemalloc

        tolls = (phi_k(2), phi_k(3), phi_internal(), phi_alpha(), phi_leaf())
        cfg = SimulationConfig.fixed(SKEWED, 10_000, 20, 7, tolls, paired_trie=True)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="sets glibc's heap thresholds"
    )
    def test_blocks_reuse_the_heap(self):
        # with glibc's own moving thresholds the arrays of each block came
        # from fresh mappings: about 5300 minor faults for these 4 replicates
        import resource

        cfg = SimulationConfig.fixed(TERNARY, 50_000, 4, 3, ())
        run(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(cfg)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestForestLayout:
    """Grouping several trie levels per pass gives exactly the node table
    of grouping one level per pass, reads the same character blocks, and
    stops at the depth bound naming the same replicate."""

    SOURCES = ("0.5,0.5", "0.3,0.7", "0.05,0.95", "0.2,0.3,0.5", "uniform:8", "uniform:128")
    COLUMNS = ("count", "parent", "char", "rep", "child_count")

    def assert_same_layout(self, d, mode, size, replicates, seed):
        from triefringe.simulation import _Forest

        chars, counts = pooled_keys(d, mode, size, replicates, seed)
        forest = _Forest(chars, counts, 10_000)
        ref_chars, _ = pooled_keys(d, mode, size, replicates, seed)
        ref = level_by_level(ref_chars, counts, 10_000)
        for name in self.COLUMNS:
            got = getattr(forest, name)
            assert got.dtype == ref[name].dtype and np.array_equal(got, ref[name]), name
        assert forest.offsets == ref["offsets"]
        assert len(chars.blocks) == len(ref_chars.blocks)
        return ref

    @pytest.mark.parametrize("spec", SOURCES)
    @pytest.mark.parametrize("mode", ["fixed", "poisson"])
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 100, 5000])
    def test_equals_level_by_level(self, spec, mode, size):
        self.assert_same_layout(SourceDistribution.parse(spec), mode, size, 6, 271)

    def test_cases_take_long_strides(self):
        # six replicates of 5000 keys: the first pass groups 12 binary, 7
        # ternary or 4 octal levels, and skewed keys take strides of 3 and
        # more until they cross the edge of the first 32-column block
        for spec in self.SOURCES[:-1]:
            d = SourceDistribution.parse(spec)
            chars, counts = pooled_keys(d, "fixed", 5000, 6, 271)
            passes = stride_schedule(level_by_level(chars, counts, 10_000), d.m)
            assert max(s for _, s in passes) >= 3, spec
            if spec == "0.05,0.95":
                assert any(t < 32 < t + s for t, s in passes)
                assert len(chars.blocks) >= 3

    def test_wide_alphabet_stride(self):
        # 128 letters need 16384 keys per group for a stride of 2
        d = SourceDistribution.uniform(128)
        ref = self.assert_same_layout(d, "fixed", 20_000, 2, 277)
        assert stride_schedule(ref, d.m)[0] == (0, 2)

    def test_depth_bound_names_same_replicate(self):
        from triefringe.simulation import _Forest, replicate_rng
        from triefringe.trees import CharBlocks

        # replicates of a few keys split at different depths, and the large
        # last one makes the passes group up to seven levels at a time and
        # cross column 32 inside a pass
        d = SourceDistribution((0.05, 0.95))
        counts = np.array([2, 3, 2, 0, 1, 2, 2, 3, 2, 2, 4, 2, 2, 3, 2, 2, 3000], dtype=np.int64)
        named = set()
        for max_depth in range(1, 41):
            outcomes = []
            for build in (_Forest, level_by_level):
                chars = CharBlocks(d, [replicate_rng(283, i) for i in range(len(counts))], counts)
                try:
                    build(chars, counts, max_depth, rep_offset=50)
                    outcomes.append((None, len(chars.blocks)))
                except DepthExceeded as exc:
                    outcomes.append((exc.replicate, len(chars.blocks)))
            assert outcomes[0] == outcomes[1], max_depth
            named.add(outcomes[0][0])
        assert len(named) >= 2


class TestSparseBlocks:
    """Character blocks past the first are drawn only for the keys still in a
    node of two or more keys, and every character the forest reads is the
    one a full draw gives."""

    @pytest.mark.parametrize(
        "spec, mode, size, replicates, seed",
        [
            ("0.3,0.7", "fixed", 10_000, 20, 11),
            ("0.05,0.95", "poisson", 300, 8, 12),
            ("0.1,0.1,0.8", "fixed", 2_000, 5, 13),
        ],
    )
    def test_forest_reads_equal_full_draw(self, spec, mode, size, replicates, seed):
        from triefringe.simulation import _Forest

        d = SourceDistribution.parse(spec)
        chars, counts = pooled_keys(d, mode, size, replicates, seed)
        full, _ = pooled_keys(d, mode, size, replicates, seed)
        reads = []
        sparse_column = chars.column

        def checked(t, active=None):
            got = sparse_column(t, active)
            want = full.column(t)
            assert np.array_equal(got, want if active is None else want[active]), t
            reads.append(t)
            return got

        chars.column = checked
        _Forest(chars, counts, 10_000)
        assert reads and len(chars.blocks) >= 2
        if spec == "0.3,0.7":
            # 48 keys are still together at depth 32: the second block draws a
            # few runs of rows instead of all 200000
            assert len(chars.blocks) == 2 and chars.blocks[1].size < 10**5


class TestEmptyForest:
    """Replicates without keys have no rows, and every per-replicate output
    still has one entry per replicate, equal to the explicit trees'."""

    @pytest.mark.parametrize("counts", [[0, 0], [0, 3, 0, 5]])
    def test_outputs_have_one_entry_per_replicate(self, counts):
        from triefringe.simulation import _Forest, replicate_rng
        from triefringe.trees import CharBlocks, build_patricia, build_trie, random_key_set

        counts = np.array(counts, dtype=np.int64)
        R, kmax = len(counts), 4
        rngs = [replicate_rng(31, i) for i in range(R)]
        forest = _Forest(CharBlocks(SKEWED, rngs, counts), counts, 10_000)
        trie_nodes = forest.per_rep(np.ones(len(forest.count)))
        pat_nodes = forest.per_rep(forest.child_count != 1)
        hist = forest.histogram(kmax)
        row, depth = forest.pat_roots()
        assert trie_nodes.shape == pat_nodes.shape == row.shape == depth.shape == (R,)
        assert hist.shape == (R, kmax)
        assert np.array_equal(forest.rows_per_rep(), trie_nodes)
        for i, n in enumerate(counts.tolist()):
            if n == 0:
                assert trie_nodes[i] == pat_nodes[i] == 0 and not hist[i].any()
                assert row[i] == depth[i] == -1
                continue
            keys = random_key_set(SKEWED, n, replicate_rng(31, i))
            pat = build_patricia(keys)
            assert trie_nodes[i] == build_trie(keys).node_count()
            assert pat_nodes[i] == pat.node_count()
            assert hist[i].sum() == sum(1 for node in pat.nodes() if node.children)
            assert depth[i] == len(pat.root.prefix) and forest.count[row[i]] == n


def _inf_on_unary(st):
    return np.where(st.outdeg == 1, np.inf, 1.0)


def _node_count(st):
    return st.node_count


class TestTollGate:
    """A toll counts only at patricia rows: whatever its rule gives on a
    unary row, even a non-finite value or one of the view's own columns,
    the sums and root values are the explicit patricia trie's."""

    def check(self, tolls, paired_trie=False, replicates=6):
        from triefringe.simulation import _collect

        cfg = SimulationConfig.fixed(SKEWED, 60, replicates, 53, tolls, paired_trie=paired_trie)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = next(_collect([cfg]))
        slow = explicit_run(cfg)
        for key in ("pat", "pat_nodes", "hist") + (("trie",) if paired_trie else ()):
            assert np.array_equal(fast[key], slow[key]), key
        assert_roots_match(fast, slow)
        return fast

    def test_chi_of_the_custom_rules(self):
        # the values these rules' tolls once passed beside them
        for rule, chi in [(_spread, 0.75), (two_way, 0.0), (_inf_on_unary, 1.0), (_node_count, 1.0)]:
            assert TollFunction(rule.__name__, rule).chi == chi

    def test_non_finite_value_on_unary_rows_counts_zero(self):
        inf_unary = TollFunction(name="inf-unary", stats_fn=_inf_on_unary)
        fast = self.check((inf_unary,))
        assert np.all(np.isfinite(fast["pat"]))
        assert np.array_equal(fast["pat"][:, 0], fast["pat_nodes"])

    @pytest.mark.parametrize("paired_trie", [False, True])
    def test_rule_returning_a_view_column(self, paired_trie):
        node_count = TollFunction(name="node-count", stats_fn=_node_count)
        fast = self.check((node_count, phi_internal(), node_count), paired_trie)
        assert np.array_equal(fast["pat"][:, 0], fast["pat"][:, 2])


def assert_roots_match(fast, slow):
    """Root outputs equal the explicit trees', and gating the root toll at
    depth 0 gives the pulled-back toll at the trie root."""
    assert np.array_equal(fast["root"], slow["root"])
    assert np.array_equal(fast["root_depth"], slow["root_depth"])
    pulled = np.where(fast["root_depth"][:, None] == 0, fast["root"], 0.0)
    assert np.array_equal(pulled, slow["pulled_root"])


class TestEngineMatchesExplicitTrees:
    """The vectorized forest engine must agree bit for bit with explicit
    trees built from the same keys, on every source, mode, and toll."""

    # the (0.05, 0.95) source grows keys past several 32-column character
    # blocks even at these small key counts
    SOURCES = (
        BIN_SYM,
        SKEWED,
        TERNARY,
        SourceDistribution((0.2, 0.3, 0.5)),
        SourceDistribution((0.05, 0.95)),
    )

    def test_patricia_values_histogram_and_roots(self):
        from triefringe.simulation import _collect
        from triefringe.trees import enumerate_patricia_shapes

        tolls = (
            phi_k(2),
            phi_k(3),
            phi_internal(),
            phi_leaf(),
            phi_alpha(),
            phi_shape(enumerate_patricia_shapes(3, 2)[0]),
        )
        for d in self.SOURCES:
            for mode, size in (("fixed", 7.0), ("poisson", 5.0), ("fixed", 1.0), ("fixed", 0.0)):
                cfg = SimulationConfig(d, mode, size, 50, 4242, tolls)
                fast = next(_collect([cfg]))
                slow = explicit_run(cfg)
                for key in ("n", "pat", "pat_nodes", "trie_nodes", "hist"):
                    assert np.array_equal(fast[key], slow[key]), (key, d.probs, mode, size)
                assert_roots_match(fast, slow)

    def test_paired_trie_values(self):
        from triefringe.simulation import _collect
        from triefringe.trees import build_trie, enumerate_patricia_shapes

        # a ternary shape, and a trie shape whose 0-child is unary: the
        # latter is the fringe of some trie node but of no patricia node
        unary = build_trie(["000", "001", "1"], 2)
        tolls = (
            phi_k(2),
            phi_internal(),
            phi_leaf(),
            phi_alpha(),
            phi_shape(enumerate_patricia_shapes(3, 2)[1]),
            TWO_WAY,
            phi_shape(enumerate_patricia_shapes(3, 3)[16]),
            phi_shape(unary),
        )
        found = {"pat": np.zeros(len(tolls)), "trie": np.zeros(len(tolls))}
        for d in self.SOURCES:
            cfg = SimulationConfig.fixed(d, 9, 40, 99, tolls, paired_trie=True)
            fast = next(_collect([cfg]))
            slow = explicit_run(cfg)
            for key in ("pat", "trie", "trie_nodes"):
                assert np.array_equal(fast[key], slow[key]), (key, d.probs)
            assert_roots_match(fast, slow)
            for key in found:
                found[key] += fast[key].sum(axis=0)
        assert found["pat"][-2] > 0 and found["trie"][-2] > 0
        assert found["pat"][-1] == 0 and found["trie"][-1] > 0

    def test_widest_alphabet_matches_explicit_tree(self):
        # m = 128 is the largest alphabet whose characters fit in int8
        from triefringe.functionals import evaluate_additive
        from triefringe.simulation import _collect, replicate_rng
        from triefringe.trees import build_patricia, random_key_set

        d = SourceDistribution.uniform(128)
        tolls = (phi_k(2), phi_k(3), phi_internal(), phi_leaf(), phi_alpha())
        cfg = SimulationConfig.fixed(d, 3000, 2, 61, tolls)
        fast = next(_collect([cfg]))
        keys = random_key_set(d, 3000, replicate_rng(61, 0))
        pat = build_patricia(keys)
        assert np.array_equal(fast["pat"][0], evaluate_additive(tolls, pat))
        assert fast["pat_nodes"][0] == pat.node_count()
        assert max(key[0] for key in keys.keys) == 127

    def test_fuzzed_configs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from triefringe.simulation import _collect
        from triefringe.trees import enumerate_patricia_shapes

        tolls = (
            phi_k(2),
            phi_k(4),
            phi_internal(),
            phi_leaf(),
            phi_alpha(),
            phi_shape(enumerate_patricia_shapes(4, 2)[0]),
            TWO_WAY,
        )

        @settings(max_examples=40, deadline=None)
        @given(
            weights=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4),
            fixed=st.booleans(),
            size=st.integers(0, 25),
            seed=st.integers(0, 2**32),
        )
        def check(weights, fixed, size, seed):
            d = SourceDistribution(tuple(w / sum(weights) for w in weights))
            mode = "fixed" if fixed else "poisson"
            cfg = SimulationConfig(d, mode, float(size), 12, seed, tolls, paired_trie=True)
            fast = next(_collect([cfg]))
            slow = explicit_run(cfg)
            for key in ("n", "pat", "trie", "pat_nodes", "trie_nodes", "hist"):
                assert np.array_equal(fast[key], slow[key]), key
            assert_roots_match(fast, slow)

        check()

    @pytest.mark.parametrize("spec", ["0.3,0.7", "uniform:3", "0.05,0.95", "0.2,0.3,0.5"])
    def test_alpha_sums_equal_the_take_skip_oracle(self, spec):
        # an algorithm independent of the essentiality rule, on full-size
        # trees: up to about 12 000 trie nodes on 0.05,0.95
        from triefringe.functionals import brute_force_independence
        from triefringe.simulation import _collect, replicate_rng
        from triefringe.trees import build_patricia, build_trie, random_key_set

        d = SourceDistribution.parse(spec)
        cfg = SimulationConfig.fixed(d, 2000, 3, 71, (phi_alpha(),), paired_trie=True)
        fast = next(_collect([cfg]))
        for i in range(cfg.replicates):
            ks = random_key_set(d, 2000, replicate_rng(71, i))
            assert fast["pat"][i, 0] == brute_force_independence(build_patricia(ks)), (spec, i)
            assert fast["trie"][i, 0] == brute_force_independence(build_trie(ks)), (spec, i)


class TestShapeColumn:
    """``shape_sig == sig`` matches the nested signature on the node table:
    any rule may compare it with a shape of any size, and a malformed
    signature matches nothing, on the engine as on the explicit trees."""

    def test_custom_rule_equals_phi_shape(self, monkeypatch):
        from triefringe import simulation
        from triefringe.trees import enumerate_patricia_shapes, shape_signature

        shape = enumerate_patricia_shapes(3, 2)[1]
        rule = TollFunction("three-leaf", partial(matches, sig=shape_signature(shape)))
        custom, builtin = (
            SimulationConfig.fixed(SKEWED, 40, 60, 71, (toll,), paired_trie=True) for toll in (rule, phi_shape(shape))
        )
        want, oracle = explicit_run(builtin), explicit_run(custom)
        for key in ("pat", "trie", "root"):
            assert np.array_equal(oracle[key], want[key]), key
        assert want["pat"].sum() > 0 and want["trie"].sum() > 0
        small_blocks(monkeypatch)
        assert forks(custom) and len(simulation._block_bounds(custom)) > 1
        for threads in (1, 3):
            for cfg in (custom, builtin):
                fast = next(simulation._collect([cfg], threads))
                for key in ("pat", "trie", "root"):
                    assert np.array_equal(fast[key], want[key]), (key, threads, cfg.functionals)

    @pytest.mark.parametrize("d", [SKEWED, TERNARY])
    def test_malformed_signatures_match_nothing(self, d):
        from triefringe.simulation import _collect

        bad = (
            (),
            ((1, "*"), (0, "*")),
            ((0, "*"), (0, "*")),
            ((0, "*"), (d.m, "*")),
            ((0, ((1, "*"), (0, "*"))), (1, "*")),
            ((0, ()), (1, "*")),
        )
        cherry = ((0, "*"), (1, "*"))
        tolls = tuple(TollFunction(repr(sig), partial(matches, sig=sig)) for sig in (cherry, *bad))
        cfg = SimulationConfig.fixed(d, 12, 20, 73, tolls, paired_trie=True)
        fast = next(_collect([cfg]))
        slow = explicit_run(cfg)
        for key in ("pat", "trie", "root"):
            assert np.array_equal(fast[key], slow[key]), key
            assert not fast[key][:, 1:].any(), key
        assert fast["pat"][:, 0].sum() > 0 and fast["trie"][:, 0].sum() > 0


def comb(levels):
    """The patricia trie of the keys 1^i 0 (i < levels) and 1^levels: a
    shape ``levels`` levels deep, branching at every level of its spine."""
    from triefringe.trees import build_patricia

    return build_patricia(["1" * i + "0" for i in range(levels)] + ["1" * levels], 2)


class TestShapeDepthLimit:
    """phi_shape and sample_patricia_roots take shapes up to 256 levels deep,
    which every engine path compares and pickles, and refuse deeper ones
    before any replicate runs."""

    def test_deeper_shape_refused_before_any_replicate(self, monkeypatch):
        from triefringe import simulation

        def never(*args, **kwargs):
            raise AssertionError("a replicate ran before the shape was refused")

        monkeypatch.setattr(simulation, "_collect", never)
        deep = comb(257)
        with pytest.raises(ValueError, match="257 levels deep is past the limit of 256"):
            phi_shape(deep)
        with pytest.raises(ValueError, match="257 levels deep is past the limit of 256"):
            sample_patricia_roots(BIN_SYM, 10, 2, 1, [deep])

    def test_deepest_shape_runs(self, monkeypatch):
        from triefringe.simulation import _collect

        cfg = SimulationConfig.fixed(BIN_SYM, 300, 8, 5, (phi_shape(comb(256)), phi_shape(comb(256)), phi_k(2)))
        fast, slow = next(_collect([cfg])), explicit_run(cfg)
        for key in ("pat", "root"):
            assert np.array_equal(fast[key], slow[key]), key
        serial = run(cfg)
        small_blocks(monkeypatch)
        assert forks(cfg)
        assert run(cfg, threads=2).as_dict() == serial.as_dict()
        shape_index, prefix = sample_patricia_roots(BIN_SYM, 257, 4, 1, [comb(256)])
        assert shape_index.tolist() == [-1] * 4 and (prefix >= 0).all()


class TestRootStatistics:
    def test_blocked_like_one_block(self, monkeypatch):
        from triefringe import simulation
        from triefringe.trees import enumerate_patricia_shapes

        shapes = enumerate_patricia_shapes(5, 2)
        args = (SKEWED, 5, 600, 17)
        calls = record_blocks(monkeypatch)
        whole_roots = sample_patricia_roots(*args, shapes)
        whole_alpha = estimate_root_essential(*args)
        assert len(calls) == 2
        calls.clear()
        monkeypatch.setattr(simulation, "_BLOCK_KEYS", 1000)
        roots = sample_patricia_roots(*args, shapes)
        assert len(calls) > 1
        calls.clear()
        alpha = estimate_root_essential(*args)
        assert len(calls) > 1
        assert all(np.array_equal(a, b) for a, b in zip(roots, whole_roots))
        assert alpha == whole_alpha

    def test_shape_index_is_last_matching_shape(self):
        # the index toll gives what one phi_shape toll per shape read at the
        # root gives, with repeated shapes and shapes of other key counts
        from triefringe.simulation import _collect
        from triefringe.trees import enumerate_patricia_shapes

        four = enumerate_patricia_shapes(4, 2)
        shapes = [*four, four[0], *enumerate_patricia_shapes(3, 2), four[2]]
        found = {}
        for n in (4, 1, 0):
            index, depth = sample_patricia_roots(SKEWED, n, 300, 19, shapes)
            found[n] = set(index.tolist())
            cfg = SimulationConfig.fixed(SKEWED, n, 300, 19, tuple(phi_shape(s) for s in shapes))
            ref = next(_collect([cfg]))
            want = np.full(300, -1)
            for j in range(len(shapes)):
                want[ref["root"][:, j] > 0] = j
            assert index.dtype == np.int64 and np.array_equal(index, want), n
            assert np.array_equal(depth, ref["root_depth"])
        # every 4-key shape occurs, and four[0] and four[2] read as their repeats
        assert found == {4: {1, 3, 4, 5, 8}, 1: {-1}, 0: {-1}}

    def test_empty_shape_rejected(self):
        from triefringe.trees import PatriciaTrie

        with pytest.raises(ValueError, match="empty tree"):
            sample_patricia_roots(BIN_SYM, 3, 10, 1, [PatriciaTrie(None, 2)])

    @pytest.mark.parametrize("call", ["estimate_fX", "estimate_root_essential", "oscillation_scan"])
    def test_one_replicate_rejected(self, call):
        calls = {
            "estimate_fX": lambda: estimate_fX(phi_k(2), BIN_SYM, 5.0, 1, 1),
            "estimate_root_essential": lambda: estimate_root_essential(BIN_SYM, 5, 1, 1),
            "oscillation_scan": lambda: oscillation_scan(BIN_SYM, phi_k(2), 8.0, 1, 1, 1, 1),
        }
        with pytest.raises(ValueError, match="replicates must be >= 2"):
            calls[call]()


class TestPoissonizedVariance:
    def test_variance_over_lambda_matches_sigma_hat(self):
        # the Poissonized fringe count scales with sigma_hat^2 = H^-1 f_V*(-1)
        from triefringe.asymptotics import sigma_constants

        lam, reps = 1e4, 400
        s = run(SimulationConfig.poisson(BIN_SYM, lam, reps, 8111, (phi_k(2),)))
        st = s.stats("k=2")
        hat, _ = sigma_constants(BIN_SYM, 2).at(math.log(lam))
        assert abs(st.variance / lam - hat) < 3 * st.se_variance / lam


class TestPairedTrie:
    def test_link_identities(self):
        k, n, reps = 2, 2000, 300
        cfg = SimulationConfig.fixed(BIN_SYM, n, reps, 53, (phi_k(k),), paired_trie=True)
        s = run(cfg)
        pat, trie = s.stats("k=2"), s.trie_stats("k=2")
        mean_t, var_t = link_trie_patricia(pat.mean, pat.variance, k, BIN_SYM)
        assert abs(trie.mean - mean_t) < 3 * math.hypot(trie.se_mean, pat.se_mean / (1 - 0.5))
        assert abs(trie.variance - var_t) < 3 * math.hypot(trie.se_variance, 4 * pat.se_variance)

    def test_leaf_count_identical_on_both(self):
        cfg = SimulationConfig.fixed(SKEWED, 100, 50, 59, (phi_leaf(),), paired_trie=True)
        s = run(cfg)
        assert s.stats("leaf").mean == s.trie_stats("leaf").mean == 100.0


class TestEstimateFX:
    def test_fe_matches_closed_form(self):
        lam, reps = 10.0, 60000
        est = estimate_fX(phi_k(2), BIN_SYM, lam, reps, 61)
        assert abs(est.f_e - fe_lambda(BIN_SYM, 2, lam)) < 3 * est.f_e_se
        assert est.f_e_se < 3e-4

    def test_fv_matches_truncated_sum(self):
        lam, reps = 10.0, 60000
        est = estimate_fX(phi_k(2), BIN_SYM, lam, reps, 67)
        target = fv_lambda(BIN_SYM, 2, lam).value
        assert abs(est.f_v - target) < 3 * est.f_v_se

    def test_fc_matches_closed_form(self):
        # Cov(root toll, N) = (k - lam) f_E(lam) for the k-fringe toll
        lam, reps, k = 10.0, 60000, 2
        est = estimate_fX(phi_k(k), BIN_SYM, lam, reps, 71)
        target = (k - lam) * fe_lambda(BIN_SYM, k, lam)
        assert abs(est.f_c - target) < 3 * est.f_c_se

    def test_tiny_lambda_all_vanish(self):
        est = estimate_fX(phi_k(2), BIN_SYM, 1e-3, 20000, 73)
        assert abs(est.f_e) <= 3 * est.f_e_se + 1e-9
        assert abs(est.f_v) <= 3 * est.f_v_se + 1e-9
        assert abs(est.f_c) <= 3 * est.f_c_se + 1e-9

    def test_chi_terms_cancel_for_leaf_toll(self):
        # the leaf count is N itself, so all three profiles of its toll vanish
        # identically; each chi-correction term is nonzero, so this pins the
        # chi plumbing: Cov(x, N) = lam e^-lam (1 - lam) cancels against
        # +chi lam (lam-1) e^-lam, and similarly for the variance profile
        lam, reps = 4.0, 40000
        est = estimate_fX(phi_leaf(), BIN_SYM, lam, reps, 79)
        assert abs(est.f_e) < 3 * est.f_e_se
        assert est.f_v_se > 1e-4 and abs(est.f_v) < 3 * est.f_v_se
        assert est.f_c_se > 1e-4 and abs(est.f_c) < 3 * est.f_c_se


class TestPoissonLimit:
    """A lambda past numpy's Poisson limit is refused before any replicate runs."""

    @pytest.fixture(autouse=True)
    def no_runs(self, monkeypatch):
        from triefringe import simulation

        def never(*args, **kwargs):
            raise AssertionError("a replicate ran before the lambda was refused")

        monkeypatch.setattr(simulation, "_collect", never)

    def test_config_refuses(self):
        with pytest.raises(LimitExceeded, match="Poisson limit"):
            SimulationConfig.poisson(BIN_SYM, 1e19, 2, 1, (phi_k(2),))
        SimulationConfig.poisson(BIN_SYM, 9.2e18, 2, 1, (phi_k(2),))

    def test_estimate_fx_refuses(self):
        # this once raised numpy's bare "lam value too large"
        with pytest.raises(LimitExceeded, match="Poisson limit"):
            estimate_fX(phi_k(2), BIN_SYM, 1e19, 2, 1)


class TestNormalityDiagnostics:
    def test_gaussian_sample(self):
        rng = np.random.default_rng(83)
        diag = normality_diagnostics(rng.normal(size=10**4))
        assert abs(diag.skewness) < 0.08
        assert abs(diag.excess_kurtosis) < 0.15
        assert diag.skewness_se > 0 and diag.excess_kurtosis_se > 0

    def test_constant_sample_degenerate(self):
        # np.var of 2000 copies of 0.1 or 7.7 is about 1e-34 or 3e-30, not 0
        for value, size in ((1.0, 500), (0.1, 2000), (7.7, 2000)):
            with pytest.raises(DegenerateVariance):
                normality_diagnostics(np.full(size, value))

    def test_exponential_sample(self):
        rng = np.random.default_rng(89)
        diag = normality_diagnostics(rng.exponential(size=5000))
        assert diag.skewness > 0.5 and diag.excess_kurtosis > 0.5

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            normality_diagnostics(np.arange(10))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, value):
        # refused before any moment, which would read nan (and warn for inf)
        x = np.random.default_rng(1).standard_normal(300)
        x[150] = x[200] = value
        with pytest.raises(ValueError, match=f"^sample 150 is {value}, not a finite number$"):
            normality_diagnostics(x)

    @pytest.mark.parametrize("shift", [1e4, 1e6])
    def test_shift_invariant(self, shift):
        # raw power sums of a sample far from 0 cancel: at a shift of 10^4
        # the excess kurtosis read -6.90, at 10^6 the skewness read 502
        x = np.random.default_rng(1).standard_normal(2000)
        want, got = normality_diagnostics(x), normality_diagnostics(x + shift)
        for field in ("skewness", "skewness_se", "excess_kurtosis", "excess_kurtosis_se"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-6), field


class TestOscillationScan:
    def test_aperiodic_flat(self):
        scan = oscillation_scan(SKEWED, phi_k(2), lam_min=64.0, replicates=300, master_seed=97, periods=3, points_per_period=4)
        slope, tstat = scan.residual_trend()
        assert abs(tstat) < 4.0
        # overlay is the constant limit for an aperiodic source
        assert np.allclose(scan.psi_overlay, scan.psi_overlay[0])

    def test_periodic_overlay_repeats(self):
        scan = oscillation_scan(BIN_SYM, phi_k(2), lam_min=32.0, replicates=100, master_seed=101, periods=2, points_per_period=4)
        # one period apart = 4 grid points apart: identical overlay values
        assert scan.psi_overlay[0] == pytest.approx(scan.psi_overlay[4], rel=1e-9)
        assert scan.psi_overlay[1] == pytest.approx(scan.psi_overlay[5], rel=1e-9)

    def test_point_without_spread_rejected(self):
        # both replicates of the second point hold the same number of keys
        scan = oscillation_scan(BIN_SYM, phi_leaf(), 5.0, 2, 1, periods=1, points_per_period=2)
        assert scan.se[0] > 0 and scan.se[1] == 0
        with pytest.raises(DegenerateVariance, match=r"point 1 \(log lambda 1.95601\)"):
            scan.residual_trend()

    def test_one_key_fringes_are_the_leaves(self):
        # phi_k(1) counts the same fringes as phi_leaf: chi = 1 and psi_E = 0
        kw = dict(lam_min=16.0, replicates=4, master_seed=3, periods=1, points_per_period=2)
        one, leaf = (oscillation_scan(BIN_SYM, toll, **kw) for toll in (phi_k(1), phi_leaf()))
        assert np.array_equal(one.psi_overlay, leaf.psi_overlay)
        assert np.array_equal(one.mean_over_lambda, leaf.mean_over_lambda)
        assert one.residual_trend() == leaf.residual_trend()

    def test_mean_tracks_overlay(self):
        scan = oscillation_scan(BIN_SYM, phi_k(2), lam_min=128.0, replicates=400, master_seed=103, periods=2, points_per_period=3)
        resid = scan.mean_over_lambda - scan.psi_overlay
        assert np.all(np.abs(resid) < 4 * scan.se + 5e-3)


class TestFringeDistribution:
    def test_partition_exact_per_replicate(self):
        from triefringe.simulation import _collect

        cfg = SimulationConfig.fixed(BIN_SYM, 300, 40, 107, ())
        data = next(_collect([cfg]))
        masses = data["hist"].sum(axis=1) + data["n"]
        assert np.array_equal(masses, data["pat_nodes"])

    def test_replicate_without_keys_rejected(self):
        from triefringe.errors import EmptyTree

        with pytest.raises(EmptyTree, match="replicate 0"):
            fringe_distribution(SimulationConfig.poisson(BIN_SYM, 0.5, 8, 3, ()))

    def test_binary_k2_mass(self):
        cfg = SimulationConfig.fixed(BIN_SYM, 20000, 60, 109, ())
        fd = fringe_distribution(cfg)
        target = fringe_limit(BIN_SYM, 2)
        assert abs(fd.mass(2) - target) / target < 0.03

    def test_ternary_k2_mass(self):
        cfg = SimulationConfig.fixed(TERNARY, 20000, 60, 113, ())
        fd = fringe_distribution(cfg)
        target = fringe_limit(TERNARY, 2)
        assert abs(fd.mass(2) - target) / target < 0.03

    def test_leaf_mass_binary(self):
        n = 5000
        cfg = SimulationConfig.fixed(BIN_SYM, n, 20, 127, ())
        fd = fringe_distribution(cfg)
        assert fd.leaf_mass_mean == pytest.approx(n / (2 * n - 1), abs=1e-12)


class TestSllnTrack:
    @pytest.mark.parametrize("n_grid", [[], [0], [16, 0], [-4], [2.5]])
    def test_grid_without_an_answer_rejected(self, n_grid):
        with pytest.raises(ValueError, match="n_grid must be a nonempty grid of integers >= 1"):
            slln_track(BIN_SYM, phi_leaf(), n_grid, 1)

    def test_toll_without_closed_form_needs_psi_e(self):
        with pytest.raises(ValueError, match="pass psi_e"):
            slln_track(BIN_SYM, phi_internal(), [4, 8], 1)

    def test_leaf_toll_exact_zero(self):
        track = slln_track(BIN_SYM, phi_leaf(), [2**j for j in range(4, 10)], 131)
        for _n, ratio, dev in track:
            assert ratio == 1.0
            assert dev == pytest.approx(0.0, abs=1e-12)

    def test_one_key_fringes_are_the_leaves(self):
        n_grid = [2**j for j in range(4, 10)]
        assert slln_track(BIN_SYM, phi_k(1), n_grid, 131) == slln_track(BIN_SYM, phi_leaf(), n_grid, 131)

    def test_custom_rule(self):
        # every internal node of a binary patricia trie splits two ways
        track = slln_track(BIN_SYM, TWO_WAY, [2**j for j in range(4, 8)], 131, psi_e=BIN_SYM.entropy())
        for n, ratio, dev in track:
            assert ratio == (n - 1) / n
            assert dev == pytest.approx(-1 / n, abs=1e-12)

    # nested sets in which a smaller set reads, in mid-pass, keys that a
    # larger one found alone before their character block was drawn
    @pytest.mark.parametrize(
        "spec,seed,n_grid", [("0.1,0.9", 148, [200, 1000]), ("0.05,0.95", 15, [30, 300, 1000]), ("0.05,0.95", 23, [30, 300, 1000])]
    )
    def test_nested_sets_match_explicit_tries(self, spec, seed, n_grid):
        from triefringe.functionals import evaluate_additive
        from triefringe.simulation import replicate_rng
        from triefringe.trees import build_patricia, random_key_set

        d = SourceDistribution.parse(spec)
        keys = random_key_set(d, n_grid[-1], replicate_rng(seed, 0)).keys
        for toll in (phi_k(2), phi_k(3)):
            track = slln_track(d, toll, n_grid[::-1], seed)
            assert [n for n, _, _ in track] == n_grid
            for n, ratio, _ in track:
                assert ratio == evaluate_additive(toll, build_patricia(keys[:n], d.m)) / n

    def test_k2_deviation_shrinks(self):
        small_n, large_n = [], []
        for seed in range(12):
            track = slln_track(BIN_SYM, phi_k(2), [2**8, 2**14], 137 + seed)
            small_n.append(abs(track[0][2]))
            large_n.append(abs(track[-1][2]))
        # almost-sure convergence at desk scale: most paths are already close...
        assert sum(1 for d in large_n if d < 0.01) >= 11
        # ...and the deviations shrink in distribution with n
        assert np.quantile(large_n, 0.9) < np.quantile(small_n, 0.9)
