import math

import numpy as np
import pytest

from triefringe.asymptotics import (
    fe_k_star,
    fe_lambda,
    fringe_limit,
    fv_lambda,
    link_trie_patricia,
)
from triefringe.errors import DegenerateVariance, DepthExceeded
from triefringe.functionals import TollFunction, phi_alpha, phi_internal, phi_k, phi_leaf, phi_shape
from triefringe.simulation import (
    SimulationConfig,
    estimate_fX,
    fringe_distribution,
    normality_diagnostics,
    oscillation_scan,
    run,
    slln_track,
)
from triefringe.source import SourceDistribution

BIN_SYM = SourceDistribution((0.5, 0.5))
TERNARY = SourceDistribution.uniform(3)
SKEWED = SourceDistribution((0.3, 0.7))


def two_way(st):
    """A rule no built-in toll uses: the fringe's root splits two ways."""
    return (st.outdeg == 2) * 1.0


TWO_WAY = TollFunction(name="two-way", chi=0.0, stats_fn=two_way)


def explicit_chunk(config, start, stop):
    """Reference for the engine: replicates [start, stop) built as explicit
    tries and patricia tries from the same keys, evaluated node by node,
    with every output the engine can give."""
    from triefringe.functionals import evaluate_additive, pullback
    from triefringe.simulation import replicate_rng
    from triefringe.trees import build_patricia, build_trie, random_key_set

    tolls = list(config.functionals)
    kmax = config.histogram_kmax
    out = {key: [] for key in ("n", "pat", "trie", "root", "pat_nodes", "trie_nodes", "hist")}
    for i in range(start, stop):
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
        out["root"].append([pullback(t).value(trie) for t in tolls])
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
        from triefringe.simulation import _chunk_bounds
        from triefringe.trees import enumerate_patricia_shapes

        # large enough that the run spans several chunks and really exercises
        # the worker pool; the second config does not divide evenly into
        # chunks of the nominal size
        for cfg in (
            SimulationConfig.fixed(BIN_SYM, 40_000, 64, 29, (phi_k(2), phi_alpha())),
            SimulationConfig.fixed(TERNARY, 50_000, 24, 29, (phi_k(2), phi_alpha())),
        ):
            assert len(_chunk_bounds(cfg)) > 1
            seq = run(cfg, threads=1)
            par = run(cfg, threads=3)
            assert seq.as_dict() == par.as_dict()
        # shape tolls and custom rules on the trie side travel to the workers
        # too; small chunks keep the signature sweep short
        monkeypatch.setattr(simulation, "_CHUNK_KEYS", 1000)
        tolls = (phi_shape(enumerate_patricia_shapes(3, 2)[0]), TWO_WAY, phi_alpha())
        cfg = SimulationConfig.fixed(SKEWED, 200, 24, 29, tolls, paired_trie=True)
        assert len(_chunk_bounds(cfg)) > 1
        assert run(cfg, threads=1).as_dict() == run(cfg, threads=3).as_dict()

    def test_chunks_balanced(self):
        from triefringe.simulation import _CHUNK_KEYS, _chunk_bounds

        cfg = SimulationConfig.fixed(TERNARY, 50_000, 24, 1, ())
        assert _chunk_bounds(cfg) == [(0, 12), (12, 24)]
        for mode, size, R in (
            ("fixed", 50_000, 24),
            ("fixed", 40_000, 64),
            ("fixed", 300_000, 7),
            ("fixed", 10, 5),
            ("fixed", 2_000_000, 3),
            ("poisson", 1e5, 31),
            ("poisson", 0.5, 1),
        ):
            chunks = _chunk_bounds(SimulationConfig(BIN_SYM, mode, float(size), R, 1, ()))
            per = max(1.0, size if mode == "fixed" else size + 1.0)
            reps_per_chunk = max(1, int(_CHUNK_KEYS / per))
            assert len(chunks) == math.ceil(R / reps_per_chunk)
            assert chunks[0][0] == 0 and chunks[-1][1] == R
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            sizes = [b - a for a, b in chunks]
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= reps_per_chunk

    def test_pool_fallback_warns(self, monkeypatch):
        import concurrent.futures

        from triefringe import simulation

        def refuse(*args, **kwargs):
            raise PermissionError("no subprocesses here")

        cfg = SimulationConfig.fixed(TERNARY, 100, 30, 53, (phi_k(2), phi_alpha()))
        monkeypatch.setattr(simulation, "_CHUNK_KEYS", 1000)
        assert len(simulation._chunk_bounds(cfg)) == 3
        seq = run(cfg, threads=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.warns(RuntimeWarning, match="no subprocesses here"):
            fallback = run(cfg, threads=2)
        assert fallback.as_dict() == seq.as_dict()

    def test_histogram_partitions_nodes(self):
        cfg = SimulationConfig.fixed(TERNARY, 500, 30, 31, (phi_leaf(),))
        s = run(cfg)
        assert s.histogram_mean.sum() + s.mean_keys == pytest.approx(s.mean_pat_nodes, abs=1e-9)

    def test_depth_exceeded_carries_replicate(self):
        cfg = SimulationConfig.fixed(BIN_SYM, 64, 8, 37, (phi_leaf(),), max_depth=3)
        with pytest.raises(DepthExceeded) as err:
            run(cfg)
        assert err.value.replicate is not None

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
        from triefringe.simulation import _engine_chunk
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
                fast = _engine_chunk(cfg, 0, 50, want_roots=True)
                slow = explicit_chunk(cfg, 0, 50)
                for key in ("n", "pat", "pat_nodes", "trie_nodes", "hist", "root"):
                    assert np.array_equal(fast[key], slow[key]), (key, d.probs, mode, size)

    def test_paired_trie_values(self):
        from triefringe.simulation import _engine_chunk
        from triefringe.trees import enumerate_patricia_shapes

        tolls = (
            phi_k(2),
            phi_internal(),
            phi_leaf(),
            phi_alpha(),
            phi_shape(enumerate_patricia_shapes(3, 2)[1]),
            TWO_WAY,
        )
        for d in self.SOURCES:
            cfg = SimulationConfig.fixed(d, 9, 40, 99, tolls, paired_trie=True)
            fast = _engine_chunk(cfg, 0, 40)
            slow = explicit_chunk(cfg, 0, 40)
            for key in ("pat", "trie", "trie_nodes"):
                assert np.array_equal(fast[key], slow[key]), (key, d.probs)

    def test_widest_alphabet_matches_explicit_tree(self):
        # m = 128 is the largest alphabet whose characters fit in int8
        from triefringe.functionals import evaluate_additive
        from triefringe.simulation import _engine_chunk, replicate_rng
        from triefringe.trees import build_patricia, random_key_set

        d = SourceDistribution.uniform(128)
        tolls = (phi_k(2), phi_k(3), phi_internal(), phi_leaf(), phi_alpha())
        cfg = SimulationConfig.fixed(d, 3000, 2, 61, tolls)
        fast = _engine_chunk(cfg, 0, 2)
        keys = random_key_set(d, 3000, replicate_rng(61, 0))
        pat = build_patricia(keys)
        assert np.array_equal(fast["pat"][0], evaluate_additive(tolls, pat))
        assert fast["pat_nodes"][0] == pat.node_count()
        assert max(key[0] for key in keys.keys) == 127

    def test_fuzzed_configs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from triefringe.simulation import _engine_chunk
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
            fast = _engine_chunk(cfg, 0, 12, want_roots=True)
            slow = explicit_chunk(cfg, 0, 12)
            for key in ("n", "pat", "trie", "pat_nodes", "trie_nodes", "hist", "root"):
                assert np.array_equal(fast[key], slow[key]), key

        check()


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


class TestNormalityDiagnostics:
    def test_gaussian_sample(self):
        rng = np.random.default_rng(83)
        diag = normality_diagnostics(rng.normal(size=10**4))
        assert abs(diag.skewness) < 0.08
        assert abs(diag.excess_kurtosis) < 0.15
        assert diag.skewness_se > 0 and diag.excess_kurtosis_se > 0

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateVariance):
            normality_diagnostics(np.ones(500))

    def test_flags(self):
        rng = np.random.default_rng(89)
        skewed = rng.exponential(size=5000)
        diag = normality_diagnostics(skewed, skew_threshold=0.5, kurtosis_threshold=0.5)
        assert "skewness" in diag.flags and "kurtosis" in diag.flags

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            normality_diagnostics(np.arange(10))


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

    def test_mean_tracks_overlay(self):
        scan = oscillation_scan(BIN_SYM, phi_k(2), lam_min=128.0, replicates=400, master_seed=103, periods=2, points_per_period=3)
        resid = scan.mean_over_lambda - scan.psi_overlay
        assert np.all(np.abs(resid) < 4 * scan.se + 5e-3)


class TestFringeDistribution:
    def test_partition_exact_per_replicate(self):
        from triefringe.simulation import _collect

        cfg = SimulationConfig.fixed(BIN_SYM, 300, 40, 107, ())
        data = _collect(cfg)
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
    def test_leaf_toll_exact_zero(self):
        track = slln_track(BIN_SYM, phi_leaf(), [2**j for j in range(4, 10)], 131)
        for _n, ratio, dev in track:
            assert ratio == 1.0
            assert dev == pytest.approx(0.0, abs=1e-12)

    def test_custom_rule(self):
        # every internal node of a binary patricia trie splits two ways
        track = slln_track(BIN_SYM, TWO_WAY, [2**j for j in range(4, 8)], 131, psi_e=BIN_SYM.entropy())
        for n, ratio, dev in track:
            assert ratio == (n - 1) / n
            assert dev == pytest.approx(-1 / n, abs=1e-12)

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
