import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triefringe.errors import DepthExceeded, InvalidPath, LimitExceeded, UnaryNode
from triefringe.source import SourceDistribution
from triefringe.trees import (
    KeySet,
    PrefixLaw,
    build_patricia,
    build_trie,
    compress,
    enumerate_patricia_shapes,
    fringe,
    random_key_set,
    shape_probability,
    shape_signature,
)

BIN_SYM = SourceDistribution((0.5, 0.5))

# the five keys drawn in the reference example tree pair
DRAWN_KEYS = ["1000", "1001", "1010", "1100", "1101"]


def finite_keysets(m=2):
    """Random prefix-free key sets: leaves of a random patricia construction."""

    def from_seed(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        depth = 24
        chars = rng.integers(0, m, size=(n, depth))
        keys = {tuple(int(c) for c in row) for row in chars}
        # equal-length distinct keys are automatically prefix-free
        return KeySet(sorted(keys), m)

    return st.integers(0, 10**9).map(from_seed)


class TestKeySet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            KeySet(["01", "01"], 2)

    def test_rejects_prefix(self):
        with pytest.raises(ValueError):
            KeySet(["0", "01"], 2)

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            KeySet(["02"], 2)


class TestBuildTrie:
    def test_empty(self):
        t = build_trie([], 2)
        assert t.is_empty and t.node_count() == 0

    def test_singleton(self):
        t = build_trie(["0"], 2)
        assert t.node_count() == 1
        assert t.root.key_index == 0

    def test_drawn_example_trie(self):
        t = build_trie(DRAWN_KEYS, 2)
        assert t.leaf_count() == 5
        assert t.node_count() == 11
        # unary chain: the root has the lone child '1'
        assert sorted(t.root.children) == [1]
        depths = [len(p) for p, node in t.paths() if node.is_leaf]
        assert max(depths) == 4

    def test_depth_exceeded(self):
        with pytest.raises(DepthExceeded):
            build_trie(["000", "001"], 2, max_depth=2)

    def test_agreement_below_bound_ok(self):
        t = build_trie(["000", "001"], 2, max_depth=3)
        assert t.leaf_count() == 2


class TestCompressAndPatricia:
    def test_single_leaf(self):
        p = compress(build_trie(["0"], 2))
        assert p.node_count() == 1
        assert p.root.prefix == ()

    def test_drawn_example_patricia(self):
        p = compress(build_trie(DRAWN_KEYS, 2))
        assert p.node_count() == 9
        assert p.root.prefix == (1,)
        prefixes = sorted(node.prefix for _, node in p.paths())
        assert prefixes.count((1,)) == 1 and prefixes.count((0,)) == 1
        assert prefixes.count(()) == 7
        # the '1' child of the root carries the prefix '0'
        assert p.node_at((1,)).prefix == (0,)
        p.validate()

    def test_direct_equals_compressed(self):
        assert build_patricia(DRAWN_KEYS, 2) == compress(build_trie(DRAWN_KEYS, 2))

    @given(finite_keysets())
    @settings(max_examples=100, deadline=None)
    def test_equivalence_random(self, ks):
        assert build_patricia(ks) == compress(build_trie(ks))

    @given(finite_keysets())
    @settings(max_examples=100, deadline=None)
    def test_no_unary_nodes_and_binary_count(self, ks):
        p = build_patricia(ks)
        p.validate()
        k = len(ks)
        assert p.leaf_count() == k
        assert p.node_count() == 2 * k - 1

    def test_random_streams_equivalence(self):
        d = SourceDistribution((0.3, 0.7))
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 12))
            ks = random_key_set(d, n, rng)
            p = build_patricia(ks)
            p.validate()
            assert p.node_count() == 2 * n - 1

    def test_builds_from_lazy_character_streams(self):
        d = SourceDistribution((0.5, 0.5))
        parent = np.random.SeedSequence(314)
        streams = [d.sample_stream(np.random.default_rng(s)) for s in parent.spawn(12)]
        ks = KeySet(streams, d.m)
        p = build_patricia(ks)
        p.validate()
        assert p.leaf_count() == 12
        assert build_trie(ks).leaf_count() == 12

    def test_mixed_finite_and_stream_keys(self):
        d = SourceDistribution((0.5, 0.5))
        stream = d.sample_stream(np.random.default_rng(9))
        ks = KeySet([(0, 0, 0, 0, 0, 0), stream], d.m)
        # the stream disagrees with the finite key early with overwhelming probability
        p = build_patricia(ks, max_depth=64)
        assert p.leaf_count() == 2


class TestCharBlocks:
    def test_key_set_reads_equal_pooled_columns(self):
        from triefringe.trees import CharBlocks

        # 100 characters reach into the fourth 32-column block
        d = SourceDistribution((0.05, 0.95))
        seeds, counts = (11, 12, 13), (6, 0, 9)
        pooled = CharBlocks(d, [np.random.default_rng(s) for s in seeds], counts)
        first_block = pooled.blocks[0]
        columns = np.stack([pooled.column(t) for t in range(100)], axis=1)
        assert len(pooled.blocks) == 4 and pooled.blocks[0] is first_block
        # a replicate without keys draws nothing from its generator
        assert pooled.rngs[1].random() == np.random.default_rng(12).random()
        at = 0
        for seed, n in zip(seeds, counts):
            ks = random_key_set(d, n, np.random.default_rng(seed))
            first = ks.keys[0].block.blocks[0] if n else None
            # key by key, so blocks are added midway through the reads
            reads = [[key[i] for i in range(100)] for key in ks.keys]
            assert np.array_equal(np.array(reads, dtype=np.int8).reshape(n, 100), columns[at : at + n])
            if n:
                assert ks.keys[0].block.blocks[0] is first
            at += n


class TestFringe:
    def test_root_fringe_clears_prefix(self):
        p = build_patricia(DRAWN_KEYS, 2)
        f = fringe(p, ())
        assert f.root.prefix == ()
        assert f.node_count() == p.node_count()

    def test_drawn_example_child(self):
        p = build_patricia(DRAWN_KEYS, 2)
        f = fringe(p, (1,))
        assert f.leaf_count() == 2
        assert f.root.prefix == ()
        keys = sorted(DRAWN_KEYS[node.key_index] for _, node in f.paths() if node.is_leaf)
        assert keys == ["1100", "1101"]

    def test_leaf_fringe(self):
        p = build_patricia(DRAWN_KEYS, 2)
        f = fringe(p, (0, 0, 0))
        assert f.node_count() == 1

    def test_invalid_path(self):
        p = build_patricia(DRAWN_KEYS, 2)
        with pytest.raises(InvalidPath):
            fringe(p, (1, 1, 1))


class TestEnumerateShapes:
    def test_counts_binary(self):
        # full binary trees with k leaves: Catalan(k-1)
        for k, count in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14)]:
            assert len(enumerate_patricia_shapes(k, 2)) == count

    def test_all_distinct(self):
        shapes = enumerate_patricia_shapes(5, 2)
        sigs = {shape_signature(s) for s in shapes}
        assert len(sigs) == len(shapes)

    def test_no_unary(self):
        for s in enumerate_patricia_shapes(4, 3):
            s.validate()

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            enumerate_patricia_shapes(11, 2)
        with pytest.raises(LimitExceeded):
            enumerate_patricia_shapes(0, 2)


class TestShapeProbability:
    def test_k2_unique_shape_mass_one(self):
        (shape,) = enumerate_patricia_shapes(2, 2)
        assert shape_probability(shape, BIN_SYM) == pytest.approx(1.0, abs=1e-14)

    def test_k3_lopsided_shape(self):
        shapes = enumerate_patricia_shapes(3, 2)
        # the shape with leaves at paths 0, 10, 11
        target = next(
            s for s in shapes if s.node_at((0,)).is_leaf and not s.node_at((1,)).is_leaf
        )
        assert shape_probability(target, BIN_SYM) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("k", [3, 4])
    def test_masses_sum_to_one(self, k):
        total = sum(shape_probability(s, BIN_SYM) for s in enumerate_patricia_shapes(k, 2))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_masses_sum_to_one_asymmetric_ternary(self, k):
        d = SourceDistribution((0.2, 0.3, 0.5))
        total = sum(shape_probability(s, d) for s in enumerate_patricia_shapes(k, 3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unary_shape_rejected(self):
        from triefringe.trees import PatriciaNode, PatriciaTrie

        bad = PatriciaTrie(PatriciaNode(children={0: PatriciaNode()}), 2, 1)
        with pytest.raises(UnaryNode):
            shape_probability(bad, BIN_SYM)


class TestPrefixLaw:
    def test_point_mass_example(self):
        law = PrefixLaw(2, BIN_SYM)
        assert law.mass("0") == pytest.approx(1 / 8, abs=1e-15)

    def test_zero_length_mass(self):
        for i in (2, 3, 5):
            law = PrefixLaw(i, BIN_SYM)
            assert law.mass(()) == pytest.approx(1 - BIN_SYM.rho(i), abs=1e-15)
            assert law.length_pmf(0) == pytest.approx(1 - BIN_SYM.rho(i), abs=1e-15)

    def test_level_masses_geometric(self):
        d = SourceDistribution((0.3, 0.7))
        law = PrefixLaw(3, d)
        rho = d.rho(3)
        import itertools

        for n in range(4):
            level = sum(law.mass(alpha) for alpha in itertools.product(range(2), repeat=n))
            assert level == pytest.approx((1 - rho) * rho**n, abs=1e-14)

    def test_sampler_matches_length_law(self):
        law = PrefixLaw(2, BIN_SYM)
        rng = np.random.default_rng(99)
        lengths = np.array([len(law.sample(rng)) for _ in range(20000)])
        # mean of Geom_0(1/2) is 1
        assert abs(lengths.mean() - 1.0) < 4 * lengths.std() / math.sqrt(len(lengths))


class TestMonteCarloShapeLaw:
    """Exact shape law vs simulated k-key patricia tries."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_shape_frequencies(self, k):
        reps = 20000
        rng = np.random.default_rng(5150 + k)
        shapes = enumerate_patricia_shapes(k, 2)
        probs = {shape_signature(s): shape_probability(s, BIN_SYM) for s in shapes}
        counts = {sig: 0 for sig in probs}
        for _ in range(reps):
            p = build_patricia(random_key_set(BIN_SYM, k, rng))
            counts[shape_signature(p)] += 1
        for sig, prob in probs.items():
            se = math.sqrt(prob * (1 - prob) / reps)
            assert abs(counts[sig] / reps - prob) < 4 * se

    def test_root_prefix_length_geometric(self):
        k, reps = 3, 20000
        rng = np.random.default_rng(77)
        q = 1 - BIN_SYM.rho(k)
        lengths = np.zeros(reps, dtype=int)
        for r in range(reps):
            p = build_patricia(random_key_set(BIN_SYM, k, rng))
            lengths[r] = len(p.root.prefix)
        mean = lengths.mean()
        expected = (1 - q) / q
        se = lengths.std(ddof=1) / math.sqrt(reps)
        assert abs(mean - expected) < 4 * se
