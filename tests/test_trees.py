import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triefringe.errors import DepthExceeded, InvalidPath, LimitExceeded, UnaryNode
from triefringe.functionals import evaluate_additive, phi_leaf
from triefringe.source import SourceDistribution
from triefringe.trees import (
    KeySet,
    PatriciaTrie,
    PrefixLaw,
    TrieNode,
    _bottom_up,
    build_patricia,
    build_trie,
    MAX_ENUMERATION_SHAPES,
    compress,
    count_patricia_shapes,
    enumerate_patricia_shapes,
    fringe,
    random_key_set,
    shape_probability,
    shape_signature,
    shape_string,
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

    def test_unary_chain_deeper_than_recursion_limit(self):
        keys = ["0" * 1500 + "0", "0" * 1500 + "1"]
        t = build_trie(keys, 2)
        assert t.node_count() == 1503
        assert compress(t) == build_patricia(keys, 2)
        assert evaluate_additive(phi_leaf(), t) == 2
        # the depth bound is where build_patricia puts it too
        for build in (build_trie, build_patricia):
            with pytest.raises(DepthExceeded):
                build(keys, 2, max_depth=1500)
            assert build(keys, 2, max_depth=1501).leaf_count() == 2

    def test_equality_and_hash_of_a_chain_deeper_than_recursion_limit(self):
        keys = ["0" * 1500 + "0", "0" * 1500 + "1"]
        other = ["0" * 1500 + "0", "0" * 1499 + "11"]
        for build in (build_trie, build_patricia):
            a, b = build(keys, 2), build(keys, 2)
            assert a == b and a.root == b.root and hash(a.root) == hash(b.root)
            assert a != build(other, 2)
        assert compress(build_trie(keys, 2)).root == build_patricia(keys, 2).root

    def test_equality_and_hash_match_the_recursive_definitions(self):
        def equal(x, y, fields):
            return (
                all(getattr(x, f) == getattr(y, f) for f in fields)
                and x.children.keys() == y.children.keys()
                and all(equal(c, y.children[a], fields) for a, c in x.children.items())
            )

        shapes = [t.root for k in (1, 2, 3, 4) for t in enumerate_patricia_shapes(k, 3)]
        tries = [build_trie(keys, 2).root for keys in (["0", "1"], ["00", "01", "1"], ["00", "01"], ["0", "10", "11"])]
        # an equal trie built anew, and one with other key labels
        tries += [build_trie(["0", "10", "11"], 2).root, build_trie(["00", "01", "1"][::-1], 2).root]
        for nodes, fields in ((shapes, ("prefix", "key_index")), (tries, ("key_index",))):
            for x, y in itertools.product(nodes, repeat=2):
                assert (x == y) == equal(x, y, fields)
                if x == y:
                    assert hash(x) == hash(y)
        assert len({hash(x) for x in shapes}) == len(shapes)

    def test_shape_forms_of_a_chain_deeper_than_recursion_limit(self):
        t = build_trie(["0" * 1500 + "0", "0" * 1500 + "1"], 2)
        assert shape_string(t) == "(0:" * 1500 + "(0:*,1:*)" + ")" * 1500
        sig = shape_signature(t)
        # tuples nested this deep cannot be compared with ==; unwrap them
        for _ in range(1500):
            ((char, sig),) = sig
            assert char == 0
        assert sig == ((0, "*"), (1, "*"))

    def test_shape_forms_match_the_recursive_definitions(self):
        def sig(n):
            return tuple((a, sig(c)) for a, c in sorted(n.children.items())) if n.children else "*"

        def render(n):
            if not n.children:
                return "*"
            return "(" + ",".join(f"{a}:{render(c)}" for a, c in sorted(n.children.items())) + ")"

        chain = ["2" * 50 + "0", "2" * 50 + "1", "2" * 30 + "1"]
        for t in (build_trie(chain, 3), build_patricia(chain, 3), build_trie(DRAWN_KEYS, 2)):
            assert shape_signature(t) == sig(t.root)
            assert shape_string(t) == render(t.root)

    def test_node_walks_of_a_chain_far_deeper_than_recursion_limit(self):
        t = build_trie(["0" * 9998 + "0", "0" * 9998 + "1"], 2)
        assert t.node_count() == sum(1 for _ in t.nodes()) == 10_001
        assert [len(node.children) for node in itertools.islice(t.nodes(), 9998, None)] == [2, 0, 0]
        with pytest.raises(UnaryNode):
            PatriciaTrie(t.root, 2).validate()
        p = compress(t)
        assert p.validate() and p.node_count() == 3


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

    def test_unary_chain_deeper_than_recursion_limit(self):
        keys = [(0,) * 1500 + (0,), (0,) * 1500 + (1,)]
        p = compress(build_trie(keys, 2))
        assert p == build_patricia(keys, 2)
        assert p.root.prefix == (0,) * 1500 and p.node_count() == 3

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
        # random keys are lazy streams: rows of a block that deepens on reading
        streams = random_key_set(d, 12, np.random.default_rng(314)).keys
        ks = KeySet(streams, d.m)
        p = build_patricia(ks)
        p.validate()
        assert p.leaf_count() == 12
        assert build_trie(ks).leaf_count() == 12

    def test_mixed_finite_and_stream_keys(self):
        d = SourceDistribution((0.5, 0.5))
        (stream,) = random_key_set(d, 1, np.random.default_rng(9)).keys
        ks = KeySet([(0, 0, 0, 0, 0, 0), stream], d.m)
        # the stream disagrees with the finite key early with overwhelming probability
        p = build_patricia(ks, max_depth=64)
        assert p.leaf_count() == 2


class TestBottomUp:
    def test_left_to_right_post_order_whatever_the_dict_order(self):
        # children dicts inserted in descending and mixed character order
        left = TrieNode(children={1: TrieNode(key_index=1), 0: TrieNode(key_index=0)})
        root = TrieNode(children={2: TrieNode(key_index=3), 0: left, 1: TrieNode(key_index=2)})
        seen = []

        def combine(node, items):
            seen.append(node)
            return [a for a, _ in items]

        assert _bottom_up(root, combine) == [0, 1, 2]
        assert seen == [left.children[0], left.children[1], left, root.children[1], root.children[2], root]

    def test_shared_subtree_folded_at_each_place(self):
        leaf = TrieNode()
        root = TrieNode(children={0: leaf, 1: TrieNode(children={0: leaf, 1: leaf})})
        assert _bottom_up(root, lambda n, items: 1 + sum(v for _, v in items)) == 5


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

    # counts: fixed, and uneven with a replicate that has no keys
    COUNTS = ((40, 40, 40), (37, 0, 90, 5))

    @staticmethod
    def row_sets(counts):
        from triefringe.trees import _SKIP_MIN_ROWS as skip

        total = sum(counts)
        scattered = np.unique(np.random.default_rng(5).integers(0, total, total // 5))
        # rows skip - 1 apart leave a gap too short to skip, skip + 1 apart one just long enough
        gaps = [3, 3 + skip, 3 + 2 * skip + 1]
        return {
            "empty": [],
            "single": [total // 2],
            "scattered": scattered,
            "gaps": gaps,
            "ends": [0, counts[0] - 1, total - 1],
            "all": np.arange(total),
        }

    @pytest.mark.parametrize("spec", ["0.5,0.5", "0.3,0.7", "uniform:3", "0.05,0.95"])
    @pytest.mark.parametrize("counts", COUNTS)
    def test_sparse_blocks_equal_full_draw(self, spec, counts):
        from triefringe.trees import _SKIP_MIN_ROWS, KEY_BLOCK_WIDTH, CharBlocks

        d = SourceDistribution.parse(spec)
        seeds = range(21, 21 + len(counts))
        full = CharBlocks(d, [np.random.default_rng(s) for s in seeds], counts)
        want = np.stack([full.column(t) for t in range(3 * KEY_BLOCK_WIDTH)], axis=1)
        for name, rows in self.row_sets(counts).items():
            rows = np.asarray(rows, dtype=np.intp)
            sparse = CharBlocks(d, [np.random.default_rng(s) for s in seeds], counts)
            # block 0 holds every row; block 1 is drawn at the rows of its first read
            for t in range(2 * KEY_BLOCK_WIDTH):
                assert np.array_equal(sparse.column(t, rows), want[rows, t]), (name, t)
            # a later read of block 1 may name any subset of those rows
            assert np.array_equal(sparse.column(40, rows[::3]), want[rows[::3], 40]), name
            drawn = len(sparse.blocks[1])
            if name == "gaps":
                assert drawn == _SKIP_MIN_ROWS + 2  # rows 3..3 + skip, then one row
            elif name != "all":
                assert drawn < sum(counts)
            # the generators end where a full draw leaves them: block 2 is the full draw
            for t in range(2 * KEY_BLOCK_WIDTH, 3 * KEY_BLOCK_WIDTH):
                assert np.array_equal(sparse.column(t), want[:, t]), (name, t)
            for a, b in zip(sparse.rngs, full.rngs):
                assert a.bit_generator.state == b.bit_generator.state, name

    def test_row_a_sparse_block_does_not_hold(self):
        from triefringe.trees import KEY_BLOCK_WIDTH, CharBlocks

        chars = CharBlocks(SourceDistribution((0.3, 0.7)), [np.random.default_rng(4)], [40])
        chars.column(KEY_BLOCK_WIDTH, np.array([3, 30]))  # block 1 holds rows 3 and 30
        t = KEY_BLOCK_WIDTH + 5
        # any other row reads the characters of the block's first slot, row 3
        assert np.array_equal(chars.column(t, np.array([0, 30, 39])), chars.column(t, np.array([3, 30, 3])))


class TestFringe:
    def test_root_fringe_clears_prefix(self):
        p = build_patricia(DRAWN_KEYS, 2)
        f = fringe(p, ())
        assert f.root.prefix == ()
        assert f.node_count() == p.node_count()

    def test_drawn_example_child(self):
        p = build_patricia(DRAWN_KEYS, 2)
        f = fringe(p, (1,))
        assert f.leaf_count() == f.num_keys == 2
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

    @pytest.mark.parametrize("m, kmax", [(2, 8), (3, 5), (4, 4), (5, 3), (9, 3)])
    def test_count_is_the_enumeration_size(self, m, kmax):
        for k in range(1, kmax + 1):
            assert count_patricia_shapes(k, m) == len(enumerate_patricia_shapes(k, m)), (k, m)

    def test_counts(self):
        for k, m, count in [(10, 2, 4862), (5, 3, 1326), (10, 3, 144_342_627), (5, 8, 9_548_392)]:
            assert count_patricia_shapes(k, m) == count

    def test_budget_refuses_before_building(self, monkeypatch):
        from triefringe import trees

        # binary shapes up to k = 10 and ternary ones up to k = 7 fit
        assert count_patricia_shapes(10, 2) <= MAX_ENUMERATION_SHAPES
        assert count_patricia_shapes(7, 3) <= MAX_ENUMERATION_SHAPES

        def never(k, m):
            raise AssertionError("shapes built past the budget")

        monkeypatch.setattr(trees, "_shapes", never)
        for k, m in [(8, 3), (10, 3), (5, 8), (10, 128)]:
            with pytest.raises(LimitExceeded, match="budget"):
                enumerate_patricia_shapes(k, m)


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

        bad = PatriciaTrie(PatriciaNode(children={0: PatriciaNode()}), 2)
        with pytest.raises(UnaryNode):
            shape_probability(bad, BIN_SYM)

    def test_equals_the_plain_float_product(self):
        # the recursive product in preorder, bit for bit, wherever it is finite
        def plain(shape, d):
            acc = math.factorial(shape.root.leaf_count)

            def walk(node, path_prob):
                nonlocal acc
                if not node.children:
                    acc *= path_prob
                    return
                acc *= 1.0 / (1.0 - d.rho(node.leaf_count))
                for a, c in node.children.items():
                    walk(c, path_prob * d.probs[a])

            walk(shape.root, 1.0)
            return acc

        for spec, kmax in (("0.5,0.5", 7), ("0.3,0.7", 7), ("0.2,0.3,0.5", 5)):
            d = SourceDistribution.parse(spec)
            for k in range(1, kmax + 1):
                for s in enumerate_patricia_shapes(k, d.m):
                    assert shape_probability(s, d).hex() == plain(s, d).hex()

    def test_more_keys_than_a_float_factorial_holds(self):
        from fractions import Fraction

        from triefringe.trees import PatriciaNode

        def complete(levels):
            if levels == 0:
                return PatriciaNode()
            return PatriciaNode(children={0: complete(levels - 1), 1: complete(levels - 1)})

        def exact(node, path_prob):
            # k! is applied by the caller; p = 1/2 makes rho(j) = 2^(1-j)
            if not node.children:
                return path_prob
            out = 1 / (1 - Fraction(2) ** (1 - node.leaf_count))
            for c in node.children.values():
                out *= exact(c, path_prob / 2)
            return out

        root = complete(8)
        want = math.factorial(256) * exact(root, Fraction(1))
        got = shape_probability(root, BIN_SYM)
        assert 1e-68 < got < 1e-67
        assert abs(Fraction(got) / want - 1) < 1e-12


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
