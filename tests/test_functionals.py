import sys

import numpy as np
import pytest

from triefringe.errors import EmptyTree
from triefringe.functionals import (
    MAX_SHAPE_DEPTH,
    TollFunction,
    brute_force_independence,
    evaluate_additive,
    evaluate_summed,
    independence_number,
    matching_number,
    phi_alpha,
    phi_geq,
    phi_internal,
    phi_k,
    phi_leaf,
    phi_shape,
    pullback,
)
from triefringe.simulation import SimulationConfig, estimate_fX
from triefringe.source import SourceDistribution
from triefringe.trees import (
    PatriciaNode,
    Trie,
    TrieNode,
    build_patricia,
    build_trie,
    compress,
    enumerate_patricia_shapes,
    random_key_set,
    shape_probability,
)

BIN_SYM = SourceDistribution((0.5, 0.5))
DRAWN_KEYS = ["1000", "1001", "1010", "1100", "1101"]

ALL_TOLLS = [phi_k(2), phi_k(3), phi_geq(2), phi_geq(3), phi_internal(), phi_leaf(), phi_alpha()]


def random_patricia(rng, d=BIN_SYM, max_keys=12):
    n = int(rng.integers(1, max_keys + 1))
    return build_patricia(random_key_set(d, n, rng))


def random_trie(rng, d=BIN_SYM, max_keys=12):
    n = int(rng.integers(1, max_keys + 1))
    return build_trie(random_key_set(d, n, rng))


class TestEvaluate:
    def test_lone_root_internal_zero(self):
        t = build_patricia(["0"], 2)
        assert evaluate_additive(phi_internal(), t) == 0.0

    def test_drawn_example_counts(self):
        p = build_patricia(DRAWN_KEYS, 2)
        assert evaluate_additive(phi_k(2), p) == 2.0
        assert evaluate_additive(phi_geq(2), p) == 4.0
        assert evaluate_additive(phi_leaf(), p) == 5.0
        assert evaluate_additive(phi_internal(), p) == 4.0

    def test_leaf_count_on_any_patricia(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_patricia(rng)
            assert evaluate_additive(phi_leaf(), p) == p.num_keys

    def test_batched_matches_individual(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = random_patricia(rng)
            batch = evaluate_additive(ALL_TOLLS, p)
            singles = [evaluate_additive(t, p) for t in ALL_TOLLS]
            assert np.array_equal(batch, np.array(singles))

    def test_empty_tree_is_zero(self):
        t = build_patricia([], 2)
        assert evaluate_additive(phi_leaf(), t) == 0.0

    def test_summed_definition_matches_recursive(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_patricia(rng, max_keys=8)
            for toll in ALL_TOLLS:
                assert evaluate_summed(toll, p) == evaluate_additive(toll, p)

    def test_summed_definition_matches_on_tries(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            t = random_trie(rng, max_keys=8)
            for toll in (phi_k(2), phi_internal(), phi_alpha()):
                assert evaluate_summed(toll, t) == evaluate_additive(toll, t)


class TestChi:
    def test_chi_values(self):
        assert phi_k(2).chi == 0.0
        assert phi_k(1).chi == 1.0
        assert phi_geq(1).chi == 1.0
        assert phi_geq(3).chi == 0.0
        assert phi_leaf().chi == 1.0
        assert phi_internal().chi == 0.0
        assert phi_alpha().chi == 1.0

    def test_chi_is_value_on_lone_leaf(self):
        leaf = build_patricia(["0"], 2)
        for toll in ALL_TOLLS:
            assert toll.value(leaf) == toll.chi

    def test_shapes_and_pullbacks(self):
        # chi is read off the rule: a shape toll's is 1 for the lone leaf
        # alone, and a pullback's is its base's
        leaf, cherry = (enumerate_patricia_shapes(k, 2)[0] for k in (1, 2))
        assert phi_shape(leaf).chi == 1.0 and phi_shape(cherry).chi == 0.0
        for toll in ALL_TOLLS + [phi_shape(leaf), phi_shape(cherry)]:
            assert type(toll.chi) is float and pullback(toll).chi == toll.chi


class TestPullback:
    def test_unary_root_toll_zero(self):
        t = build_trie(DRAWN_KEYS, 2)  # root has exactly one child
        toll = pullback(phi_internal())
        assert toll.value(t) == 0.0

    def test_single_leaf_gives_chi(self):
        leaf = build_trie(["0"], 2)
        for base in ALL_TOLLS:
            assert pullback(base).value(leaf) == base.chi

    def test_drawn_example_identity(self):
        t = build_trie(DRAWN_KEYS, 2)
        assert evaluate_additive(pullback(phi_k(2)), t) == 2.0
        assert evaluate_additive(phi_k(2), compress(t)) == 2.0

    def test_identity_random(self):
        rng = np.random.default_rng(17)
        tolls = ALL_TOLLS + [phi_shape(enumerate_patricia_shapes(3, 2)[0])]
        pulled = [pullback(t) for t in tolls]
        for _ in range(300):
            t = random_trie(rng)
            p = compress(t)
            lhs = evaluate_additive(pulled, t)
            rhs = evaluate_additive(tolls, p)
            assert np.array_equal(lhs, rhs)

    def test_pullback_requires_trie(self):
        p = build_patricia(DRAWN_KEYS, 2)
        with pytest.raises(ValueError):
            evaluate_additive(pullback(phi_k(2)), p)

    def test_pulled_is_having_a_base(self):
        assert pullback(phi_k(2)).pulled
        assert not phi_k(2).pulled
        with pytest.raises(TypeError):
            TollFunction(name="k=2", stats_fn=phi_k(2).stats_fn, pulled=True)

    def test_pullback_of_a_pullback_rejected(self):
        with pytest.raises(ValueError, match="already a pullback"):
            pullback(pullback(phi_k(2)))

    @pytest.mark.parametrize("make", [phi_k, phi_geq])
    def test_size_below_one_rejected(self, make):
        with pytest.raises(ValueError, match="k must be >= 1"):
            make(0)

    def test_simulation_rejects_pulled_toll(self):
        with pytest.raises(ValueError, match="paired_trie"):
            SimulationConfig.fixed(BIN_SYM, 10, 2, 1, (pullback(phi_k(2)),))

    def test_estimate_fx_reads_the_base(self):
        toll = phi_k(2)
        assert estimate_fX(pullback(toll), BIN_SYM, 2.0, 40, 5) == estimate_fX(toll, BIN_SYM, 2.0, 40, 5)


class TestKGeqIdentity:
    def test_phi_k_equals_geq_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_patricia(rng)
            for k in (2, 3, 5):
                lhs = evaluate_additive(phi_k(k), p)
                rhs = evaluate_additive(phi_geq(k), p) - evaluate_additive(phi_geq(k + 1), p)
                assert lhs == rhs

    def test_monotone_in_nested_key_sets(self):
        d = BIN_SYM
        rng = np.random.default_rng(41)
        for _ in range(20):
            ks = random_key_set(d, 16, rng)
            values = []
            for n in (4, 8, 12, 16):
                sub = type(ks)([], d.m)
                sub.keys = ks.keys[:n]
                p = build_patricia(sub)
                values.append(
                    (
                        evaluate_additive(phi_geq(3), p),
                        evaluate_additive(phi_alpha(), p),
                    )
                )
            for (g1, a1), (g2, a2) in zip(values, values[1:]):
                assert g2 >= g1
                assert a2 >= a1


class TestShapeToll:
    def test_counts_two_leaf_fringes(self):
        (cherry,) = enumerate_patricia_shapes(2, 2)
        p = build_patricia(DRAWN_KEYS, 2)
        assert evaluate_additive(phi_shape(cherry), p) == 2.0

    def test_leaf_shape_counts_leaves(self):
        (dot,) = enumerate_patricia_shapes(1, 2)
        p = build_patricia(DRAWN_KEYS, 2)
        assert evaluate_additive(phi_shape(dot), p) == 5.0

    def test_partition_over_shapes(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            p = random_patricia(rng, max_keys=9)
            for k in (2, 3):
                by_shape = sum(
                    evaluate_additive(phi_shape(s), p) for s in enumerate_patricia_shapes(k, 2)
                )
                assert by_shape == evaluate_additive(phi_k(k), p)


class TestIndependence:
    def test_single_node(self):
        leaf = build_patricia(["0"], 2)
        assert independence_number(leaf) == 1
        assert brute_force_independence(leaf) == 1
        assert matching_number(leaf) == 0

    def test_root_with_two_leaves(self):
        p = build_patricia(["0", "1"], 2)
        assert independence_number(p) == 2
        assert brute_force_independence(p) == 2
        assert matching_number(p) == 1

    def test_three_node_path(self):
        chain = Trie(TrieNode(children={0: TrieNode(children={0: TrieNode()})}), 2)
        assert brute_force_independence(chain) == 2
        assert independence_number(chain) == 2

    def test_three_node_star(self):
        star = Trie(TrieNode(children={0: TrieNode(), 1: TrieNode()}), 2)
        assert matching_number(star) == 1

    def test_drawn_example(self):
        p = build_patricia(DRAWN_KEYS, 2)
        assert independence_number(p) == 6
        assert brute_force_independence(p) == 6
        assert matching_number(p) == 3

    def test_alpha_equals_brute_force_on_patricia(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            p = random_patricia(rng, max_keys=10)
            assert independence_number(p) == brute_force_independence(p)

    def test_alpha_equals_brute_force_on_tries(self):
        rng = np.random.default_rng(62)
        d = SourceDistribution((0.15, 0.85))  # long unary chains
        for _ in range(300):
            t = random_trie(rng, d=d, max_keys=6)
            assert independence_number(t) == brute_force_independence(t)

    def test_brute_force_at_any_size(self):
        # a unary chain of 3000 nodes above a node with two leaves
        t = build_trie(["0" * 3000 + "0", "0" * 3000 + "1"], 2)
        assert t.node_count() == 3003
        assert brute_force_independence(t) == independence_number(t) == 1502

    def test_limits(self):
        with pytest.raises(EmptyTree):
            matching_number(build_patricia([], 2))


def caterpillar(levels):
    """A hand-built trie of ``levels`` branching nodes down a spine: branching
    node i has a leaf (key i) at 0 and, at 1, a unary link (character i % 2)
    to branching node i + 1; the last one has two leaves.  Its depth is twice
    ``levels``."""
    node = TrieNode(children={0: TrieNode(key_index=levels - 1), 1: TrieNode(key_index=levels)})
    for i in reversed(range(levels - 1)):
        node = TrieNode(children={0: TrieNode(key_index=i), 1: TrieNode(children={i % 2: node})})
    return Trie(node, 2)


class TestDeepTrees:
    """Every explicit-tree fold runs without recursion, so a trie deeper than
    the recursion limit evaluates and compresses."""

    LEVELS = 600

    def test_compress(self):
        assert 2 * self.LEVELS > sys.getrecursionlimit()
        trie = caterpillar(self.LEVELS)
        assert sum(1 for _ in trie.nodes()) == trie.node_count() == 3 * self.LEVELS
        pat = compress(trie)
        assert pat.validate()
        assert pat.node_count() == 2 * self.LEVELS + 1 and pat.num_keys == self.LEVELS + 1
        node, prefixes = pat.root, [pat.root.prefix]
        while node.children[1].children:
            node = node.children[1]
            prefixes.append(node.prefix)
        assert prefixes == [()] + [(i % 2,) for i in range(self.LEVELS - 1)]

    def test_build_from_the_leaf_paths(self):
        trie = caterpillar(self.LEVELS)
        # preorder lists the leaves in key order
        keys = [path for path, node in trie.paths() if node.is_leaf]
        assert len(keys) == self.LEVELS + 1
        built = build_trie(keys, 2)
        assert built == trie
        assert compress(built) == build_patricia(keys, 2) == compress(trie)

    def test_shape_probability_below_the_float_range(self):
        # about 10^-5733, and the 201 keys' 201! alone is past the float range
        assert shape_probability(compress(caterpillar(200)), BIN_SYM) == 0.0

    def test_evaluate_and_pullback_identity(self):
        trie = caterpillar(self.LEVELS)
        tolls = ALL_TOLLS + [phi_shape(enumerate_patricia_shapes(3, 2)[0])]
        plain = evaluate_additive(tolls, trie)
        pulled = evaluate_additive([pullback(t) for t in tolls], trie)
        assert np.array_equal(pulled, evaluate_additive(tolls, compress(trie)))
        internal, leaf = ALL_TOLLS.index(phi_internal()), ALL_TOLLS.index(phi_leaf())
        # the trie's internal nodes are LEVELS branching and LEVELS - 1 unary ones
        assert plain[internal] == 2 * self.LEVELS - 1
        assert pulled[internal] == self.LEVELS and pulled[leaf] == self.LEVELS + 1
        assert pulled[ALL_TOLLS.index(phi_k(2))] == 1.0  # only the last branching node holds 2 keys

    def test_root_toll(self):
        trie = caterpillar(self.LEVELS)
        assert phi_geq(self.LEVELS + 1).value(trie) == 1.0
        assert pullback(phi_internal()).value(trie) == 1.0
        assert pullback(phi_internal()).value(Trie(TrieNode(children={1: trie.root}), 2)) == 0.0


class TestShapeDepthLimit:
    """phi_shape takes shapes up to MAX_SHAPE_DEPTH = 256 levels deep."""

    @staticmethod
    def comb_keys(levels):
        """Keys whose trie branches at every level of a spine of ones, ``levels`` levels deep."""
        return ["1" * i + "0" for i in range(levels)] + ["1" * levels]

    def test_deepest_shape_evaluates(self):
        keys = self.comb_keys(MAX_SHAPE_DEPTH)
        pat, trie = build_patricia(keys, 2), build_trie(keys, 2)
        toll = phi_shape(pat)
        assert evaluate_additive(toll, pat) == 1.0
        assert evaluate_additive(pullback(toll), trie) == 1.0

    def test_deeper_shape_refused(self):
        deeper = build_patricia(self.comb_keys(MAX_SHAPE_DEPTH + 1), 2)
        with pytest.raises(ValueError, match="257 levels deep is past the limit of 256 levels"):
            phi_shape(deeper)
        # a trie's unary levels count too
        with pytest.raises(ValueError, match="258 levels deep"):
            phi_shape(Trie(TrieNode(children={1: deeper.root}), 2))


def _spread(st):
    """A rule whose values are not dyadic fractions, so their sum depends
    on the order of its additions."""
    return 1.0 / (st.leaf_count + st.node_count / 3.0)


def _post_order_sum(rule, node, reverse=False, total=0.0):
    """Recursive reference: rule summed over a node's fringes in post-order,
    children in ascending character order (descending with ``reverse``);
    rule reads the node's own counts."""
    for a in sorted(node.children, reverse=reverse):
        total = _post_order_sum(rule, node.children[a], reverse, total)
    return total + rule(node)


def descending(levels, m=3):
    """A hand-built trie whose children dicts are inserted in descending
    character order: every internal node has m children, the top one a
    subtree one level smaller and the others lone leaves."""
    node = TrieNode(key_index=0)
    for _ in range(levels):
        node = TrieNode(children={m - 1: node, **{a: TrieNode() for a in reversed(range(m - 1))}})
    return Trie(node, m)


class TestSumOrder:
    def test_descending_dicts_sum_left_to_right(self):
        spread = TollFunction(name="spread", stats_fn=_spread)
        for levels in (3, 12, 20):
            trie = descending(levels)
            assert list(trie.root.children) == [2, 1, 0]
            want = _post_order_sum(_spread, trie.root)
            assert evaluate_additive(spread, trie).hex() == want.hex()
            assert evaluate_additive(pullback(spread), trie).hex() == want.hex()  # no unary node
            assert evaluate_additive([spread, phi_leaf()], trie)[0].hex() == want.hex()
        # the order is observable: on this tree adding right to left rounds differently
        assert _post_order_sum(_spread, descending(12).root, reverse=True) != _post_order_sum(_spread, descending(12).root)
