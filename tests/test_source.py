import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triefringe.source import _DRAW_SLICE, SourceDistribution
from triefringe.trees import KEY_BLOCK_WIDTH, CharBlocks, random_key_set

BIN_SYM = SourceDistribution((0.5, 0.5))
TERNARY = SourceDistribution.uniform(3)
SKEWED = SourceDistribution((0.3, 0.7))


def prob_vectors(max_m=5):
    return (
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=max_m)
        .map(lambda ws: tuple(w / sum(ws) for w in ws))
        .filter(lambda ps: all(0 < p < 1 for p in ps))
    )


class TestValidation:
    def test_rejects_small_alphabet(self):
        with pytest.raises(ValueError):
            SourceDistribution((1.0,))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            SourceDistribution((0.0, 1.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SourceDistribution((0.5, 0.6))

    def test_parse(self):
        assert SourceDistribution.parse("0.3,0.7").probs == (0.3, 0.7)
        assert SourceDistribution.parse("uniform:3").probs == TERNARY.probs

    def test_alphabet_bound(self):
        assert SourceDistribution.uniform(128).m == 128
        with pytest.raises(ValueError, match="128"):
            SourceDistribution.uniform(129)


class TestEntropy:
    def test_uniform_binary(self):
        assert BIN_SYM.entropy() == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_ternary(self):
        assert TERNARY.entropy() == pytest.approx(math.log(3), abs=1e-12)

    def test_skewed(self):
        # frozen from the defining sum: 0.3 log(1/0.3) + 0.7 log(1/0.7)
        assert SKEWED.entropy() == pytest.approx(0.6108643020548935, abs=1e-12)


class TestCoentropy:
    def test_binary_equals_entropy(self):
        for d in (BIN_SYM, SKEWED, SourceDistribution((0.123, 0.877))):
            assert d.coentropy() == pytest.approx(d.entropy(), abs=1e-12)

    def test_uniform_ternary(self):
        assert TERNARY.coentropy() == pytest.approx(2 * math.log(1.5), abs=1e-12)

    @given(prob_vectors())
    @settings(max_examples=50, deadline=None)
    def test_positive(self, probs):
        d = SourceDistribution(probs)
        assert d.entropy() > 0
        assert d.coentropy() > 0


class TestRho:
    def test_binary_symmetric_k2(self):
        assert BIN_SYM.rho(2) == pytest.approx(0.5, abs=1e-15)

    def test_binary_symmetric_integer(self):
        for k in range(1, 10):
            assert BIN_SYM.rho(k) == pytest.approx(2.0 ** (1 - k), abs=1e-15)

    def test_skewed_k3(self):
        assert SKEWED.rho(3) == pytest.approx(0.370, abs=1e-12)

    def test_complex_argument(self):
        s = complex(2.0, 1.5)
        expected = 0.3**s + 0.7**s
        assert SKEWED.rho(s) == pytest.approx(expected)

    @given(prob_vectors())
    @settings(max_examples=50, deadline=None)
    def test_decreasing_and_one_at_one(self, probs):
        d = SourceDistribution(probs)
        assert d.rho(1) == pytest.approx(1.0, abs=1e-12)
        vals = [d.rho(k) for k in (1, 1.5, 2, 3, 5, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0 < d.rho(2) < 1


class TestPeriodicity:
    def test_binary_symmetric(self):
        assert BIN_SYM.periodicity() == pytest.approx(math.log(2), abs=1e-12)

    def test_dyadic(self):
        d = SourceDistribution((0.5, 0.25, 0.25))
        assert d.periodicity() == pytest.approx(math.log(2), rel=1e-12)

    def test_quarter_three_quarter_aperiodic(self):
        assert SourceDistribution((0.25, 0.75)).periodicity() == 0.0

    def test_point_three_point_seven_aperiodic(self):
        assert SKEWED.periodicity() == 0.0

    def test_uniform_m(self):
        for m in (2, 3, 4, 5):
            d = SourceDistribution.uniform(m)
            assert d.periodicity() == pytest.approx(math.log(m), rel=1e-12)

    def test_mixed_dyadic(self):
        d = SourceDistribution((0.25, 0.125, 0.125, 0.5))
        assert d.periodicity() == pytest.approx(math.log(2), rel=1e-12)

    def test_eighth_seven_eighths_aperiodic(self):
        # log(8) / log(8/7) is irrational
        assert SourceDistribution((0.125, 0.875)).periodicity() == 0.0

    @given(prob_vectors(max_m=4), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, probs, rnd):
        d = SourceDistribution(probs)
        shuffled = list(probs)
        rnd.shuffle(shuffled)
        d2 = SourceDistribution(tuple(shuffled))
        a, b = d.periodicity(), d2.periodicity()
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_near_lattice_resolves_to_lattice(self):
        # a perturbation inside the tolerance gets the lattice answer
        eps = 1e-13
        d = SourceDistribution((0.5 + eps, 0.5 - eps))
        assert d.periodicity() == pytest.approx(math.log(2), rel=1e-9)
        # and a perturbation far outside it does not
        d2 = SourceDistribution((0.5 + 1e-3, 0.5 - 1e-3))
        assert d2.periodicity() == 0.0


class TestSampleStream:
    """Sampled key characters: random_key_set keys and CharBlocks rows."""

    def test_deterministic(self):
        k1, k2 = (random_key_set(BIN_SYM, 1, np.random.default_rng(7)).keys[0] for _ in range(2))
        assert [k1[i] for i in range(8)] == [k2[i] for i in range(8)]

    def test_frequencies_within_four_se(self):
        n = 10**6
        d = SKEWED
        rng = np.random.default_rng(123)
        chars = CharBlocks(d, [rng], [n // KEY_BLOCK_WIDTH]).blocks[0]
        for a, p in enumerate(d.probs):
            freq = float(np.mean(chars == a))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4 * se

    def test_independent_streams_uncorrelated(self):
        n = 10**5
        parent = np.random.SeedSequence(2024)
        rows = n // KEY_BLOCK_WIDTH
        pooled = CharBlocks(BIN_SYM, [np.random.default_rng(s) for s in parent.spawn(2)], [rows, rows])
        x, y = pooled.blocks[0].reshape(2, n).astype(float)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4 / math.sqrt(n)


class _FixedUniforms:
    """Generator stub whose random(out=...) fills each buffer with the next
    preset values, in order, as a real generator's stream would."""

    def __init__(self, values):
        self.values = values
        self.at = 0

    def random(self, out):
        out[...] = self.values[self.at : self.at + out.size]
        self.at += out.size
        return out


class TestDrawChars:
    @pytest.mark.parametrize("spec", ["0.5,0.5", "0.3,0.7", "uniform:3", "uniform:8", "uniform:128", "0.2,0.3,0.5"])
    def test_equals_binary_search(self, spec):
        # threshold counting must agree with searchsorted(side="right") on
        # every threshold, its float neighbours and the ends of [0, 1); the
        # noise spans several counting slices, the last one partial
        d = SourceDistribution.parse(spec)
        c = d._cum_head
        noise = np.random.default_rng(5).random(150_000)
        u = np.concatenate(
            [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), [0.0, np.nextafter(1.0, 0.0)], noise]
        )
        chars = d.draw_chars(_FixedUniforms(u), u.shape)
        assert chars.dtype == np.int8
        assert np.array_equal(chars, np.searchsorted(c, u, side="right").astype(np.int8))
        assert chars.min() == 0 and chars.max() == d.m - 1
        grid = u[: 2 * (u.size // 2)]
        assert np.array_equal(
            d.draw_chars(_FixedUniforms(grid), (2, grid.size // 2)).ravel(),
            chars[: grid.size],
        )

    @pytest.mark.parametrize("spec", ["0.3,0.7", "uniform:3"])
    @pytest.mark.parametrize("shape", [(0,), (0, 32), (1,), (3, 5), (_DRAW_SLICE + 1,), (3, _DRAW_SLICE + 1)])
    def test_same_uniforms_and_generator_state_as_one_draw(self, spec, shape):
        # empty, one element, less than one slice, several slices with a partial last one
        d = SourceDistribution.parse(spec)
        drawn, whole = np.random.default_rng(17), np.random.default_rng(17)
        chars = d.draw_chars(drawn, shape)
        u = whole.random(shape)
        assert chars.shape == u.shape
        assert np.array_equal(chars, np.searchsorted(d._cum_head, u, side="right").astype(np.int8))
        assert drawn.bit_generator.state == whole.bit_generator.state
