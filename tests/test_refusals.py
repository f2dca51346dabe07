"""Library input guards: each row is a call, the exception it must raise
and a fragment of its message.  The CLI grammar refuses these inputs before
the library sees them, so only the library tests reach the guards."""

import json
import math

import numpy as np
import pytest

from triefringe import simulation

from triefringe.asymptotics import (
    AsymptoticConstant,
    fc_k_star,
    fe_k_star,
    fe_lambda,
    fourier_coefficient,
    fringe_limit,
    fringe_mass_sum,
    fv_k_star,
    fv_lambda,
    indnum_alphas,
    indnum_mean_bounds,
    link_trie_patricia,
    psi_for_k,
    shape_limit,
    sigma_constants,
    star_sum,
)
from triefringe.errors import InvalidPath
from triefringe.functionals import brute_force_independence, phi_geq, phi_k
from triefringe.simulation import (
    SimulationConfig,
    estimate_fX,
    estimate_root_essential,
    fringe_distribution,
    oscillation_scan,
    run,
)
from triefringe.source import SourceDistribution
from triefringe.trees import (
    KeySet,
    PatriciaNode,
    PatriciaTrie,
    PrefixLaw,
    Trie,
    build_patricia,
    build_trie,
    count_patricia_shapes,
    enumerate_patricia_shapes,
    fringe,
    shape_probability,
    shape_string,
)

SKEW = SourceDistribution((0.3, 0.7))
BIN_SYM = SourceDistribution((0.5, 0.5))
EMPTY = Trie(None, 2)
LEAF = PatriciaNode()


def _config(**kw):
    args = dict(source=SKEW, mode="fixed", size=10.0, replicates=2, master_seed=1, functionals=(phi_k(2),))
    return SimulationConfig(**{**args, **kw})


def _fringe_kmax5():
    """A small run's fringe distribution with histogram_kmax=5, so k = 2..6."""
    return fringe_distribution(_config(histogram_kmax=5))


REFUSALS = [
    # asymptotics
    ("AsymptoticConstant negative bound", lambda: AsymptoticConstant(1.0, -1.0), ValueError, "error_bound"),
    ("AsymptoticConstant infinite bound", lambda: AsymptoticConstant(1.0, math.inf), ValueError, "error_bound"),
    ("fe_k_star k=1", lambda: fe_k_star(SKEW, 1, -1), ValueError, "k must be >= 2"),
    ("fv_k_star k=1", lambda: fv_k_star(SKEW, 1), ValueError, "k must be >= 2"),
    *[
        (f"{f.__name__} s={s!r}", lambda f=f, s=s: f(SKEW, 2, s), ValueError, "s must have a finite")
        for f in (fe_k_star, fv_k_star)
        for s in (math.nan, math.inf, complex(0, math.inf))
    ],
    ("sigma_constants k=1", lambda: sigma_constants(SKEW, 1), ValueError, "k must be >= 2"),
    ("link_trie_patricia k=1", lambda: link_trie_patricia(1.0, 1.0, 1, SKEW), ValueError, "k must be >= 2"),
    ("fringe_limit k=1", lambda: fringe_limit(SKEW, 1), ValueError, "k must be >= 2"),
    ("shape_limit of a leaf", lambda: shape_limit(SKEW, LEAF), ValueError, "k must be >= 2"),
    ("shape_limit of the empty tree", lambda: shape_limit(SKEW, PatriciaTrie(None, 2)), ValueError, "empty tree"),
    ("shape_limit of None", lambda: shape_limit(SKEW, None), ValueError, "empty tree"),
    ("fringe_mass_sum kmax=1", lambda: fringe_mass_sum(SKEW, 1), ValueError, "kmax"),
    ("psi_for_k X=Q", lambda: psi_for_k(SKEW, 2, "Q"), ValueError, "'Q'"),
    ("indnum_alphas N=0", lambda: indnum_alphas(0), ValueError, "N must be >= 1"),
    ("indnum_mean_bounds N=1", lambda: indnum_mean_bounds(1), ValueError, "N must be >= 2"),
    ("indnum_mean_bounds few alphas", lambda: indnum_mean_bounds(5, indnum_alphas(3)), ValueError, "alpha_0..alpha_5"),
    ("star_sum tol=0", lambda: star_sum(SKEW, 2, lambda p: p, 1.0, 0.0), ValueError, "tol"),
    ("fv_k_star tol=0", lambda: fv_k_star(SKEW, 2, -1, 0.0), ValueError, "tol"),
    ("fv_k_star tol=-1", lambda: fv_k_star(SKEW, 2, -1, -1.0), ValueError, "tol"),
    ("fv_k_star tol=nan", lambda: fv_k_star(SKEW, 2, -1, math.nan), ValueError, "tol"),
    ("fv_lambda tol=-1", lambda: fv_lambda(SKEW, 2, 3.0, -1.0), ValueError, "tol"),
    ("sigma_constants tol=-1", lambda: sigma_constants(SKEW, 2, tol=-1.0), ValueError, "tol"),
    ("psi_for_k V tol=-1", lambda: psi_for_k(SKEW, 2, "V", tol=-1.0), ValueError, "tol"),
    ("psi_for_k M=-1", lambda: psi_for_k(BIN_SYM, 2, "E", M=-1), ValueError, "M must be >= 0"),
    ("sigma_constants M=-1", lambda: sigma_constants(BIN_SYM, 2, M=-1), ValueError, "M must be >= 0"),
    ("fe_lambda lam=-1", lambda: fe_lambda(SKEW, 2, -1.0), ValueError, "lam must be"),
    ("fe_lambda lam=inf", lambda: fe_lambda(SKEW, 2, math.inf), ValueError, "lam must be"),
    ("fe_lambda lam=nan", lambda: fe_lambda(SKEW, 2, math.nan), ValueError, "lam must be"),
    ("fv_lambda lam=-1", lambda: fv_lambda(SKEW, 2, -1.0), ValueError, "lam must be"),
    ("fv_lambda lam=inf", lambda: fv_lambda(SKEW, 2, math.inf), ValueError, "lam must be"),
    ("fv_lambda k=1", lambda: fv_lambda(SKEW, 1, 3.0), ValueError, "k must be >= 2"),
    ("fv_lambda k=1 lam=0", lambda: fv_lambda(SKEW, 1, 0.0), ValueError, "k must be >= 2"),
    ("fourier_coefficient m=0.5", lambda: fourier_coefficient(BIN_SYM, 2, "E", 0.5), ValueError, "m must be an integer"),
    ("fourier_coefficient m=nan", lambda: fourier_coefficient(BIN_SYM, 2, "E", math.nan), ValueError, "m must be an integer"),
    ("fc_k_star m=0.5 aperiodic", lambda: fc_k_star(SKEW, 2, 0.5), ValueError, "m must be an integer"),
    # simulation
    ("SimulationConfig mode", lambda: _config(mode="exact"), ValueError, "mode must be"),
    ("SimulationConfig replicates=0", lambda: _config(replicates=0), ValueError, "replicates"),
    ("SimulationConfig histogram_kmax=0", lambda: _config(histogram_kmax=0), ValueError, "histogram_kmax"),
    ("SimulationConfig fixed n=2.5", lambda: _config(size=2.5), ValueError, "integer key count"),
    ("FringeDistribution.mass k=0", lambda: _fringe_kmax5().mass(0), ValueError, "k must be >= 2 (an integer), got 0"),
    ("FringeDistribution.mass k=1", lambda: _fringe_kmax5().mass(1), ValueError, "k must be >= 2 (an integer), got 1"),
    ("FringeDistribution.mass k=2.5", lambda: _fringe_kmax5().mass(2.5), ValueError, "got 2.5"),
    ("FringeDistribution.mass k=nan", lambda: _fringe_kmax5().mass(math.nan), ValueError, "got nan"),
    ("FringeDistribution.mass k=7", lambda: _fringe_kmax5().mass(7), ValueError, "k must be in 2..6"),
    ("FringeDistribution.mass k=8", lambda: _fringe_kmax5().mass(8), ValueError, "k must be in 2..6"),
    ("oscillation_scan lam_min=0", lambda: oscillation_scan(SKEW, phi_k(2), 0.0, 2, 1), ValueError, "lam_min"),
    ("oscillation_scan lam_min=-1", lambda: oscillation_scan(SKEW, phi_k(2), -1.0, 2, 1), ValueError, "lam_min"),
    ("oscillation_scan lam_min=inf", lambda: oscillation_scan(SKEW, phi_k(2), math.inf, 2, 1), ValueError, "lam_min"),
    ("oscillation_scan periods=-1", lambda: oscillation_scan(SKEW, phi_k(2), 64.0, 2, 1, periods=-1), ValueError, "periods"),
    ("oscillation_scan periods=0", lambda: oscillation_scan(SKEW, phi_k(2), 64.0, 2, 1, periods=0), ValueError, "periods"),
    (
        "oscillation_scan points_per_period=0",
        lambda: oscillation_scan(SKEW, phi_k(2), 64.0, 2, 1, points_per_period=0),
        ValueError,
        "points_per_period",
    ),
    # source: the size is checked before any probability is built
    ("uniform m=1", lambda: SourceDistribution.uniform(1), ValueError, "alphabet size must be >= 2, got 1"),
    ("uniform m=129", lambda: SourceDistribution.uniform(129), ValueError, "alphabet size must be <= 128"),
    ("uniform m=1e12", lambda: SourceDistribution.uniform(10**12), ValueError, "alphabet size must be <= 128"),
    ("uniform m=2.5", lambda: SourceDistribution.uniform(2.5), ValueError, "alphabet size must be an integer"),
    ("uniform m=nan", lambda: SourceDistribution.uniform(math.nan), ValueError, "alphabet size must be an integer"),
    ("uniform m='3'", lambda: SourceDistribution.uniform("3"), ValueError, "alphabet size must be an integer"),
    ("SourceDistribution one letter", lambda: SourceDistribution((1.0,)), ValueError, "alphabet size must be >= 2, got 1"),
    # trees
    ("KeySet m=1", lambda: KeySet([], 1), ValueError, "alphabet size"),
    ("build_trie without m", lambda: build_trie(["0", "1"]), ValueError, "alphabet size m"),
    ("build_trie max_depth=0", lambda: build_trie(["0", "1"], 2, max_depth=0), ValueError, "max_depth"),
    ("enumerate_patricia_shapes m=1", lambda: enumerate_patricia_shapes(3, 1), ValueError, "alphabet size"),
    ("enumerate_patricia_shapes k=2.5", lambda: enumerate_patricia_shapes(2.5, 2), ValueError, "k must be an integer"),
    ("enumerate_patricia_shapes k=nan", lambda: enumerate_patricia_shapes(math.nan, 2), ValueError, "k must be an integer"),
    ("count_patricia_shapes k=2.5", lambda: count_patricia_shapes(2.5, 2), ValueError, "k must be an integer"),
    ("count_patricia_shapes k=nan", lambda: count_patricia_shapes(math.nan, 2), ValueError, "k must be an integer"),
    ("count_patricia_shapes m=2.5", lambda: count_patricia_shapes(3, 2.5), ValueError, "m (alphabet size) must be an integer"),
    ("shape_probability of the empty tree", lambda: shape_probability(PatriciaTrie(None, 2), SKEW), ValueError, "empty"),
    ("PrefixLaw i=1", lambda: PrefixLaw(1, SKEW), ValueError, "i must be >= 2"),
    *[
        (f"PrefixLaw.length_pmf n={n!r}", lambda n=n: PrefixLaw(2, SKEW).length_pmf(n), ValueError, "n must be >= 0")
        for n in (-1, 0.5, math.nan)
    ],
    ("node_at on the empty tree", lambda: EMPTY.node_at(()), InvalidPath, "empty tree"),
]


@pytest.mark.parametrize("call, exc, fragment", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refused(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


# every argument that counts something: (label, call of the argument, its
# name in the message, its lower bound)
INTEGER_ARGUMENTS = [
    # asymptotics
    ("fe_lambda k", lambda v: fe_lambda(SKEW, v, 1.0), "k", 1),
    ("fv_lambda k", lambda v: fv_lambda(SKEW, v, 1.0), "k", 2),
    ("fe_k_star k", lambda v: fe_k_star(SKEW, v, -1), "k", 2),
    ("fv_k_star k", lambda v: fv_k_star(SKEW, v), "k", 2),
    ("sigma_constants k", lambda v: sigma_constants(SKEW, v), "k", 2),
    ("link_trie_patricia k", lambda v: link_trie_patricia(1.0, 1.0, v, SKEW), "k", 2),
    ("fringe_limit k", lambda v: fringe_limit(SKEW, v), "k", 2),
    ("psi_for_k M", lambda v: psi_for_k(BIN_SYM, 2, "E", M=v), "M", 0),
    ("psi_for_k aperiodic M", lambda v: psi_for_k(SKEW, 2, "E", M=v), "M", 0),
    ("sigma_constants M", lambda v: sigma_constants(BIN_SYM, 2, M=v), "M", 0),
    ("sigma_constants aperiodic M", lambda v: sigma_constants(SKEW, 2, M=v), "M", 0),
    ("fringe_mass_sum kmax", lambda v: fringe_mass_sum(SKEW, v), "kmax", 2),
    ("indnum_alphas N", lambda v: indnum_alphas(v), "N", 1),
    ("indnum_mean_bounds N", lambda v: indnum_mean_bounds(v), "N", 2),
    # functionals
    ("phi_k k", lambda v: phi_k(v), "k", 1),
    ("phi_geq k", lambda v: phi_geq(v), "k", 1),
    # simulation
    ("SimulationConfig replicates", lambda v: _config(replicates=v), "replicates", 1),
    ("SimulationConfig histogram_kmax", lambda v: _config(histogram_kmax=v), "histogram_kmax", 1),
    ("SimulationConfig max_depth", lambda v: _config(max_depth=v), "max_depth", 1),
    ("estimate_fX replicates", lambda v: estimate_fX(phi_k(2), SKEW, 5.0, v, 1), "replicates", 2),
    ("estimate_root_essential replicates", lambda v: estimate_root_essential(SKEW, 5, v, 1), "replicates", 2),
    ("oscillation_scan replicates", lambda v: oscillation_scan(SKEW, phi_k(2), 8.0, v, 1), "replicates", 2),
    ("oscillation_scan periods", lambda v: oscillation_scan(SKEW, phi_k(2), 8.0, 2, 1, periods=v), "periods", 1),
    (
        "oscillation_scan points_per_period",
        lambda v: oscillation_scan(SKEW, phi_k(2), 8.0, 2, 1, points_per_period=v),
        "points_per_period",
        1,
    ),
    # trees
    ("KeySet m", lambda v: KeySet(["0", "1", "2"], v), "m (alphabet size)", 2),
    ("enumerate_patricia_shapes m", lambda v: enumerate_patricia_shapes(3, v), "m (alphabet size)", 2),
    ("build_trie max_depth", lambda v: build_trie(["00", "01"], 2, max_depth=v), "max_depth", 1),
    ("build_patricia max_depth", lambda v: build_patricia(["00", "01"], 2, max_depth=v), "max_depth", 1),
    ("PrefixLaw i", lambda v: PrefixLaw(v, SKEW), "i", 2),
]

# every real-valued argument: (label, call of the argument, its name, its
# bound, whether the bound itself is refused)
FINITE_ARGUMENTS = [
    ("AsymptoticConstant error_bound", lambda v: AsymptoticConstant(1.0, v), "error_bound", 0, False),
    ("fe_lambda lam", lambda v: fe_lambda(SKEW, 2, v), "lam", 0, False),
    ("fv_lambda lam", lambda v: fv_lambda(SKEW, 2, v), "lam", 0, False),
    ("star_sum tol", lambda v: star_sum(SKEW, 2, lambda p: p, 1.0, v), "tol", 0, True),
    ("SimulationConfig size", lambda v: _config(mode="poisson", size=v), "size", 0, False),
    ("oscillation_scan lam_min", lambda v: oscillation_scan(SKEW, phi_k(2), v, 2, 1), "lam_min", 0, True),
]

BAD_VALUES = [
    *[
        (label, call, name, value)
        for label, call, name, low in INTEGER_ARGUMENTS
        for value in dict.fromkeys((math.nan, 2.5, low + 0.5, low - 1))
    ],
    *[
        (label, call, name, value)
        for label, call, name, low, strict in FINITE_ARGUMENTS
        for value in (math.nan, math.inf, -math.inf, low - 1) + ((low,) if strict else ())
    ],
]


@pytest.mark.parametrize(
    "call, name, value", [row[1:] for row in BAD_VALUES], ids=[f"{row[0]}={row[3]!r}" for row in BAD_VALUES]
)
def test_argument_refused(call, name, value, monkeypatch):
    """NaN, the infinities, a fraction and a value below the bound are each
    refused by name, before a simulation entry point draws a replicate."""

    def no_draw(*args, **kw):
        raise AssertionError("drew replicates before checking the arguments")

    monkeypatch.setattr(simulation, "_collect", no_draw)
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be ")


# every library entry point that takes a thread count: (label, call of it)
THREADS_ARGUMENTS = [
    ("run", lambda v: run(_config(), threads=v)),
    ("fringe_distribution", lambda v: fringe_distribution(_config(), threads=v)),
    ("oscillation_scan", lambda v: oscillation_scan(SKEW, phi_k(2), 8.0, 2, 1, threads=v)),
]
BAD_THREADS = [(label, call, value) for label, call in THREADS_ARGUMENTS for value in (math.nan, 2.5, 0, -3, "2")]


@pytest.mark.parametrize(
    "call, value", [row[1:] for row in BAD_THREADS], ids=[f"{row[0]} threads={row[2]!r}" for row in BAD_THREADS]
)
def test_threads_refused(call, value, monkeypatch):
    """A thread count that is not an integer >= 1 is refused by name before
    any block runs, whether or not the run would fork."""

    def no_block(*args, **kw):
        raise AssertionError("ran a block before checking threads")

    monkeypatch.setattr(simulation, "_engine_block", no_block)
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"threads must be >= 1 (an integer), got {value!r}"


def test_integer_values_of_other_types_accepted():
    assert phi_k(np.int64(2)).name == "k=2"
    assert fringe_limit(SKEW, 3.0) == fringe_limit(SKEW, 3)
    as_float = run(SimulationConfig.fixed(SKEW, 100, 3.0, 7, (phi_k(2),)))
    as_int = run(SimulationConfig.fixed(SKEW, 100, 3, 7, (phi_k(2),)))
    assert as_float.config.replicates == 3 and type(as_float.config.replicates) is int
    assert json.dumps(as_float.as_dict()) == json.dumps(as_int.as_dict())


def test_fringe_mass_of_every_bucket():
    fd = _fringe_kmax5()
    assert [fd.mass(k) for k in fd.k] == list(fd.mass_mean)
    assert fd.mass(6.0) == fd.mass(np.int64(6)) == fd.mass_mean[-1]


def test_integer_indices_of_any_sign_accepted():
    z = fourier_coefficient(BIN_SYM, 2, "E", -1)
    assert fourier_coefficient(BIN_SYM, 2, "E", -1.0) == z == fourier_coefficient(BIN_SYM, 2, "E", np.int64(-1))
    assert fc_k_star(SKEW, 2, -3) == fc_k_star(SKEW, 2, 0)
    assert count_patricia_shapes(-1, 2) == count_patricia_shapes(0, 2) == 0
    assert count_patricia_shapes(4.0, 2) == count_patricia_shapes(4, 2) == 5


def test_lambda_zero_profiles():
    assert fe_lambda(SKEW, 2, 0.0) == 0.0
    assert fv_lambda(SKEW, 2, 0.0) == AsymptoticConstant(0.0, 0.0)


def test_empty_tree_walks():
    assert brute_force_independence(EMPTY) == 0
    assert shape_string(EMPTY) == ""
    assert list(EMPTY.nodes()) == [] and list(EMPTY.paths()) == []


def test_fringe_at_a_string_path():
    t = build_trie(["100", "101", "0"], 2)
    assert fringe(t, "10") == fringe(t, (1, 0))
    assert shape_string(fringe(t, "10")) == "(0:*,1:*)"
