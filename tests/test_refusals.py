"""Library input guards: each row is a call, the exception it must raise
and a fragment of its message.  The CLI grammar refuses these inputs before
the library sees them, so only the library tests reach the guards."""

import math

import pytest

from triefringe.asymptotics import (
    AsymptoticConstant,
    fe_k_star,
    fe_lambda,
    fourier_series,
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
from triefringe.functionals import brute_force_independence, phi_k
from triefringe.simulation import SimulationConfig, oscillation_scan
from triefringe.source import SourceDistribution
from triefringe.trees import (
    KeySet,
    PatriciaNode,
    PatriciaTrie,
    PrefixLaw,
    Trie,
    build_trie,
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


REFUSALS = [
    # asymptotics
    ("AsymptoticConstant negative bound", lambda: AsymptoticConstant(1.0, -1.0), ValueError, "error_bound"),
    ("AsymptoticConstant infinite bound", lambda: AsymptoticConstant(1.0, math.inf), ValueError, "error_bound"),
    ("fe_k_star k=1", lambda: fe_k_star(SKEW, 1, -1), ValueError, "k >= 2"),
    ("fv_k_star k=1", lambda: fv_k_star(SKEW, 1), ValueError, "k >= 2"),
    ("sigma_constants k=1", lambda: sigma_constants(SKEW, 1), ValueError, "k >= 2"),
    ("link_trie_patricia k=1", lambda: link_trie_patricia(1.0, 1.0, 1, SKEW), ValueError, "k >= 2"),
    ("fringe_limit k=1", lambda: fringe_limit(SKEW, 1), ValueError, "k >= 2"),
    ("shape_limit of a leaf", lambda: shape_limit(SKEW, LEAF), ValueError, "k >= 2"),
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
    ("fourier_series M=-1", lambda: fourier_series(BIN_SYM, 2, "E", M=-1), ValueError, "M must be >= 0"),
    ("psi_for_k M=-1", lambda: psi_for_k(BIN_SYM, 2, "E", M=-1), ValueError, "M must be >= 0"),
    ("sigma_constants M=-1", lambda: sigma_constants(BIN_SYM, 2, M=-1), ValueError, "M must be >= 0"),
    ("fe_lambda lam=-1", lambda: fe_lambda(SKEW, 2, -1.0), ValueError, "lam must be"),
    ("fe_lambda lam=inf", lambda: fe_lambda(SKEW, 2, math.inf), ValueError, "lam must be"),
    ("fe_lambda lam=nan", lambda: fe_lambda(SKEW, 2, math.nan), ValueError, "lam must be"),
    ("fv_lambda lam=-1", lambda: fv_lambda(SKEW, 2, -1.0), ValueError, "lam must be"),
    ("fv_lambda lam=inf", lambda: fv_lambda(SKEW, 2, math.inf), ValueError, "lam must be"),
    ("fv_lambda k=1", lambda: fv_lambda(SKEW, 1, 3.0), ValueError, "k >= 2"),
    ("fv_lambda k=1 lam=0", lambda: fv_lambda(SKEW, 1, 0.0), ValueError, "k >= 2"),
    # simulation
    ("SimulationConfig mode", lambda: _config(mode="exact"), ValueError, "mode must be"),
    ("SimulationConfig replicates=0", lambda: _config(replicates=0), ValueError, "replicates"),
    ("SimulationConfig histogram_kmax=0", lambda: _config(histogram_kmax=0), ValueError, "histogram_kmax"),
    ("SimulationConfig fixed n=2.5", lambda: _config(size=2.5), ValueError, "integer key count"),
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
    # trees
    ("KeySet m=1", lambda: KeySet([], 1), ValueError, "alphabet size"),
    ("build_trie without m", lambda: build_trie(["0", "1"]), ValueError, "alphabet size m"),
    ("build_trie max_depth=0", lambda: build_trie(["0", "1"], 2, max_depth=0), ValueError, "max_depth"),
    ("enumerate_patricia_shapes m=1", lambda: enumerate_patricia_shapes(3, 1), ValueError, "alphabet size"),
    ("shape_probability of the empty tree", lambda: shape_probability(PatriciaTrie(None, 2), SKEW), ValueError, "empty"),
    ("PrefixLaw i=1", lambda: PrefixLaw(1, SKEW), ValueError, "at least 2 keys"),
    ("node_at on the empty tree", lambda: EMPTY.node_at(()), InvalidPath, "empty tree"),
]


@pytest.mark.parametrize("call, exc, fragment", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refused(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


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
