"""Golden digests of seeded output.

A seed fixes every simulated key, so the CLI's stdout and a run's summary
must not change by a single byte across refactors of the engine.  Each
digest is the sha256 of the exact stdout (or of a run's summary, the root
statistics' outputs, the asymptotic constants' exact floats, explicit
trees or an slln_track result, serialized as JSON with sorted keys); a
deliberate change of the random stream regenerates them and says so.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from triefringe.asymptotics import fc_k_star, indnum_alphas, psi_for_k, sigma_constants
from triefringe.cli import main
from triefringe.functionals import (
    TollFunction,
    evaluate_additive,
    phi_alpha,
    phi_geq,
    phi_internal,
    phi_k,
    phi_leaf,
    phi_shape,
    pullback,
)
from triefringe.simulation import (
    SimulationConfig,
    estimate_fX,
    estimate_root_essential,
    run,
    sample_patricia_roots,
    slln_track,
)
from triefringe.source import SourceDistribution
from triefringe.trees import (
    build_patricia,
    build_trie,
    compress,
    enumerate_patricia_shapes,
    random_key_set,
    shape_probability,
    shape_string,
)

TOLLS = "k=2,k=3,geq=2,internal,leaf,alpha"

CLI_CASES = {
    "simulate-fixed-0.5,0.5": (
        "simulate", "--source", "0.5,0.5", "--n", "3000", "--replicates", "12", "--seed", "11",
        "--functional", TOLLS,
    ),
    "simulate-poisson-0.5,0.5": (
        "simulate", "--source", "0.5,0.5", "--lambda", "2500", "--replicates", "12", "--seed", "12",
        "--functional", TOLLS,
    ),
    "simulate-paired-0.5,0.5": (
        "simulate", "--source", "0.5,0.5", "--n", "3000", "--replicates", "12", "--seed", "13",
        "--functional", TOLLS, "--paired-trie",
    ),
    "simulate-fixed-0.3,0.7": (
        "simulate", "--source", "0.3,0.7", "--n", "3000", "--replicates", "12", "--seed", "11",
        "--functional", TOLLS,
    ),
    "simulate-poisson-0.3,0.7": (
        "simulate", "--source", "0.3,0.7", "--lambda", "2500", "--replicates", "12", "--seed", "12",
        "--functional", TOLLS,
    ),
    "simulate-paired-0.3,0.7": (
        "simulate", "--source", "0.3,0.7", "--n", "3000", "--replicates", "12", "--seed", "13",
        "--functional", TOLLS, "--paired-trie",
    ),
    "simulate-fixed-uniform:3": (
        "simulate", "--source", "uniform:3", "--n", "3000", "--replicates", "12", "--seed", "11",
        "--functional", TOLLS,
    ),
    "simulate-poisson-uniform:3": (
        "simulate", "--source", "uniform:3", "--lambda", "2500", "--replicates", "12", "--seed", "12",
        "--functional", TOLLS,
    ),
    "simulate-paired-uniform:3": (
        "simulate", "--source", "uniform:3", "--n", "3000", "--replicates", "12", "--seed", "13",
        "--functional", TOLLS, "--paired-trie",
    ),
    "fringe-dist-0.3,0.7": (
        "fringe-dist", "--source", "0.3,0.7", "--n", "5000", "--replicates", "8", "--seed", "14",
        "--kmax", "8",
    ),
    # eight letters: grouping tables several levels deep in one pass
    "fringe-dist-uniform:8": (
        "fringe-dist", "--source", "uniform:8", "--n", "20000", "--replicates", "6", "--seed", "15",
    ),
    # keys that grow past several 32-column character blocks
    "simulate-paired-0.05,0.95": (
        "simulate", "--source", "0.05,0.95", "--n", "2000", "--replicates", "10", "--seed", "16",
        "--functional", TOLLS, "--paired-trie",
    ),
    # 40 replicates of about 30001 keys: the run forks a pool at two threads
    "simulate-poisson-pool-0.3,0.7": (
        "simulate", "--source", "0.3,0.7", "--lambda", "30000", "--replicates", "40", "--seed", "17",
        "--functional", TOLLS,
    ),
    "oscillate-uniform:3": (
        "oscillate", "--source", "uniform:3", "--functional", "k=5", "--seed", "7", "--lambda-min", "300",
        "--periods", "1", "--points-per-period", "3", "--replicates", "40",
    ),
    # periodic (binary, ternary, mixed) and aperiodic (binary, ternary) sources
    **{
        f"constants-{spec}": ("constants", "--source", spec, "--k", "2,3,5")
        for spec in ("0.5,0.5", "0.3,0.7", "uniform:3", "0.25,0.25,0.5", "0.2,0.3,0.5")
    },
    "constants-fourier-uniform:3": (
        "constants", "--source", "uniform:3", "--k", "2,3,5", "--fourier", "3", "--tol", "1e-10",
    ),
    "indnum-800": ("indnum", "--N", "800"),
    "indnum-3000": ("indnum", "--N", "3000"),
    "enumerate-text-0.3,0.7": ("enumerate", "--k", "4", "--source", "0.3,0.7"),
    "enumerate-json-0.3,0.7": ("enumerate", "--k", "4", "--source", "0.3,0.7", "--format", "json"),
    # the leaf count is the same in every replicate, so its skew cells are empty
    "simulate-csv-0.3,0.7": (
        "simulate", "--source", "0.3,0.7", "--n", "300", "--replicates", "7", "--seed", "18",
        "--functional", TOLLS, "--format", "csv",
    ),
}

CLI_DIGESTS = {
    "oscillate-uniform:3": "598ad85b769374bf54861daabcfc9283af3347d970fa98d953270ab4c2e61aef",
    "fringe-dist-0.3,0.7": "29491afc04bfce93617ea4419c4a3c3792b9609b2c2d0f9c918319b7656f1621",
    "fringe-dist-uniform:8": "9aefd8f9d403c06e8abcfba6c8bff96fe8206ab78e91831dee16428f672d69c7",
    "simulate-fixed-0.3,0.7": "373086dd5699b050ada07bda704b340dfa2caffb523b4b7ac3723e132999a107",
    "simulate-fixed-0.5,0.5": "3775b4a9ac33531316846cf95b68593e752b339562de88a5cfc2f6da37b6b55d",
    "simulate-fixed-uniform:3": "ee7fa523cf73ccc5deeb8b295e6a2a29846a070cbb4d1b753fde1bf1f19137b0",
    "simulate-paired-0.3,0.7": "bb89e06f022923acf9ded5c6b649c441e303bcdd305f439627c795b31c5c828d",
    "simulate-paired-0.05,0.95": "51b5ef9ba74c8f80abe86d5ad93adbaa9bc57b4b344fa3f90ae395d9d47585d6",
    "simulate-paired-0.5,0.5": "99610ccfe1bafc5ca0913c7bf8016020c0ceed8a266e4f787171cf3152072b2f",
    "simulate-paired-uniform:3": "bbaf667850f748d4670335ac4bc751a78326d72ca237ab0854c87b093229eb8a",
    "simulate-poisson-0.3,0.7": "3b0210160c303548d8dd0cc8ce7e3c90c6fd2a344b4141e828f43eaa4fa16f72",
    "simulate-poisson-pool-0.3,0.7": "f116c7781459f04226926054090f59e0ba5e054390b0046fbd4b748c116b7797",
    "simulate-poisson-0.5,0.5": "15de3b36770e42e64b092457789e2473f608f4e3cc60c66cc587bc9c70371731",
    "simulate-poisson-uniform:3": "84e7fba5ecb446a40407908a60de646eca60f6cb70960bc3bc4cacf24becbc53",
    "constants-0.2,0.3,0.5": "142f3a4dcdd480e3d2a2272c34d2bb95175a314e1884da6110b878e18f7d4080",
    "constants-0.25,0.25,0.5": "15b8765c4d43b98ca6bf7063d6ade297e83ea466b3bd09f473867e4ef692ac39",
    "constants-0.3,0.7": "99c5c54c166dab097a69bb86ef34d397aa954122634defff3579239b41582967",
    "constants-0.5,0.5": "5cc05b175dacd1f27d9c19565f2d232c17103fad44091f2dd087a2efe346e386",
    "constants-fourier-uniform:3": "1cfbeb2775796198cd83c61f6fc6c76afb2901638fb7cc4b379d11dcf3a65239",
    "constants-uniform:3": "e638bb67be2c9a539d15a7e969229ece7f8477ae56f93329c1eda39f770edaf3",
    "indnum-800": "ce9525131eb05b1aee20f5d88e8923379812845191f9a4c5f7cd6617f9e78bb9",
    "indnum-3000": "607b20d0c260ea13d7bdc4ee6b1f432a24acff6f414db365beb095d841820527",
    "enumerate-json-0.3,0.7": "13f785f818c2a0f9ea2764a7250a2d6da2c5586417dada448494f37b24e13e30",
    "enumerate-text-0.3,0.7": "cf46c376fa9598198bfa39e1f8ef4558b3685ce8d2e47fd9c8e9226511a0cf0f",
    "simulate-csv-0.3,0.7": "3ab471f59426912f1fd40d7168f4721c6c5c8a5c1faf4a1d561a5863177da8b8",
}


def two_way(st):
    """A toll no built-in names: fringes whose root splits two ways."""
    return (st.outdeg == 2) * 1.0


def paired_shape_config():
    shapes = enumerate_patricia_shapes(3, 2) + enumerate_patricia_shapes(4, 2)[:2]
    tolls = tuple(phi_shape(s) for s in shapes) + (
        phi_k(2),
        phi_alpha(),
        TollFunction(name="two-way", stats_fn=two_way),
    )
    return SimulationConfig.fixed(SourceDistribution((0.3, 0.7)), 60, 30, 21, tolls, paired_trie=True)


RUN_DIGEST = "732ed84129588dcc830977fea027ebc2f8eb7a5f01dbe5bb16157fcb018cb894"


# every 3- and 4-leaf shape of the source's alphabet, on the patricia and
# the trie fringe: a ternary source, and a skewed one whose tries are
# mostly unary chains
SHAPE_RUN_CASES = {"uniform:3": 22, "0.05,0.95": 23}

SHAPE_RUN_DIGESTS = {
    "uniform:3": "712b9d2ec273da8df12bce0d6ea85ac30ef55fa3b918e069c98e1d31622be6b1",
    "0.05,0.95": "9631df95279a847936ad156b969ae1cc4bf2b4bf09d190564636a3dad254a84e",
}


def shape_run_config(spec):
    d = SourceDistribution.parse(spec)
    shapes = enumerate_patricia_shapes(3, d.m) + enumerate_patricia_shapes(4, d.m)
    tolls = tuple(phi_shape(s) for s in shapes)
    return SimulationConfig.fixed(d, 60, 30, SHAPE_RUN_CASES[spec], tolls, paired_trie=True)


def spread(st):
    """A fractional toll, whose sums depend on the order of their additions."""
    return 1.0 / (st.leaf_count + st.node_count / 3.0)


# replicates of 10^5 keys, each larger than one engine block of 2^15 keys:
# a symmetric source and a skewed one whose keys run past several
# character blocks
BIG_RUN_CASES = {"0.5,0.5": 81, "0.05,0.95": 82}

BIG_RUN_DIGESTS = {
    "0.5,0.5": "dbbba4e322c73ac66ee137471a563beed10fb133eb5282a4b0d46577fccb3bb1",
    "0.05,0.95": "076435d22426a1f2e7b1284ee14d4e5c5faef209971576500c05dbc9c18fe465",
}


def big_run_config(spec):
    tolls = (phi_k(2), phi_k(3), phi_geq(2), phi_internal(), phi_leaf(), phi_alpha(), TollFunction("spread", spread))
    return SimulationConfig.fixed(SourceDistribution.parse(spec), 100_000, 2, BIG_RUN_CASES[spec], tolls, paired_trie=True)


# root statistics: sources with short and long root prefixes and a
# ternary one, at sizes with no key, one key and a few keys
ROOT_CASES = [(spec, n) for spec in ("0.5,0.5", "0.05,0.95", "uniform:3") for n in (0, 1, 5)]
ROOT_REPLICATES = 3000

ROOT_DIGESTS = {
    "0.5,0.5/n=0": "76e43804fa372df7bbc18f49b8857dbbd42394093736103880f51065e7e85eec",
    "0.5,0.5/n=1": "84d5dee4fbc5f818a84a3a99ba665c3549831d86e0b1dd280f6cb13c74b8658e",
    "0.5,0.5/n=5": "884a1e47464d48e3d1b53bab5e7e0e1bef32fe237f2e79d27a5f57ce9e97a24e",
    "0.05,0.95/n=0": "76e43804fa372df7bbc18f49b8857dbbd42394093736103880f51065e7e85eec",
    "0.05,0.95/n=1": "05257261428610734664edf56a63e6c6e5c41017dc21ded2717e237dacb65b07",
    "0.05,0.95/n=5": "f6dc561d640ff74b9e343baf2ff994089e7cfe716bb6976148c3f90843c41471",
    "uniform:3/n=0": "76e43804fa372df7bbc18f49b8857dbbd42394093736103880f51065e7e85eec",
    "uniform:3/n=1": "53a79f9e14c93d8029621d54734c88d7e71dec3c11a359656747adb769f896b3",
    "uniform:3/n=5": "a0375454c42514afc243cc66052c580cf36ba0f2246a9a1cad22171d4dc269c2",
}


def root_outputs(spec, n):
    """sample_patricia_roots, estimate_root_essential and estimate_fX (at
    lambda = n) of one source and size, as plain JSON values."""
    d = SourceDistribution.parse(spec)
    # the 20 likeliest shapes of n keys; 3-leaf shapes never match at n != 3
    likeliest = sorted(enumerate_patricia_shapes(max(n, 1), d.m), key=lambda s: -shape_probability(s, d))
    shapes = enumerate_patricia_shapes(3, d.m)[:2] + likeliest[:20]
    shape_index, prefix = sample_patricia_roots(d, n, ROOT_REPLICATES, 31 + n, shapes)
    tolls = (phi_k(2), phi_alpha(), TollFunction(name="two-way", stats_fn=two_way))
    return {
        "roots": {"shape_index": shape_index.tolist(), "prefix_length": prefix.tolist()},
        "alpha": list(estimate_root_essential(d, n, ROOT_REPLICATES, 41 + n)),
        "fX": [dataclasses.asdict(estimate_fX(t, d, float(n), ROOT_REPLICATES, 51 + n)) for t in tolls],
    }


def unmatched_roots():
    """sample_patricia_roots at six keys against shapes of three and four."""
    d = SourceDistribution.parse("0.3,0.7")
    shapes = enumerate_patricia_shapes(3, 2) + enumerate_patricia_shapes(4, 2)
    shape_index, prefix = sample_patricia_roots(d, 6, ROOT_REPLICATES, 61, shapes)
    return {"shape_index": shape_index.tolist(), "prefix_length": prefix.tolist()}


# the CLI rounds constants to 15 digits; these are the exact floats
CONSTANT_SOURCES = ("0.5,0.5", "0.3,0.7", "uniform:3", "0.25,0.25,0.5", "0.2,0.3,0.5")

CONSTANT_DIGESTS = {
    "0.5,0.5": "417b6b314cf53247879b64c73ac2d1324eb76018f321d76e844ff6c344b3c925",
    "0.3,0.7": "2d1c07b0cee16d32664a7f706f4394a21f9f95c1b555d3a8ca89ed77f972a060",
    "uniform:3": "c307197a362cf06c5e42f4e7e41618d3a66e2be1a412b43ce9fd6e1e42b4f8c2",
    "0.25,0.25,0.5": "8aa6744a1235e7b468433f23c7149ace670038508cfd40c84a4d78662b794d89",
    "0.2,0.3,0.5": "2d6dc2fee70131595e25b744e497b028e8fe6fd9efcedcd2f9bf7a3044591a34",
}


def _exact(value):
    """A float or complex number as text that keeps every bit."""
    value = complex(value)
    return [value.real.hex(), value.imag.hex()]


def constant_outputs(spec):
    """sigma_constants, psi_for_k and fc_k_star of k = 2, 3, 5."""
    d = SourceDistribution.parse(spec)
    periodic = d.periodicity() > 0
    out = {}
    for k in (2, 3, 5):
        sc = sigma_constants(d, k, M=3)
        row = {
            "sigma": [_exact(v) for v in (sc.fv_star.value, sc.fv_star.error_bound, sc.fc_star,
                                          sc.sigma2_hat_mean, sc.sigma2_mean, *sc.at(0.7))],
            "fc": [_exact(fc_k_star(d, k, m)) for m in range(3)],
        }
        for X in "EVC":
            psi = psi_for_k(d, k, X, M=3)
            row[f"psi_{X}"] = [_exact(c) for c in psi.coeffs] if periodic else _exact(psi)
        out[k] = row
    return out


# explicit trees of random key sets: a symmetric, a skewed, a very skewed
# (long unary chains) and a ternary source, from one key to 120
TREE_SOURCES = ("0.5,0.5", "0.3,0.7", "0.05,0.95", "uniform:3")
TREE_SIZES = (1, 2, 7, 30, 120)
TREE_TOLLS = (phi_k(2), phi_k(3), phi_geq(2), phi_internal(), phi_leaf(), phi_alpha())

TREE_DIGESTS = {
    "0.5,0.5": "afb3df428102d1a1e7ddacbd8c271ffff3397314f4f49c04317480e2d44d495b",
    "0.3,0.7": "e343093b9aac4a61b531f585365ba701f5d708e429249da90250ecf75bbfd3f6",
    "0.05,0.95": "467f315921601f9395e2c8654f0facb0aa41e4c007f7e129612d3c9b6ecc6868",
    "uniform:3": "35382a34f1d00dcea619827334dd2d4bec9fd2e23d5def085cd4b8caee464be7",
}


def _tree_record(t):
    """A tree's shape, leaf key labels and prefixes in preorder, and sizes."""
    nodes = list(t.nodes())
    return {
        "shape": shape_string(t),
        "leaf_keys": [node.key_index for node in nodes if node.is_leaf],
        "prefixes": [list(getattr(node, "prefix", ())) for node in nodes],
        "nodes": t.node_count(),
        "leaves": t.leaf_count(),
    }


def tree_outputs(spec):
    """build_trie, build_patricia and compress of random key sets of one
    source, with the built-in tolls on each patricia trie and their
    pullbacks on the trie."""
    d = SourceDistribution.parse(spec)
    pulled = [pullback(t) for t in TREE_TOLLS]
    out = []
    for n in TREE_SIZES:
        keys = random_key_set(d, n, np.random.default_rng(1000 + n))
        trie, pat = build_trie(keys), build_patricia(keys)
        squeezed = compress(trie)
        out.append({
            "trie": _tree_record(trie),
            "patricia": _tree_record(pat),
            "compress": _tree_record(squeezed),
            "tolls": [evaluate_additive(TREE_TOLLS, t).tolist() for t in (pat, squeezed, trie)],
            "pulled": evaluate_additive(pulled, trie).tolist(),
        })
    return out


# nested key sets: a doubling grid, and an unsorted one with a duplicate and n = 1
SLLN_GRIDS = {"doubling": [2**j for j in range(4, 12)], "mixed": [300, 1, 40, 40, 7, 2000]}
SLLN_SOURCES = {"0.5,0.5": 71, "0.3,0.7": 72, "0.05,0.95": 73, "uniform:3": 74}

SLLN_DIGESTS = {
    "0.5,0.5": "b33ae0749a90249ad499cc232ce7b2c43b513b5bd4c5c62bcd802373f9c88988",
    "0.3,0.7": "89003ae8dc3d253df9e2e9dca9b4e2f686c3742c4bcdb95090ba0dc43d5e2003",
    "0.05,0.95": "f870d5eb07fe3981804d24a2787b5e08b2ba52f65f50020e3a17392e37cd94e9",
    "uniform:3": "1e351e59de81e104a0a12681e1c01366b1fce4d33759806984a875c07ae43610",
}


def slln_outputs(spec):
    d = SourceDistribution.parse(spec)
    return {
        f"{toll.name}/{grid}": slln_track(d, toll, SLLN_GRIDS[grid], SLLN_SOURCES[spec])
        for toll in (phi_leaf(), phi_k(2))
        for grid in SLLN_GRIDS
    }


# the exact floats of indnum_alphas; the CLI rounds them to 15 digits
INDNUM_ALPHAS_DIGEST = "53df72fe91f63eabfde01706445f5f297f6ea4a3f491657b31d827111f1ed482"


UNMATCHED_ROOTS_DIGEST = "35e7863225722e66c7397ad9280b43c2374a4e548a427caf7f8b251958c75c95"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_stdout(case, capsys):
    assert main(["--threads", "1", *CLI_CASES[case]]) == 0
    assert _sha(capsys.readouterr().out) == CLI_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_stdout_two_threads(case, capsys):
    # the same bytes whether or not the run forks a pool
    assert main(["--threads", "2", *CLI_CASES[case]]) == 0
    assert _sha(capsys.readouterr().out) == CLI_DIGESTS[case]


def test_paired_shape_run():
    summary = run(paired_shape_config()).as_dict()
    assert _sha(json.dumps(summary, sort_keys=True)) == RUN_DIGEST


@pytest.mark.parametrize("spec", sorted(SHAPE_RUN_CASES))
def test_shape_run(spec):
    summary = run(shape_run_config(spec)).as_dict()
    assert _sha(json.dumps(summary, sort_keys=True)) == SHAPE_RUN_DIGESTS[spec]


@pytest.mark.parametrize("spec", sorted(BIG_RUN_CASES))
def test_big_replicates(spec):
    summary = run(big_run_config(spec)).as_dict()
    assert _sha(json.dumps(summary, sort_keys=True)) == BIG_RUN_DIGESTS[spec]


def test_unmatched_roots():
    assert _sha(json.dumps(unmatched_roots(), sort_keys=True)) == UNMATCHED_ROOTS_DIGEST


@pytest.mark.parametrize("spec,n", ROOT_CASES)
def test_root_statistics(spec, n):
    text = json.dumps(root_outputs(spec, n), sort_keys=True)
    assert _sha(text) == ROOT_DIGESTS[f"{spec}/n={n}"]


@pytest.mark.parametrize("spec", CONSTANT_SOURCES)
def test_constants(spec):
    assert _sha(json.dumps(constant_outputs(spec), sort_keys=True)) == CONSTANT_DIGESTS[spec]


def test_indnum_alphas():
    alphas = [float(a).hex() for a in indnum_alphas(200)]
    assert _sha(json.dumps(alphas)) == INDNUM_ALPHAS_DIGEST


@pytest.mark.parametrize("spec", TREE_SOURCES)
def test_explicit_trees(spec):
    assert _sha(json.dumps(tree_outputs(spec), sort_keys=True)) == TREE_DIGESTS[spec]


@pytest.mark.parametrize("spec", sorted(SLLN_SOURCES))
def test_slln_track(spec):
    assert _sha(json.dumps(slln_outputs(spec), sort_keys=True)) == SLLN_DIGESTS[spec]
