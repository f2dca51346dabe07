"""Golden digests of seeded output.

A seed fixes every simulated key, so the CLI's stdout and a run's summary
must not change by a single byte across refactors of the engine.  Each
digest is the sha256 of the exact stdout (or of the summary serialized
with sorted keys); a deliberate change of the random stream regenerates
them and says so.
"""

import hashlib
import json

import pytest

from triefringe.cli import main
from triefringe.functionals import TollFunction, phi_alpha, phi_k, phi_shape
from triefringe.simulation import SimulationConfig, run
from triefringe.source import SourceDistribution
from triefringe.trees import enumerate_patricia_shapes

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
}

CLI_DIGESTS = {
    "fringe-dist-0.3,0.7": "29491afc04bfce93617ea4419c4a3c3792b9609b2c2d0f9c918319b7656f1621",
    "simulate-fixed-0.3,0.7": "373086dd5699b050ada07bda704b340dfa2caffb523b4b7ac3723e132999a107",
    "simulate-fixed-0.5,0.5": "3775b4a9ac33531316846cf95b68593e752b339562de88a5cfc2f6da37b6b55d",
    "simulate-fixed-uniform:3": "ee7fa523cf73ccc5deeb8b295e6a2a29846a070cbb4d1b753fde1bf1f19137b0",
    "simulate-paired-0.3,0.7": "bb89e06f022923acf9ded5c6b649c441e303bcdd305f439627c795b31c5c828d",
    "simulate-paired-0.5,0.5": "99610ccfe1bafc5ca0913c7bf8016020c0ceed8a266e4f787171cf3152072b2f",
    "simulate-paired-uniform:3": "bbaf667850f748d4670335ac4bc751a78326d72ca237ab0854c87b093229eb8a",
    "simulate-poisson-0.3,0.7": "3b0210160c303548d8dd0cc8ce7e3c90c6fd2a344b4141e828f43eaa4fa16f72",
    "simulate-poisson-0.5,0.5": "15de3b36770e42e64b092457789e2473f608f4e3cc60c66cc587bc9c70371731",
    "simulate-poisson-uniform:3": "84e7fba5ecb446a40407908a60de646eca60f6cb70960bc3bc4cacf24becbc53",
}


def two_way(st):
    """A toll no built-in names: fringes whose root splits two ways."""
    return (st.outdeg == 2) * 1.0


def paired_shape_config():
    shapes = enumerate_patricia_shapes(3, 2) + enumerate_patricia_shapes(4, 2)[:2]
    tolls = tuple(phi_shape(s) for s in shapes) + (
        phi_k(2),
        phi_alpha(),
        TollFunction(name="two-way", chi=0.0, stats_fn=two_way),
    )
    return SimulationConfig.fixed(SourceDistribution((0.3, 0.7)), 60, 30, 21, tolls, paired_trie=True)


RUN_DIGEST = "732ed84129588dcc830977fea027ebc2f8eb7a5f01dbe5bb16157fcb018cb894"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_stdout(case, capsys):
    assert main(["--threads", "1", *CLI_CASES[case]]) == 0
    assert _sha(capsys.readouterr().out) == CLI_DIGESTS[case]


def test_paired_shape_run():
    summary = run(paired_shape_config()).as_dict()
    assert _sha(json.dumps(summary, sort_keys=True)) == RUN_DIGEST
