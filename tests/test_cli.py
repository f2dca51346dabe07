import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from triefringe import simulation, trees
from triefringe.cli import main

_ENGINE_BLOCK = simulation._engine_block


def _block_that_kills_its_worker(config, start, stop):
    """The engine's block, except that every block after the first ends
    its process at once, as a worker killed for lack of memory does."""
    if start > 0:
        os._exit(3)
    return _ENGINE_BLOCK(config, start, stop)


def _never(*args, **kwargs):
    raise AssertionError("called before the input was refused")


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_binary_k2(self, capsys):
        code, out, _ = invoke(capsys, "constants", "--source", "0.5,0.5", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["tool"] == "triefringe"
        per_k = payload["results"]["per_k"][0]
        assert per_k["fe_star"] == 0.25
        assert payload["results"]["H"] == pytest.approx(math.log(2), rel=1e-12)

    def test_aperiodic_source_has_no_fourier_rows(self, capsys):
        code, out, _ = invoke(capsys, "constants", "--source", "0.3,0.7", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["d_p"] == 0.0
        assert payload["results"]["per_k"][0]["fourier"] == []

    def test_payload_roundtrips(self, capsys):
        _, out, _ = invoke(capsys, "constants", "--source", "uniform:3", "--k", "2,3")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("source,k", [("0.99,0.01", "2"), ("0.3,0.7", "72,100")])
    def test_extreme_source_and_large_k(self, capsys, source, k):
        # both once overflowed: a binomial coefficient, then a Gamma factor
        code, out, _ = invoke(capsys, "constants", "--source", source, "--k", k)
        assert code == 0
        for row in json.loads(out)["results"]["per_k"]:
            assert row["fv_star_error_bound"] <= 1e-12
            assert 0.0 < row["fv_star"] < row["fe_star"]

    def test_string_sum_beyond_budget_exit_code(self, capsys):
        weights = [0.9**i for i in range(64)]
        distinct = ",".join(repr(w / sum(weights)) for w in weights)
        for source in (distinct, "0.99999,0.00001"):
            code, out, err = invoke(capsys, "constants", "--source", source, "--k", "2")
            assert code == 2 and out == ""
            assert "budget" in err


class TestSimulate:
    def test_single_key(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "--source", "0.5,0.5", "--n", "1",
            "--replicates", "5", "--seed", "7", "--functional", "leaf",
        )
        assert code == 0
        row = json.loads(out)["results"]["functionals"][0]
        assert row["mean"] == 1.0 and row["var"] == 0.0

    def test_one_replicate_has_no_spread(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "--source", "0.3,0.7", "--n", "50",
            "--replicates", "1", "--seed", "7", "--functional", "k=2",
        )
        assert code == 0
        row = json.loads(out)["results"]["functionals"][0]
        assert row["mean"] > 0
        assert (row["var"], row["se_mean"], row["se_var"], row["skew"], row["exkurt"]) == (0.0, 0.0, 0.0, None, None)

    def test_csv_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "--source", "0.5,0.5", "--n", "8",
            "--replicates", "4", "--seed", "3", "--functional", "k=2,leaf",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,mean,var,se_mean,se_var,skew,exkurt"
        assert len(lines) == 3
        assert lines[1].startswith("k=2,")
        assert lines[2].startswith("leaf,")

    def test_csv_has_no_trie_side(self, capsys):
        # the CSV once held the patricia rows alone
        code, out, err = invoke(
            capsys, "simulate", "--source", "0.5,0.5", "--n", "8", "--replicates", "4", "--seed", "3",
            "--functional", "k=2", "--paired-trie", "--format", "csv",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error") and "--paired-trie" in err and "--format csv" in err

    def test_requires_exactly_one_size(self, capsys):
        code, _, err = invoke(
            capsys, "simulate", "--source", "0.5,0.5",
            "--replicates", "5", "--seed", "7", "--functional", "leaf",
        )
        assert code == 1
        assert "--n" in err and "--lambda" in err

    def test_unknown_functional(self, capsys):
        code, _, err = invoke(
            capsys, "simulate", "--source", "0.5,0.5", "--n", "4",
            "--replicates", "5", "--seed", "7", "--functional", "zeta",
        )
        assert code == 1
        assert "zeta" in err

    def test_alphabet_limit_exit_code(self, capsys):
        code, out, err = invoke(
            capsys, "simulate", "--source", "uniform:129", "--n", "10",
            "--replicates", "2", "--seed", "7", "--functional", "leaf",
        )
        assert code == 2 and out == ""
        assert "128" in err

    def test_depth_error_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, "simulate", "--source", "0.5,0.5", "--n", "64",
            "--replicates", "3", "--seed", "7", "--functional", "leaf",
            "--max-depth", "2",
        )
        assert code == 2
        assert "depth" in err.lower()


class TestEnumerate:
    def test_text_lines(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--k", "3", "--source", "0.5,0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            shape, prob, leaves = line.split()
            assert float(prob) == 0.5 and leaves == "3"

    def test_json_masses_sum_to_one(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--k", "4", "--source", "0.5,0.5", "--format", "json")
        rows = json.loads(out)["results"]["shapes"]
        assert len(rows) == 5
        assert sum(r["probability"] for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_limit_exit_code(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--k", "12", "--source", "0.5,0.5")
        assert code == 2

    @pytest.mark.parametrize("k, source, count", [("10", "uniform:3", "144342627"), ("5", "uniform:8", "9548392")])
    def test_shape_count_beyond_budget_refused_at_once(self, capsys, monkeypatch, k, source, count):
        # both once passed the k <= 10 guard and then ran without end
        monkeypatch.setattr(trees, "_shapes", _never)
        code, out, err = invoke(capsys, "enumerate", "--k", k, "--source", source)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and count in err and "budget" in err


class TestFringeDist:
    def test_masses(self, capsys):
        code, out, _ = invoke(
            capsys, "fringe-dist", "--source", "0.5,0.5", "--n", "2000",
            "--replicates", "10", "--seed", "5", "--kmax", "8",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["k"][-1] == "overflow"
        assert abs(res["mass"][0] - 1 / (8 * math.log(2))) < 0.02
        assert abs(res["limits"][0] - 1 / (8 * math.log(2))) < 1e-12


class TestIndnum:
    def test_fields(self, capsys):
        code, out, _ = invoke(capsys, "indnum", "--N", "800")
        assert code == 0
        res = json.loads(out)["results"]
        assert len(res["alphas"]) == 801
        lo, hi = res["interval"]
        assert abs(lo - 0.60225) < 5e-4 and abs(hi - 0.60316) < 5e-4
        assert res["width_bound"] == pytest.approx(1 / (1600 * math.log(2)), rel=1e-12)


class TestOscillate:
    def test_small_scan(self, capsys):
        code, out, _ = invoke(
            capsys, "oscillate", "--source", "0.5,0.5", "--functional", "k=2",
            "--lambda-min", "16", "--periods", "1", "--points-per-period", "3",
            "--replicates", "40", "--seed", "11",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert len(res["log_lambda"]) == 4
        assert res["psi_overlay"][0] is not None
        assert "trend_tstat" in res

    def test_toll_without_closed_form(self, capsys):
        code, out, _ = invoke(
            capsys, "oscillate", "--source", "0.5,0.5", "--functional", "internal",
            "--lambda-min", "16", "--periods", "1", "--points-per-period", "3",
            "--replicates", "20", "--seed", "11",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["psi_overlay"] == [None] * 4
        # the trend is taken against a constant: the weighted slope of the means
        x, y = np.array(res["log_lambda"]), np.array(res["mean_over_lambda"])
        w = 1.0 / np.array(res["se"]) ** 2
        xm, ym = np.sum(w * x) / np.sum(w), np.sum(w * y) / np.sum(w)
        slope = np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2)
        assert res["trend_slope"] == pytest.approx(slope, rel=1e-9)

    def test_two_functionals_are_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "oscillate", "--source", "0.5,0.5", "--functional", "k=2,k=3", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error") and "exactly one functional" in err

    def test_grid_past_the_poisson_limit_refused_at_once(self, capsys, monkeypatch):
        # the grid's point 6142 is lambda 9.255e18, which numpy's poisson rejects
        monkeypatch.setattr(simulation, "_collect", _never)
        code, out, err = invoke(
            capsys, "--threads", "1", "oscillate", "--source", "0.5,0.5", "--functional", "k=2",
            "--lambda-min", "3", "--periods", "100", "--points-per-period", "100", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "point 6142 " in err and "Poisson limit" in err

    @pytest.mark.parametrize(
        "functional, lambda_min, named",
        [("leaf", "5", "point 1 (log lambda 1.95601)"), ("k=50", "0.001", "point 0 (log lambda -6.90776)")],
    )
    def test_point_without_spread_is_numeric_error(self, capsys, functional, lambda_min, named):
        # a point whose replicates all agree has standard error 0, so the
        # trend's weight 1/se^2 is undefined
        code, out, err = invoke(
            capsys, "oscillate", "--source", "0.5,0.5", "--functional", functional,
            "--lambda-min", lambda_min, "--seed", "1", "--replicates", "2",
            "--periods", "1", "--points-per-period", "2",
        )
        assert code == 2 and out == ""
        assert named in err and "standard error 0" in err


class TestTopLevel:
    @pytest.mark.parametrize(
        "argv, code, named",
        [
            (("fringe-dist", "--source", "0.5,0.5", "--n", "0", "--replicates", "2", "--seed", "1"), 1, "--n"),
            (("oscillate", "--source", "0.5,0.5", "--functional", "k=2", "--lambda-min", "0", "--seed", "1"),
             1, "--lambda-min"),
            (("oscillate", "--source", "0.5,0.5", "--functional", "k=2", "--replicates", "1", "--seed", "1"),
             1, "--replicates"),
            (("oscillate", "--source", "0.5,0.5", "--functional", "k=2", "--periods", "0", "--seed", "1"),
             1, "--periods"),
            (("oscillate", "--source", "0.5,0.5", "--functional", "k=2", "--points-per-period", "0", "--seed", "1"),
             1, "--points-per-period"),
        ],
    )
    def test_input_without_a_finite_answer_is_rejected(self, capsys, argv, code, named):
        # each of these once printed NaN or -Infinity (not JSON) or numpy's own message
        rc, out, err = invoke(capsys, *argv)
        assert (rc, out) == (code, "")
        assert named in err

    # arrays past the 47-bit address space, so nothing is ever allocated
    @pytest.mark.parametrize(
        "argv",
        [
            ("fringe-dist", "--source", "0.5,0.5", "--n", "10", "--replicates", "2", "--seed", "1",
             "--kmax", str(10**15)),
            ("simulate", "--source", "0.5,0.5", "--n", str(10**14), "--replicates", "1", "--seed", "1",
             "--functional", "leaf"),
        ],
    )
    def test_allocation_failure_is_numeric_error(self, capsys, argv):
        # each of these once exited 1 with numpy's traceback
        code, out, err = invoke(capsys, "--threads", "1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate")

    def test_pool_worker_that_stops_is_numeric_error(self, capsys, monkeypatch):
        # four blocks of one replicate on a pool of two workers; it once
        # escaped main as BrokenProcessPool, a traceback and exit 1
        monkeypatch.setattr(simulation, "_engine_block", _block_that_kills_its_worker)
        monkeypatch.setattr(simulation, "_POOL_KEYS", 1000)
        code, out, err = invoke(
            capsys, "--threads", "2", "simulate", "--source", "0.5,0.5", "--n", "20000",
            "--replicates", "4", "--seed", "1", "--functional", "k=2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: a pool worker stopped") and len(err.splitlines()) == 1

    SIM = ("--replicates", "2", "--seed", "1")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("simulate", "--source", "0.5,0.5", "--n", "5", *SIM, "--functional", "k=2,k=x"), "'k=x'"),
            (("simulate", "--source", "0.5,0.5", "--n", "5", *SIM, "--functional", "k=0"), "'k=0'"),
            (("simulate", "--source", "0.5,0.5", "--n", "5", *SIM, "--functional", "geq=x"), "'geq=x'"),
            (("simulate", "--source", "0.5,abc", "--n", "5", *SIM, "--functional", "k=2"), "'abc'"),
            (("fringe-dist", "--source", "uniform:x", "--n", "5", *SIM), "'x'"),
            (("constants", "--source", "0.5,0.5", "--k", "2,x"), "'x'"),
            (("constants", "--source", "0.5,0.5", "--k", "2", "--tol", "nan"), "--tol"),
            (("constants", "--source", "0.5,0.5", "--k", "2", "--fourier", "-1"), "--fourier"),
            (("simulate", "--source", "0.5,0.5", "--lambda", "nan", *SIM, "--functional", "k=2"), "'nan'"),
            (("simulate", "--source", "0.5,0.5", "--lambda", "inf", *SIM, "--functional", "k=2"), "'inf'"),
            (("simulate", "--source", "0.5,0.5", "--n", "5", *SIM, "--functional", "k=2", "--max-depth", "-3"),
             "--max-depth"),
            (("simulate", "--source", "0.5,0.5", "--n", "5", *SIM, "--functional", "k=2", "--max-depth", "0"),
             "--max-depth"),
            (("indnum", "--N", "1"), "--N"),
            (("indnum", "--N", "0"), "--N"),
            (("enumerate", "--k", "0", "--source", "0.5,0.5"), "--k"),
            (("simulate", "--source", "0.5,0.5", "--n", "5", "--replicates", "0", "--seed", "1", "--functional", "k=2"),
             "--replicates"),
            (("fringe-dist", "--source", "0.5,0.5", "--n", "5", "--replicates", "0", "--seed", "1"), "--replicates"),
            (("simulate", "--source", "0.5,0.5", "--n", "-1", *SIM, "--functional", "k=2"), "--n"),
            (("fringe-dist", "--source", "0.5,0.5", "--n", "5", *SIM, "--kmax", "0"), "--kmax"),
            (("constants", "--source", "0.5,0.5", "--k", "0"), "'0'"),
            (("constants", "--source", "0.5,0.5", "--k", "1"), "'1'"),
            (("simulate", "--source", "0.5,0.5", "--lambda", "x1", *SIM, "--functional", "k=2"), "'x1'"),
        ],
    )
    def test_malformed_token_is_usage_error(self, capsys, argv, named):
        # each of these once exited 2 with Python's or numpy's own message,
        # or, for --fourier -1, printed an empty Fourier series
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error") and named in err

    def test_unknown_flag_named(self, capsys):
        code, _, err = invoke(capsys, "indnum", "--N", "10", "--frobnicate")
        assert code == 1
        assert "--frobnicate" in err

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_thread_count_is_usage_error(self, capsys, value):
        code, out, err = invoke(capsys, "--threads", value, "indnum", "--N", "10")
        assert code == 1 and out == ""
        assert "--threads" in err and value in err

    @pytest.mark.parametrize("value", ["0", "-1", "2x"])
    def test_bad_thread_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TRIEFRINGE_THREADS", value)
        code, out, err = invoke(capsys, "indnum", "--N", "10")
        assert code == 1 and out == ""
        assert "TRIEFRINGE_THREADS" in err

    def test_thread_env_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIEFRINGE_THREADS", "2")
        code, _, _ = invoke(capsys, "indnum", "--N", "10")
        assert code == 0

    def test_selftest_passes(self, capsys):
        code, out, _ = invoke(capsys, "selftest")
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_cold_start_loads_no_scipy(self):
        # scipy is most of the import time and only the quadrature oracle
        # (mellin_numeric, run by selftest) needs it
        probe = (
            "import sys, triefringe.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "assert triefringe.cli.main(['selftest']) == 0\n"
            "assert 'scipy.integrate' in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("PASS") == 5

    def test_oracle_without_scipy_names_the_extra(self):
        # scipy is an optional extra: blocking it leaves the engine working,
        # and the quadrature oracle raises an ImportError naming the extra
        probe = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import triefringe.cli\n"
            "from triefringe.asymptotics import mellin_numeric\n"
            "try:\n"
            "    mellin_numeric(lambda t: t * 2.718281828 ** -t, 1.0, decay_zero=1)\n"
            "except ImportError as exc:\n"
            "    assert 'triefringe[oracle]' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('no ImportError')\n"
            "args = ['simulate', '--source', '0.5,0.5', '--n', '50', '--replicates', '2',\n"
            "        '--seed', '1', '--functional', 'k=2']\n"
            "assert triefringe.cli.main(args) == 0\n"
            "sys.exit(triefringe.cli.main(['selftest']))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert "triefringe[oracle]" in done.stderr

    def test_byte_identical_stdout(self):
        argv = [
            sys.executable, "-m", "triefringe.cli",
            "simulate", "--source", "uniform:3", "--lambda", "30",
            "--replicates", "12", "--seed", "99", "--functional", "k=2,alpha",
        ]
        a = subprocess.run(argv, capture_output=True, check=True)
        b = subprocess.run(argv, capture_output=True, check=True)
        assert a.stdout == b.stdout and len(a.stdout) > 0
