import json
import math
import subprocess
import sys

import pytest

from triefringe.cli import main


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


class TestSimulate:
    def test_single_key(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "--source", "0.5,0.5", "--n", "1",
            "--replicates", "5", "--seed", "7", "--functional", "leaf",
        )
        assert code == 0
        row = json.loads(out)["results"]["functionals"][0]
        assert row["mean"] == 1.0 and row["var"] == 0.0

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
            (("fringe-dist", "--source", "0.5,0.5", "--n", "5", "--replicates", "2", "--seed", "1", "--kmax", "0"),
             2, "histogram_kmax"),
        ],
    )
    def test_input_without_a_finite_answer_is_rejected(self, capsys, argv, code, named):
        # each of these once printed NaN or -Infinity (not JSON) or numpy's own message
        rc, out, err = invoke(capsys, *argv)
        assert (rc, out) == (code, "")
        assert named in err

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

    def test_byte_identical_stdout(self):
        argv = [
            sys.executable, "-m", "triefringe.cli",
            "simulate", "--source", "uniform:3", "--lambda", "30",
            "--replicates", "12", "--seed", "99", "--functional", "k=2,alpha",
        ]
        a = subprocess.run(argv, capture_output=True, check=True)
        b = subprocess.run(argv, capture_output=True, check=True)
        assert a.stdout == b.stdout and len(a.stdout) > 0
