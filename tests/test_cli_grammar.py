"""Grammar fuzzer for the command line.

Draws argv for every command from the accepted grammar, with sizes kept
small by construction, and now and then puts a malformed token (empty,
',,', 'nan', 'inf', '1e400' or the flag's floor minus one, a one-letter
alphabet for --source) in place of one value.  Each argv runs in-process
at one thread, so no process starts.  Whatever the argv, the exit code
is 0, 1 or 2; a success prints strict JSON, or the text or CSV that was
asked for, and a failure prints nothing on stdout and one stderr line that
starts 'error:' or 'usage error:'.
"""

import contextlib
import io
import json
import math
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from triefringe.cli import main
from triefringe.source import SourceDistribution

SKEWED = "0.001,0.999"
SOURCES = ("0.5,0.5", "0.3,0.7", SKEWED, "0.2,0.3,0.5", "uniform:2", "uniform:3", "uniform:128")
# no --max-depth bounds these commands, and on the skewed source keys stay
# together for thousands of levels
UNBOUNDED_DEPTH = ("constants", "fringe-dist", "oscillate")
MALFORMED = ("", ",,", "nan", "inf", "1e400")
FUNCTIONALS = ("k=2", "k=3", "k=5", "geq=2", "geq=4", "internal", "leaf", "alpha")
CSV_HEADER = "name,mean,var,se_mean,se_var,skew,exkurt"


def _ints(low, high):
    return st.integers(low, high).map(str)


def _functionals(max_size):
    return st.lists(st.sampled_from(FUNCTIONALS), min_size=1, max_size=max_size).map(",".join)


@st.composite
def _flags(draw, command):
    """(flag, value, floor minus one) triples of one valid argv; a flag
    without a value has value None, a value without a floor floor None."""
    if command == "selftest":
        return []
    if command == "indnum":
        return [("--N", draw(_ints(2, 500)), "1")]
    sources = [s for s in SOURCES if not (command in UNBOUNDED_DEPTH and s == SKEWED)]
    source = draw(st.sampled_from(sources))
    m = SourceDistribution.parse(source).m
    seed = ("--seed", draw(st.integers(-(2**65), 2**65).map(str)), None)
    optional = []
    if command == "constants":
        ks = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
        flags = [("--source", source, "uniform:1"), ("--k", ",".join(map(str, ks)), "1")]
        optional = [("--fourier", draw(_ints(0, 4)), "-1"),
                    ("--tol", draw(st.sampled_from(("1e-12", "1e-8", "1e-4"))), "0")]
    elif command == "simulate":
        size = draw(st.sampled_from([("--n", draw(_ints(0, 64)), "-1"),
                                     ("--lambda", draw(st.floats(0, 64).map(repr)), "-1")]))
        flags = [("--source", source, "uniform:1"), size, ("--replicates", draw(_ints(1, 8)), "0"), seed,
                 ("--functional", draw(_functionals(3)), None)]
        optional = [("--paired-trie", None, None), ("--format", draw(st.sampled_from(("json", "csv"))), None)]
        depth = ("--max-depth", draw(_ints(1, 200)), "0")
        if source == SKEWED:
            flags.append(depth)
        else:
            optional.append(depth)
    elif command == "fringe-dist":
        flags = [("--source", source, "uniform:1"), ("--n", draw(_ints(1, 64)), "0"),
                 ("--replicates", draw(_ints(1, 8)), "0"), seed]
        optional = [("--kmax", draw(_ints(1, 16)), "0")]
    elif command == "enumerate":
        flags = [("--k", draw(_ints(1, 8 if m == 2 else 5)), "0"), ("--source", source, "uniform:1")]
        optional = [("--format", draw(st.sampled_from(("text", "json"))), None)]
    else:  # oscillate
        # one period spans a factor of m in lambda, so 128 letters get one
        flags = [("--source", source, "uniform:1"), ("--functional", draw(_functionals(1)), None),
                 ("--lambda-min", draw(st.floats(0.5, 64).map(repr)), "0"),
                 ("--periods", draw(_ints(1, 1 if m == 128 else 2)), "0"),
                 ("--points-per-period", draw(_ints(1, 3)), "0"),
                 ("--replicates", draw(_ints(2, 8)), "1"), seed]
    flags += [flag for flag in optional if draw(st.booleans())]
    return draw(st.permutations(flags))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ("constants", "simulate", "fringe-dist", "indnum", "enumerate", "oscillate", "selftest")))
    flags = draw(_flags(command))
    valued = [i for i, (_, value, _) in enumerate(flags) if value is not None]
    if valued and draw(st.booleans()):
        i = draw(st.sampled_from(valued))
        flag, _, floor = flags[i]
        flags[i] = (flag, draw(st.sampled_from(MALFORMED + ((floor,) if floor else ()))), floor)
    argv = [command]
    for flag, value, _ in flags:
        argv += [flag] if value is None else [flag, value]
    return argv


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def _check_success(argv, out):
    command = argv[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if command == "selftest":
        assert out and all(line.startswith("PASS  ") for line in out.splitlines())
    elif command == "enumerate" and fmt != "json":
        k = argv[argv.index("--k") + 1]
        for line in out.splitlines():
            _, probability, leaves = line.split(" ")
            assert math.isfinite(float(probability)) and leaves == k
    elif fmt == "csv":
        header, *rows = out.splitlines()
        assert header == CSV_HEADER and rows
        assert all(len(row.split(",")) == 7 for row in rows)
    else:
        assert json.loads(out, parse_constant=_reject)["command"] == command


@given(argvs())
@settings(max_examples=400, deadline=None)
# the refusals of limits that are checked before any work: the shape
# budget whatever k, numpy's Poisson limit, and an oscillation grid that
# reaches it (so its 10 001 points are never run)
@example(["enumerate", "--k", "14", "--source", "0.5,0.5"])
@example(["enumerate", "--k", "1000000", "--source", "0.5,0.5"])
@example(["enumerate", "--k", "1000000", "--source", "uniform:3"])
@example(["simulate", "--source", "0.5,0.5", "--lambda", "1e19", "--replicates", "2", "--seed", "1",
          "--functional", "k=2"])
@example(["oscillate", "--source", "0.5,0.5", "--functional", "k=2", "--lambda-min", "3", "--periods", "100",
          "--points-per-period", "100", "--seed", "1"])
# an alphabet past 128 letters, refused before its probabilities are built
@example(["constants", "--source", "uniform:1000000000000", "--k", "2"])
def test_every_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--threads", "1", *argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        _check_success(argv, out)
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(("error:", "usage error:"))


def test_huge_uniform_alphabet_refused_at_once():
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--threads", "1", "constants", "--source", "uniform:1000000000000", "--k", "2"])
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == "error: alphabet size must be <= 128 (characters are int8), got 1000000000000\n"
