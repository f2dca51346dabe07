"""Command-line interface: reproducible reports over the library.

Subcommands: constants, simulate, fringe-dist, indnum, enumerate,
oscillate, selftest.  Results go to standard output (JSON by default, CSV
opt-in where tabular), diagnostics to standard error.  Numeric output is
fixed at 15 significant digits and every run with the same arguments and
seed produces byte-identical output.

Exit codes: 0 success, 1 usage error, 2 numeric or limit error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    fe_k_star,
    fe_lambda,
    fringe_limit,
    indnum_alphas,
    indnum_mean_bounds,
    mellin_numeric,
    sigma_constants,
)
from .errors import TrieFringeError
from .functionals import (
    brute_force_independence,
    evaluate_additive,
    independence_number,
    phi_alpha,
    phi_geq,
    phi_internal,
    phi_k,
    phi_leaf,
    pullback,
)
from .simulation import SimulationConfig, fringe_distribution, histogram_labels, oscillation_scan, run
from .source import SourceDistribution
from .trees import (
    DEFAULT_MAX_DEPTH,
    build_patricia,
    build_trie,
    compress,
    enumerate_patricia_shapes,
    random_key_set,
    shape_probability,
    shape_string,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _round15(obj):
    """A copy of a JSON-ready structure with every float clamped to 15
    significant digits; a NaN or an infinity raises ValueError."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"the result holds {obj}, which JSON cannot carry")
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _emit(command, config, results):
    envelope = {
        "tool": "triefringe",
        "version": __version__,
        "command": command,
        "config": _round15(config),
        "results": _round15(results),
    }
    # written as it is encoded, a few thousand chunks per write; _round15
    # refused any NaN or infinity before the first write, so no partial
    # document is left
    chunks = json.JSONEncoder(indent=2).iterencode(envelope)
    for text in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
        sys.stdout.write(text)
    sys.stdout.write("\n")


def _parse_functionals(spec: str):
    tolls = []
    for token in spec.split(","):
        token = token.strip()
        name, _, value = token.partition("=")
        if name in ("k", "geq") and value:
            try:
                k = _int_at_least(1)(value)
            except argparse.ArgumentTypeError as exc:
                raise _UsageError(f"functional {token!r}: {exc}") from None
            tolls.append(phi_k(k) if name == "k" else phi_geq(k))
        elif token == "internal":
            tolls.append(phi_internal())
        elif token == "leaf":
            tolls.append(phi_leaf())
        elif token == "alpha":
            tolls.append(phi_alpha())
        else:
            raise _UsageError(f"unknown functional {token!r}")
    return tuple(tolls)


def _int_at_least(low):
    """An argparse type: an integer >= low, else a usage error."""

    def integer(text):
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")

    return integer


def _k_list(text):
    """An argparse type: a comma list of fringe sizes, integers >= 2, else a
    usage error naming the token."""
    return [_int_at_least(2)(token) for token in text.split(",")]


def _finite_number(low, strict=False):
    """An argparse type: a finite number >= low (> low when strict), else a usage error."""

    def number(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and (value > low if strict else value >= low):
            return value
        raise argparse.ArgumentTypeError(f"must be a finite number {'>' if strict else '>='} {low}, got {text!r}")

    return number


def _source_spec(text):
    """An argparse type: a source spec, '0.5,0.5' or 'uniform:3', whose every
    number parses, else a usage error naming the token.  The values
    themselves are checked by SourceDistribution."""
    uniform = text.strip().startswith("uniform:")
    for token in [text.split(":", 1)[1]] if uniform else text.split(","):
        try:
            int(token) if uniform else float(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{token!r} in {text!r} is not a number") from None
    return text


def _threads_default():
    # the CPUs this process may run on (a cpuset or taskset mask), not the machine's
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(args):
    d = SourceDistribution.parse(args.source)
    d_p = d.periodicity()
    per_k = []
    for k in args.k:
        sc = sigma_constants(d, k, M=args.fourier, tol=args.tol)
        coeffs = sc.psi_e.coeffs if d_p > 0 else ()
        per_k.append(
            {
                "k": k,
                "rho_k": d.rho(k),
                "fe_star": sc.fc_star.real,  # f_C*(-1) = f_E*(-1)
                "fv_star": sc.fv_star.real,
                "fv_star_error_bound": sc.fv_star.error_bound,
                "fc_star": sc.fc_star.real,
                "sigma2": sc.sigma2_mean,
                "sigma2_hat": sc.sigma2_hat_mean,
                "fringe_limit": fringe_limit(d, k),
                "fourier": [{"m": m, "re": c.real, "im": c.imag} for m, c in enumerate(coeffs)],
            }
        )
    results = {
        "H": d.entropy(),
        "J": d.coentropy(),
        "d_p": d_p,
        "per_k": per_k,
    }
    config = {"source": list(d.probs), "k": args.k, "fourier": args.fourier, "tol": args.tol}
    _emit("constants", config, results)
    return 0


def _cmd_simulate(args):
    d = SourceDistribution.parse(args.source)
    tolls = _parse_functionals(args.functional)
    if args.paired_trie and args.format == "csv":
        raise _UsageError("--paired-trie and --format csv do not combine: the CSV has no column for the trie side")
    mode, size = ("fixed", args.n) if args.n is not None else ("poisson", args.lam)
    config = SimulationConfig(
        d, mode, float(size), args.replicates, args.seed, tolls,
        paired_trie=args.paired_trie, max_depth=args.max_depth,
    )
    summary = run(config, threads=args.threads)
    if args.format == "csv":
        rows = [st.as_dict() for st in summary.functionals]
        lines = [",".join(rows[0])]
        for row in rows:
            lines.append(",".join(v if isinstance(v, str) else "" if v is None else f"{v:.15g}" for v in row.values()))
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    cfg_echo = {
        "source": list(d.probs),
        "mode": config.mode,
        "size": config.size,
        "replicates": config.replicates,
        "seed": config.master_seed,
        "functionals": [t.name for t in tolls],
        "paired_trie": config.paired_trie,
        "max_depth": config.max_depth,
    }
    _emit("simulate", cfg_echo, summary.as_dict())
    return 0


def _cmd_fringe_dist(args):
    d = SourceDistribution.parse(args.source)
    config = SimulationConfig.fixed(
        d, args.n, args.replicates, args.seed, (), histogram_kmax=args.kmax
    )
    fd = fringe_distribution(config, threads=args.threads)
    results = {
        "k": histogram_labels(args.kmax),
        "mass": list(fd.mass_mean),
        "se": list(fd.mass_se),
        "leaf_mass": fd.leaf_mass_mean,
        "limits": [fringe_limit(d, int(k)) for k in fd.k[:-1]],
    }
    config_echo = {
        "source": list(d.probs),
        "n": args.n,
        "replicates": args.replicates,
        "seed": args.seed,
        "kmax": args.kmax,
    }
    _emit("fringe-dist", config_echo, results)
    return 0


def _cmd_indnum(args):
    alphas = indnum_alphas(args.N)
    lo, hi = indnum_mean_bounds(args.N, alphas)
    results = {
        "alphas": list(alphas),
        "interval": [lo, hi],
        "width_bound": 1.0 / (2.0 * args.N * SourceDistribution((0.5, 0.5)).entropy()),
    }
    _emit("indnum", {"N": args.N}, results)
    return 0


def _cmd_enumerate(args):
    d = SourceDistribution.parse(args.source)
    shapes = enumerate_patricia_shapes(args.k, d.m)
    if args.format == "text":
        # each row is written as it is made; the shapes are all built first,
        # so a refusal still writes nothing
        for s in shapes:
            sys.stdout.write(f"{shape_string(s)} {shape_probability(s, d):.15g} {args.k}\n")
        return 0
    rows = [{"shape": shape_string(s), "probability": shape_probability(s, d), "leaves": args.k} for s in shapes]
    _emit("enumerate", {"source": list(d.probs), "k": args.k}, {"shapes": rows})
    return 0


def _cmd_oscillate(args):
    d = SourceDistribution.parse(args.source)
    tolls = _parse_functionals(args.functional)
    if len(tolls) != 1:
        raise _UsageError("oscillate takes exactly one functional")
    scan = oscillation_scan(
        d,
        tolls[0],
        lam_min=args.lambda_min,
        replicates=args.replicates,
        master_seed=args.seed,
        periods=args.periods,
        points_per_period=args.points_per_period,
        threads=args.threads,
    )
    slope, tstat = scan.residual_trend()
    results = {
        "log_lambda": list(scan.log_lambda),
        "mean_over_lambda": list(scan.mean_over_lambda),
        "se": list(scan.se),
        "psi_overlay": [None if math.isnan(v) else v for v in scan.psi_overlay],
        "trend_slope": slope,
        "trend_tstat": tstat,
    }
    config = {
        "source": list(d.probs),
        "functional": tolls[0].name,
        "lambda_min": args.lambda_min,
        "periods": args.periods,
        "points_per_period": args.points_per_period,
        "replicates": args.replicates,
        "seed": args.seed,
    }
    _emit("oscillate", config, results)
    return 0


def _selftest_checks():
    bs = SourceDistribution((0.5, 0.5))
    t3 = SourceDistribution.uniform(3)
    sk = SourceDistribution((0.3, 0.7))

    yield "fe_star closed form, symmetric binary k=2", abs(fe_k_star(bs, 2, -1) - 0.25) < 1e-12

    ok = True
    for d in (bs, sk, t3):
        for k in (2, 3, 4):
            quad = mellin_numeric(lambda t, d=d, k=k: fe_lambda(d, k, t), -1, decay_zero=k)
            ok &= abs(quad.value - fe_k_star(d, k, -1)) / abs(fe_k_star(d, k, -1)) < 1e-8
    yield "mean transform: closed form vs quadrature", ok

    rng = np.random.default_rng(20240001)
    tolls = [phi_k(2), phi_internal(), phi_alpha(), phi_geq(3)]
    pulled = [pullback(t) for t in tolls]
    ok = True
    for _ in range(300):
        n = int(rng.integers(1, 40))
        ks = random_key_set(bs, n, rng)
        trie = build_trie(ks)
        ok &= bool(
            np.array_equal(evaluate_additive(pulled, trie), evaluate_additive(tolls, compress(trie)))
        )
    yield "pullback identity on random tries", ok

    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 11))
        p = build_patricia(random_key_set(bs, n, rng))
        ok &= independence_number(p) == brute_force_independence(p)
    yield "independence number vs brute force", ok

    ok = True
    for k in (3, 4):
        total = sum(shape_probability(s, bs) for s in enumerate_patricia_shapes(k, 2))
        ok &= abs(total - 1.0) < 1e-12
    yield "shape law masses sum to one", ok


def _cmd_selftest(_args):
    failures = 0
    for name, ok in _selftest_checks():
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = _Parser(prog="triefringe", description=__doc__)
    parser.add_argument(
        "--threads", type=_int_at_least(1), default=_threads_default(),
        help="parallelism cap, a positive integer (default: the CPUs this process may run on)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="asymptotic constants of the k-fringe counts")
    p.add_argument("--source", type=_source_spec, required=True)
    p.add_argument("--k", type=_k_list, required=True, help="comma list of fringe sizes, e.g. 2,3,4")
    p.add_argument("--fourier", type=_int_at_least(0), default=8)
    p.add_argument("--tol", type=_finite_number(0, strict=True), default=1e-12)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of additive functionals")
    p.add_argument("--source", type=_source_spec, required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=_int_at_least(0))
    size.add_argument("--lambda", dest="lam", type=_finite_number(0))
    p.add_argument("--replicates", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--functional", required=True)
    p.add_argument("--paired-trie", action="store_true")
    p.add_argument("--max-depth", type=_int_at_least(1), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("fringe-dist", help="empirical fringe-size distribution")
    p.add_argument("--source", type=_source_spec, required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--replicates", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kmax", type=_int_at_least(1), default=SimulationConfig.histogram_kmax)
    p.set_defaults(fn=_cmd_fringe_dist)

    p = sub.add_parser("indnum", help="essential-node probabilities and ratio bounds")
    p.add_argument("--N", type=_int_at_least(2), required=True)
    p.set_defaults(fn=_cmd_indnum)

    p = sub.add_parser("enumerate", help="patricia shapes of k keys with exact probabilities")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--source", type=_source_spec, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("oscillate", help="mean/lambda over a geometric lambda grid")
    p.add_argument("--source", type=_source_spec, required=True)
    p.add_argument("--functional", required=True)
    p.add_argument("--lambda-min", dest="lambda_min", type=_finite_number(0, strict=True), default=64.0)
    p.add_argument("--periods", type=_int_at_least(1), default=3)
    p.add_argument("--points-per-period", type=_int_at_least(1), default=8)
    p.add_argument("--replicates", type=_int_at_least(2), default=200)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_oscillate)

    p = sub.add_parser("selftest", help="closed-form vs quadrature and exact-identity checks")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        code = args.fn(args)
        print(f"completed in {time.time() - started:.2f}s", file=sys.stderr)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TrieFringeError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
