"""The benchmark's workloads: the ops each one sends, their sizes and checks.

An op is one call a user would make: a CLI invocation (run in-process
through ``triefringe.cli.main`` with stdout captured) or a library call
whose result is serialised to canonical JSON.  Either way the op yields
bytes, and every check reads those bytes back with a strict JSON parser.

Ops derive their seeds from the workload seed, so a seed fixes every input.
Checks come in two kinds:

* per op: exact identities that hold for every replicate (the leaf mean is
  the key count, fringe masses plus the leaf mass sum to one, ...);
* pooled over the ops of one variant in a run: closed forms (fe_lambda,
  psi_for_k, shape_probability, shape_limit) against the Monte Carlo means.
  The test suite checks each closed form once at 3-4 standard errors; a
  benchmark campaign makes ~10^4 such comparisons, so pooled checks use
  5 standard errors (plus the suite's finite-n slack where it has one) to
  keep false alarms below ~1e-3 per campaign.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

import triefringe
import triefringe.cli
from triefringe import asymptotics, functionals, simulation, trees
from triefringe.source import SourceDistribution

DEFAULT_SEED = 1
Z = 5.0

BIN_SYM = SourceDistribution((0.5, 0.5))


class OpFailed(Exception):
    """An op returned an error instead of a result."""


def op_seed(seed: int, index: int, part: int = 0) -> int:
    """Seed of part `part` of op `index` in a run seeded with `seed`."""
    return seed * 1_000_000 + 10 * index + part


def strict_json(data: bytes):
    """Parse JSON, rejecting NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in output")

    return json.loads(data, parse_constant=reject)


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def canonical(obj) -> bytes:
    """Library results as JSON with every digit; NaN raises ValueError."""
    return json.dumps(_plain(obj), sort_keys=True, allow_nan=False, separators=(",", ":")).encode()


def run_cli(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = triefringe.cli.main(argv)
    if code != 0:
        raise OpFailed(f"triefringe {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()


def parse_tolls(spec: str):
    """The tolls of a CLI --functional list such as 'k=2,internal,leaf'."""
    named = {"internal": functionals.phi_internal, "alpha": functionals.phi_alpha, "leaf": functionals.phi_leaf}
    return tuple(
        functionals.phi_k(int(token[2:])) if token.startswith("k=") else named[token]() for token in spec.split(",")
    )


@dataclasses.dataclass
class Op:
    """One op of a workload, with what the checks and counters need."""

    index: int
    variant: str
    execute: object  # threads -> bytes
    keys: object  # parsed output -> simulated key count
    replicates: int
    check: object  # parsed output -> list of problems
    # (source, mode, size, seed, tolls) of a simulation whose replicate 0
    # the replay check rebuilds as an explicit patricia trie
    replay: tuple
    # simulation configs covering every tree the op builds, for node counts
    sims: tuple


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _pooled(values, ses):
    """Mean of per-op estimates and its standard error."""
    k = len(values)
    return sum(values) / k, math.sqrt(sum(s * s for s in ses)) / k


def _z_check(label, est, se, target, slack=0.0):
    gap = abs(est - target)
    if not gap < Z * se + slack:
        return [f"{label}: {est:.6g} vs closed form {target:.6g} (gap {gap:.3g}, {Z:g} se {Z * se:.3g}, slack {slack:.3g})"]
    return []


def _functional_means(doc, side="functionals"):
    return {st["name"]: st for st in doc["results"][side]}


def poisson_fringe_mean(d: SourceDistribution, k: int, lam: float) -> float:
    """E[Phi_k] of the patricia trie of Poisson(lam) keys from a binary source.

    Every trie node w holds Poisson(lam p_w) keys and contributes its pulled
    toll, whose mean is fe_lambda(lam p_w); sum over all strings w, grouped
    by length and number of zeros.
    """
    if d.m != 2:
        raise ValueError("the string sum is written for binary sources")
    p, q = d.probs
    total = 0.0
    for length in range(400):
        level = sum(
            math.comb(length, j) * asymptotics.fe_lambda(d, k, lam * p**j * q ** (length - j))
            for j in range(length + 1)
        )
        total += level
        if lam * max(p, q) ** length < 1e-3 and level < 1e-16 * total:
            break
    return total


# ---------------------------------------------------------------------------
# fixed-binary


class FixedBinary:
    name = "fixed-binary"
    why = (
        "CLI simulate, fixed n=1e4, 20 replicates, one chunk so the pool never runs; "
        "stresses engine level grouping and forest derivation, then draws"
    )
    cycle = 4
    n, reps = 10_000, 20
    functional = "k=2,k=3,internal,alpha,leaf"
    variants = (("0.5,0.5", False), ("0.3,0.7", False), ("0.5,0.5", True), ("0.3,0.7", True))

    def threads(self):
        return 1

    def op(self, seed, index):
        source, paired = self.variants[index % self.cycle]
        s = op_seed(seed, index)
        d = SourceDistribution.parse(source)
        argv = ["simulate", "--source", source, "--n", str(self.n), "--replicates", str(self.reps)]
        argv += ["--seed", str(s), "--functional", self.functional] + (["--paired-trie"] if paired else [])
        tolls = parse_tolls(self.functional)
        return Op(
            index=index,
            variant=source + ("/paired" if paired else ""),
            execute=lambda threads: run_cli(["--threads", str(threads), *argv]),
            keys=lambda doc: self.n * self.reps,
            replicates=self.reps,
            check=lambda doc: self._check(doc, paired),
            replay=(d, "fixed", self.n, s, tolls),
            sims=(simulation.SimulationConfig.fixed(d, self.n, self.reps, s, ()),),
        )

    def _check(self, doc, paired):
        n, r = self.n, doc["results"]
        f = _functional_means(doc)
        problems = []
        # a binary patricia trie of n keys has n leaves and n - 1 internal nodes
        exact = {
            "mean_keys": (r["mean_keys"], n),
            "leaf mean": (f["leaf"]["mean"], n),
            "leaf var": (f["leaf"]["var"], 0.0),
            "internal mean": (f["internal"]["mean"], n - 1),
            "patricia nodes": (r["mean_patricia_nodes"], 2 * n - 1),
        }
        for label, (got, want) in exact.items():
            if got != want:
                problems.append(f"{label} {got} != {want}")
        if not _close(sum(r["fringe_histogram"]["mean_count"]), n - 1, 1e-9):
            problems.append("fringe histogram does not partition the internal nodes")
        if paired:
            t = _functional_means(doc, "trie_functionals")
            if t["leaf"]["mean"] != n:
                problems.append(f"trie leaf mean {t['leaf']['mean']} != {n}")
            if not _close(t["internal"]["mean"] + n, r["mean_trie_nodes"], 1e-12):
                problems.append("trie internal nodes + leaves != trie nodes")
        elif doc["results"]["trie_functionals"] is not None:
            problems.append("unpaired run reports trie functionals")
        return problems

    def pooled_check(self, done):
        problems = []
        for source in ("0.5,0.5", "0.3,0.7"):
            d = SourceDistribution.parse(source)
            group = [(op, doc) for op, doc in done if op.variant.split("/")[0] == source]
            if not group:
                continue
            for k in (2, 3):
                stats = [_functional_means(doc)[f"k={k}"] for _, doc in group]
                est, se = _pooled([st["mean"] / self.n for st in stats], [st["se_mean"] / self.n for st in stats])
                target = asymptotics.psi_eval(asymptotics.psi_for_k(d, k, "E"), math.log(self.n)) / d.entropy()
                # the suite's slack of 1e-3 on mean/n covers the finite-n bias
                problems += [(p, [op.index for op, _ in group]) for p in _z_check(f"{source} k={k} mean/n", est, se, target, 1e-3)]
        return problems


# ---------------------------------------------------------------------------
# wide-alphabet


class WideAlphabet:
    name = "wide-alphabet"
    why = (
        "CLI fringe-dist, uniform 3 and 8 letters, n=5e4, 24 replicates in 2 chunks; the only workload "
        "where the process pool runs; stresses the m>2 character draw"
    )
    cycle = 2
    n, reps = 50_000, 24
    sources = ("uniform:3", "uniform:8")
    kmax = 64

    def threads(self):
        return min(2, os.cpu_count() or 1)

    def op(self, seed, index):
        source = self.sources[index % self.cycle]
        s = op_seed(seed, index)
        d = SourceDistribution.parse(source)
        argv = ["fringe-dist", "--source", source, "--n", str(self.n), "--replicates", str(self.reps), "--seed", str(s)]
        tolls = parse_tolls("k=2,k=3,k=4,internal,alpha,leaf")
        return Op(
            index=index,
            variant=source,
            execute=lambda threads: run_cli(["--threads", str(threads), *argv]),
            keys=lambda doc: self.n * self.reps,
            replicates=self.reps,
            check=lambda doc: self._check(doc, d),
            replay=(d, "fixed", self.n, s, tolls),
            sims=(simulation.SimulationConfig.fixed(d, self.n, self.reps, s, ()),),
        )

    def _check(self, doc, d):
        r = doc["results"]
        problems = []
        if r["k"] != list(range(2, self.kmax + 1)) + ["overflow"]:
            problems.append("fringe sizes are not 2..kmax plus overflow")
        # per replicate, fringe counts plus leaves partition the patricia nodes
        total = sum(r["mass"]) + r["leaf_mass"]
        if not _close(total, 1.0, 1e-12):
            problems.append(f"fringe masses + leaf mass = {total!r}, not 1")
        if any(not (0.0 <= m <= 1.0) for m in r["mass"]) or any(s < 0.0 for s in r["se"]):
            problems.append("a mass lies outside [0, 1] or an se is negative")
        for k, lim in zip(range(2, 6), r["limits"]):
            if lim != float(f"{asymptotics.fringe_limit(d, k):.15g}"):
                problems.append(f"limit for k={k} is {lim}, not fringe_limit")
        return problems

    def pooled_check(self, done):
        # mass_k / leaf_mass estimates E[Phi_k]/n, whose limit psi_E(log n)/H
        # carries the periodic part (about 7% of the mean term for 8 letters);
        # the ratio of means is within 1% of it at this n
        problems = []
        for source in self.sources:
            group = [(op, doc) for op, doc in done if op.variant == source]
            if not group:
                continue
            d = SourceDistribution.parse(source)
            for k in (2, 3):
                results = [doc["results"] for _, doc in group]
                est, se = _pooled(
                    [r["mass"][k - 2] / r["leaf_mass"] for r in results], [r["se"][k - 2] / r["leaf_mass"] for r in results]
                )
                target = asymptotics.psi_eval(asymptotics.psi_for_k(d, k, "E"), math.log(self.n)) / d.entropy()
                problems += [
                    (p, [op.index for op, _ in group])
                    for p in _z_check(f"{source} fringe mass k={k} / leaf mass", est, se, target, 0.01 * target)
                ]
        return problems


# ---------------------------------------------------------------------------
# small-poisson


class SmallPoisson:
    name = "small-poisson"
    why = (
        "estimate_fX(k=3, lambda=5, 2e4 replicates) alternating with CLI simulate lambda=20, 1e4 replicates; "
        "many tiny trees, so per-replicate seeding dominates"
    )
    cycle = 2
    fx_lam, fx_reps, fx_k = 5.0, 20_000, 3
    cli_source, cli_lam, cli_reps = "0.3,0.7", 20.0, 10_000
    cli_functional = "k=2,leaf"

    def threads(self):
        return 1

    def op(self, seed, index):
        s = op_seed(seed, index)
        if index % 2 == 0:
            toll = functionals.phi_k(self.fx_k)

            def execute(threads):
                est = triefringe.simulation.estimate_fX(toll, BIN_SYM, self.fx_lam, self.fx_reps, s)
                return canonical(est)

            return Op(
                index=index,
                variant="estimate_fX",
                execute=execute,
                # estimate_fX reports no key count: count its keys at their expectation
                keys=lambda doc: round(self.fx_lam * self.fx_reps),
                replicates=self.fx_reps,
                check=self._check_fx,
                replay=(BIN_SYM, "poisson", self.fx_lam, s, (toll,)),
                sims=(simulation.SimulationConfig.poisson(BIN_SYM, self.fx_lam, self.fx_reps, s, ()),),
            )
        d = SourceDistribution.parse(self.cli_source)
        argv = ["simulate", "--source", self.cli_source, "--lambda", f"{self.cli_lam:g}"]
        argv += ["--replicates", str(self.cli_reps), "--seed", str(s), "--functional", self.cli_functional]
        return Op(
            index=index,
            variant="cli-simulate",
            execute=lambda threads: run_cli(["--threads", str(threads), *argv]),
            keys=lambda doc: round(doc["results"]["mean_keys"] * self.cli_reps),
            replicates=self.cli_reps,
            check=self._check_cli,
            replay=(d, "poisson", self.cli_lam, s, parse_tolls(self.cli_functional)),
            sims=(simulation.SimulationConfig.poisson(d, self.cli_lam, self.cli_reps, s, ()),),
        )

    def _check_fx(self, doc):
        problems = []
        if doc["lam"] != self.fx_lam or doc["replicates"] != self.fx_reps:
            problems.append("estimate_fX echoes the wrong lambda or replicate count")
        if any(doc[key] <= 0.0 for key in ("f_e_se", "f_v_se", "f_c_se")):
            problems.append("a standard error is not positive")
        return problems

    def _check_cli(self, doc):
        r = doc["results"]
        f = _functional_means(doc)
        problems = []
        if f["leaf"]["mean"] != r["mean_keys"]:
            problems.append(f"leaf mean {f['leaf']['mean']} != mean keys {r['mean_keys']}")
        if not _close(sum(r["fringe_histogram"]["mean_count"]) + r["mean_keys"], r["mean_patricia_nodes"], 1e-9):
            problems.append("fringe histogram plus leaves does not partition the patricia nodes")
        return problems

    def pooled_check(self, done):
        problems = []
        fx = [(op, doc) for op, doc in done if op.variant == "estimate_fX"]
        if fx:
            idx = [op.index for op, _ in fx]
            d, k, lam = BIN_SYM, self.fx_k, self.fx_lam
            fe = asymptotics.fe_lambda(d, k, lam)
            targets = {
                "f_e": fe,
                "f_v": asymptotics.fv_lambda(d, k, lam).value,
                # Cov(root toll, N) = (k - lam) f_E(lam) for the k-fringe toll
                "f_c": (k - lam) * fe,
            }
            for key, target in targets.items():
                est, se = _pooled([doc[key] for _, doc in fx], [doc[f"{key}_se"] for _, doc in fx])
                problems += [(p, idx) for p in _z_check(f"estimate_fX {key}", est, se, target)]
        sim = [(op, doc) for op, doc in done if op.variant == "cli-simulate"]
        if sim:
            idx = [op.index for op, _ in sim]
            d = SourceDistribution.parse(self.cli_source)
            lam = self.cli_lam
            key_se = math.sqrt(lam / self.cli_reps)
            est, se = _pooled([doc["results"]["mean_keys"] for _, doc in sim], [key_se] * len(sim))
            problems += [(p, idx) for p in _z_check("poisson mean keys", est, se, lam)]
            stats = [_functional_means(doc)["k=2"] for _, doc in sim]
            est, se = _pooled([st["mean"] for st in stats], [st["se_mean"] for st in stats])
            problems += [(p, idx) for p in _z_check("poisson k=2 mean", est, se, poisson_fringe_mean(d, 2, lam))]
        return problems


# ---------------------------------------------------------------------------
# shape-law


class ShapeLaw:
    name = "shape-law"
    why = (
        "library shape calls: phi_shape run over all 4-leaf shapes, sampled patricia roots vs the exact law, "
        "paired-trie shape run; stresses shape signatures and the explicit-tree path"
    )
    cycle = 1
    run_n, run_reps = 10_000, 8
    roots_n, roots_reps = 5, 4000
    paired_n, paired_reps = 128, 16

    def __init__(self):
        self.shapes4 = trees.enumerate_patricia_shapes(4, 2)
        self.shapes5 = trees.enumerate_patricia_shapes(5, 2)

    def threads(self):
        return 1

    def _tolls(self):
        return tuple(functionals.phi_shape(s) for s in self.shapes4)

    def op(self, seed, index):
        s_run, s_roots, s_paired = (op_seed(seed, index, part) for part in range(3))
        d = BIN_SYM
        cfg_run = simulation.SimulationConfig.fixed(d, self.run_n, self.run_reps, s_run, self._tolls() + (functionals.phi_k(4),))
        cfg_paired = simulation.SimulationConfig.fixed(
            d, self.paired_n, self.paired_reps, s_paired, self._tolls() + (functionals.phi_leaf(),), paired_trie=True
        )

        def execute(threads):
            sim = triefringe.simulation
            shape_run = sim.run(cfg_run, threads=threads)
            shape_index, prefix = sim.sample_patricia_roots(d, self.roots_n, self.roots_reps, s_roots, self.shapes5)
            probabilities = [triefringe.trees.shape_probability(s, d) for s in self.shapes5]
            limits = [triefringe.asymptotics.shape_limit(d, s) for s in self.shapes4]
            paired = sim.run(cfg_paired, threads=threads)
            roots = {
                "shape_counts": np.bincount(shape_index[shape_index >= 0], minlength=len(self.shapes5)),
                "unmatched": int(np.sum(shape_index < 0)),
                "prefix_counts": np.bincount(prefix),
                "probabilities": probabilities,
            }
            return canonical({"run": shape_run.as_dict(), "limits": limits, "roots": roots, "paired": paired.as_dict()})

        keys = self.run_n * self.run_reps + self.roots_n * self.roots_reps + self.paired_n * self.paired_reps
        return Op(
            index=index,
            variant="shapes",
            execute=execute,
            keys=lambda doc: keys,
            replicates=self.run_reps + self.roots_reps + self.paired_reps,
            check=self._check,
            replay=(d, "fixed", self.run_n, s_run, self._tolls()),
            sims=(
                simulation.SimulationConfig.fixed(d, self.run_n, self.run_reps, s_run, ()),
                simulation.SimulationConfig.fixed(d, self.roots_n, self.roots_reps, s_roots, ()),
                simulation.SimulationConfig.fixed(d, self.paired_n, self.paired_reps, s_paired, ()),
            ),
        )

    def _check(self, doc):
        problems = []
        run, roots, paired = doc["run"], doc["roots"], doc["paired"]
        means = [st["mean"] for st in run["functionals"]]
        # every 4-leaf fringe has exactly one of the enumerated shapes
        if not _close(sum(means[:-1]), means[-1], 1e-12):
            problems.append(f"shape means sum to {sum(means[:-1])}, k=4 mean is {means[-1]}")
        if run["mean_keys"] != self.run_n:
            problems.append("shape run mean_keys != n")
        if roots["unmatched"] != 0 or sum(roots["shape_counts"]) != self.roots_reps:
            problems.append("a sampled patricia root matches no enumerated shape")
        if not _close(sum(roots["probabilities"]), 1.0, 1e-12):
            problems.append("exact shape law does not sum to 1")
        pm = {st["name"]: st["mean"] for st in paired["functionals"]}
        tm = {st["name"]: st["mean"] for st in paired["trie_functionals"]}
        if pm["leaf"] != self.paired_n or tm["leaf"] != self.paired_n:
            problems.append("paired shape run leaf means != n")
        return problems

    def pooled_check(self, done):
        problems = []
        if not done:
            return problems
        idx = [op.index for op, _ in done]
        counts = np.sum([doc["roots"]["shape_counts"] for _, doc in done], axis=0)
        total = self.roots_reps * len(done)
        for j, p in enumerate(done[0][1]["roots"]["probabilities"]):
            se = math.sqrt(p * (1.0 - p) / total)
            problems += [(msg, idx) for msg in _z_check(f"5-leaf shape {j} frequency", counts[j] / total, se, p)]
        for j, limit in enumerate(done[0][1]["limits"]):
            stats = [doc["run"]["functionals"][j] for _, doc in done]
            est, se = _pooled([st["mean"] / self.run_n for st in stats], [st["se_mean"] / self.run_n for st in stats])
            # 2% covers the periodic part of the symmetric binary source (criterion 03)
            problems += [(msg, idx) for msg in _z_check(f"4-leaf shape {j} mean/n", est, se, limit, 0.02 * limit)]
        return problems


WORKLOADS = {w.name: w for w in (FixedBinary, WideAlphabet, SmallPoisson, ShapeLaw)}


def replay(spec) -> list[str]:
    """Rebuild replicate 0 as an explicit patricia trie and compare with the engine."""
    d, mode, size, seed, tolls = spec
    rng = simulation.replicate_rng(seed, 0)
    n = int(size) if mode == "fixed" else int(rng.poisson(size))
    pat = trees.build_patricia(trees.random_key_set(d, n, rng))
    explicit = [float(v) for v in functionals.evaluate_additive(list(tolls), pat)]
    summary = simulation.run(simulation.SimulationConfig(d, mode, float(size), 1, seed, tuple(tolls)))
    engine = [st.mean for st in summary.functionals]
    problems = []
    if explicit != engine:
        problems.append(f"replicate 0 of seed {seed}: explicit tolls {explicit} != engine {engine}")
    if pat.node_count() != summary.mean_pat_nodes or n != summary.mean_keys:
        problems.append(f"replicate 0 of seed {seed}: explicit tree size differs from the engine's")
    return problems


def node_counts(op: Op) -> tuple[int, int]:
    """(trie nodes, patricia nodes) over every tree the op builds."""
    trie = pat = 0
    for cfg in op.sims:
        s = simulation.run(cfg)
        trie += round(s.mean_trie_nodes * cfg.replicates)
        pat += round(s.mean_pat_nodes * cfg.replicates)
    return trie, pat
