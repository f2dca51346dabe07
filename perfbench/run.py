"""Closed-loop benchmark of the triefringe Monte Carlo engine.

Run from the repository root:

    python3 perfbench/run.py --workload fixed-binary --seed 1 --seconds 45 --trace 0

One client sends the workload's next op only when the previous one is done.
Every op's output is checked (see workloads.py) after the timed loop.

--trace 0 measures the end-to-end metrics: simulated keys per second,
median and tail op latency, set-up time of a fresh interpreter importing
triefringe.cli, and peak resident memory.

--trace 1 gives per-layer figures.  Half of the time runs untraced (for the
process pool's CPU figures), half runs with spans around every call into the
public functions of triefringe's modules, serially, because spans inside
pool workers are lost.  Traced outputs must equal the untraced ones byte for
byte; the spans go to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
READY_PROBE = "import triefringe.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
# import time is reported per module of ours, and summed over every module of
# the two third-party packages
IMPORT_PACKAGES = ("numpy", "scipy")
IMPORT_MODULES = tuple(
    f"triefringe.{m}" for m in ("source", "trees", "functionals", "asymptotics", "simulation", "cli")
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def locate_program() -> Path:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "triefringe" / "cli.py").is_file():
        fail(f"no src/triefringe under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    import triefringe

    if Path(triefringe.__file__).resolve().parent != (src / "triefringe").resolve():
        fail(f"imported triefringe from {triefringe.__file__}, not from {src}")
    return src


def child_env(src: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def setup_seconds(src: Path, probes: int) -> list[float]:
    """Wall time from starting a fresh interpreter until triefringe.cli is imported."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", READY_PROBE], stdout=subprocess.PIPE, env=child_env(src), cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if line != b"ready\n" or proc.returncode != 0:
            fail("a fresh interpreter could not import triefringe.cli")
        times.append(ready - start)
    return times


def import_seconds(src: Path, probes: int) -> dict[str, float]:
    """Median self import time per module (or package) from `python -X importtime`."""
    samples: dict[str, list[float]] = {}
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import triefringe.cli"],
            capture_output=True,
            env=child_env(src),
            cwd=ROOT,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            fail("python -X importtime could not import triefringe.cli")
        run = dict.fromkeys((*IMPORT_PACKAGES, *IMPORT_MODULES, "total"), 0.0)
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or line.count("|") != 2:
                continue
            self_us, _, field = line[len("import time:") :].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            name = field.strip()
            seconds = int(self_us) * 1e-6
            run["total"] += seconds
            package = name.split(".", 1)[0]
            if name in IMPORT_MODULES:
                run[name] += seconds
            elif package in IMPORT_PACKAGES:
                run[package] += seconds
        for name, seconds in run.items():
            samples.setdefault(name, []).append(seconds)
    return {name: statistics.median(v) for name, v in samples.items()}


def environment(workload, threads: int, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=30,
            check=True,
        ).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # a checkout without git metadata
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": threads,
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
    }


class Record:
    """One executed op: its output bytes (or error) and latency."""

    def __init__(self, op, out, error, latency):
        self.op, self.out, self.latency = op, out, latency
        self.doc = None
        self.problems = [error] if error else []

    @property
    def digest(self):
        return hashlib.sha256(self.out).hexdigest()[:32] if self.out is not None else None


def execute(op, threads, tracer=None) -> Record:
    start = time.perf_counter()
    try:
        out = tracer.op_span(op.index, op.execute, threads) if tracer else op.execute(threads)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        out, error = None, f"op {op.index} raised {type(exc).__name__}: {exc}"
    return Record(op, out, error, time.perf_counter() - start)


def closed_loop(workload, seed, seconds, threads, tracer=None):
    """Run ops back to back, whole cycles, until `seconds` have passed."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        records.append(execute(workload.op(seed, index), threads, tracer))
        index += 1
        if index % workload.cycle == 0 and time.perf_counter() >= deadline:
            break
    return records, time.perf_counter() - start


def check_records(workload, records, golden):
    """Per-op checks, then pooled closed-form checks; marks problems on records."""
    from workloads import strict_json

    for rec in records:
        if rec.out is None:
            continue
        try:
            rec.doc = strict_json(rec.out)
            rec.problems += rec.op.check(rec.doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            rec.problems.append(f"op {rec.op.index}: unreadable output: {type(exc).__name__}: {exc}")
        if golden is not None and rec.op.index < len(golden) and rec.digest != golden[rec.op.index]:
            rec.problems.append(f"op {rec.op.index}: output digest differs from the committed one")
    unique = {}
    for rec in records:
        if rec.doc is not None and not rec.problems:
            unique.setdefault(rec.op.index, rec)
    by_index = {rec.op.index: rec for rec in records}
    for problem, indices in workload.pooled_check([(rec.op, rec.doc) for rec in unique.values()]):
        for i in indices:
            by_index[i].problems.append(problem)


def typical_latency(records):
    """Mean over variants of each variant's median op latency.

    For a single-variant workload this is the median op latency; with
    several variants it keeps the median out of the gap between them.
    """
    by_variant = {}
    for rec in records:
        by_variant.setdefault(rec.op.variant, []).append(rec.latency)
    return statistics.fmean(statistics.median(latencies) for latencies in by_variant.values())


def tail(latencies):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def load_golden(name):
    path = HERE / "golden.json"
    if not path.is_file():
        fail(f"missing {path}")
    data = json.loads(path.read_text())
    if name not in data["digests"]:
        fail(f"{path} has no digests for {name}")
    return data["seed"], data["digests"][name]


def counters(op, tracer):
    """Exact work counters of one traced op."""
    from workloads import node_counts

    rec = tracer.per_op()[op.index]
    trie, pat = node_counts(op)
    return {
        "replicates": op.replicates,
        "draw_calls": rec["calls"].get("source.draw", 0),
        "draw_chars": rec["chars"],
        "seed_calls": rec["calls"].get("simulation.seed", 0),
        "trie_nodes": trie,
        "patricia_nodes": pat,
    }


# Per-layer figures that go into the result line.  The rest are printed only:
# they time layers that the workloads in BENCHMARK.json never call, so they
# would read 0 on every run.
REPORTED = (
    "source.draw.busy_s",
    "source.draw.calls",
    "source.draw.chars",
    "source.draw.ns_per_char",
    "source.draw.chars_per_key",
    "simulation.seed.busy_s",
    "simulation.seed.calls",
    "simulation.seed.us_per_call",
    "simulation.engine.self_s",
    "simulation.engine.ns_per_trie_node",
    "simulation.trie_nodes_per_key",
    "simulation.patricia_nodes_per_key",
    "simulation.executor.cpu_util",
    "simulation.executor.child_cpu_frac",
    "asymptotics.share",
    "cli.share",
    "trace.overhead_frac",
    *(f"setup.import_s.{m}" for m in (*IMPORT_PACKAGES, *IMPORT_MODULES, "total")),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = locate_program()
    import triefringe
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, replay

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]()
    threads = workload.threads()
    golden_seed, golden = load_golden(workload.name)
    env = environment(workload, threads, seed)
    print("environment " + json.dumps(env))

    # the pinned op: op 0 of the committed seed at one thread, against the
    # digest committed from a run at the workload's thread count; it also
    # warms caches and lazy imports before anything is timed
    pinned = execute(workload.op(golden_seed, 0), 1)
    if pinned.digest != golden[0]:
        pinned.problems.append("pinned op: output at --threads 1 differs from the committed digest")
    extra = [pinned]
    metrics = {}
    golden_for_run = golden if seed == golden_seed else None

    if args.trace == 0:
        setup = setup_seconds(src, SETUP_PROBES)
        records, wall = closed_loop(workload, seed, args.seconds, threads)
        check_records(workload, records, golden_for_run)
        timed = records
    else:
        imports = import_seconds(src, IMPORTTIME_PROBES)
        self0, kids0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        records, wall = closed_loop(workload, seed, args.seconds / 2, threads)
        self1, kids1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        tracer, again_tracer = Tracer(), Tracer()
        tracer.install(triefringe)
        try:
            traced, traced_wall = closed_loop(workload, seed, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        # op 0 once more under a fresh tracer: its exact counters must repeat
        again_tracer.install(triefringe)
        try:
            again = execute(workload.op(seed, 0), 1, again_tracer)
        finally:
            again_tracer.uninstall()
        check_records(workload, records + traced + [again], golden_for_run)
        untraced_by_index = {rec.op.index: rec for rec in records}
        for rec in traced + [again]:
            twin = untraced_by_index.get(rec.op.index)
            if twin is not None and twin.out is not None and rec.out != twin.out:
                rec.problems.append(f"op {rec.op.index}: traced output differs from the untraced output")
        first = counters(traced[0].op, tracer)
        if counters(again.op, again_tracer) != first:
            again.problems.append("exact counters of op 0 did not repeat")
        extra.append(again)
        timed = records + traced

    sample = random.Random(seed).choice([rec for rec in timed if rec.out is not None] or [pinned])
    try:
        sample.problems += replay(sample.op.replay)
    except Exception as exc:  # a replay that raises fails its op, like an op that raises
        sample.problems.append(f"replay of op {sample.op.index} raised {type(exc).__name__}: {exc}")

    attempted = timed + extra
    failed = [rec for rec in attempted if rec.problems]
    for rec in failed[:20]:
        print(f"FAILED op {rec.op.index} ({rec.op.variant}): " + "; ".join(rec.problems[:3]))

    if args.trace == 0:
        latencies = [rec.latency for rec in records]
        # an op that raised inserted no keys
        keys = sum(rec.op.keys(rec.doc) for rec in records if rec.doc is not None)
        tail_value, tail_pct = tail(latencies)
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        metrics = {
            "keys_per_s": (keys / wall, "keys/s"),
            "op_p50_s": (typical_latency(records), "s"),
            "op_tail_s": (tail_value, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        print(f"workload {workload.name}: {len(records)} ops, {keys} keys in {wall:.2f}s, seed {seed}, threads {threads}")
        print(f"  op_tail_s is p{tail_pct:.1f} of {len(latencies)} ops; setup_s is the median of {len(setup)} probes")
        print(f"  failed_frac {len(failed) / len(attempted):.6g} ({len(failed)} of {len(attempted)} ops)")
    else:
        metrics = per_layer(workload, records, wall, self0, self1, kids0, kids1, traced, tracer, first, imports)
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
        tracer.write(span_path)
        print(f"workload {workload.name}: {len(records)} untraced ops in {wall:.2f}s at {threads} threads, "
              f"{len(traced)} traced ops in {traced_wall:.2f}s at 1 thread; {tracer.spans()} spans in {span_path}")
        print(f"  failed_frac {len(failed) / len(attempted):.6g} ({len(failed)} of {len(attempted)} ops)")
        print(f"  exact counters of op 0: {json.dumps(first)}")
        if threads == 1:
            common = [(untraced_by_index[rec.op.index].latency, rec.latency) for rec in traced
                      if rec.op.index in untraced_by_index]
            ratio = statistics.median(t / u for u, t in common)
            print(f"  traced / untraced op latency: median ratio {ratio:.4f} over {len(common)} ops")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if name in REPORTED or args.trace == 0},
    }
    print(json.dumps(result))
    return 0


def per_layer(workload, records, wall, self0, self1, kids0, kids1, traced, tracer, first, imports):
    """Per-layer figures: per-op means over the traced ops, CPU from the untraced ones."""
    from tracer import calibrate
    from workloads import node_counts

    per_span = calibrate()
    per = tracer.per_op(per_span)
    ops = [rec.op for rec in traced if rec.op.index in per]
    n_ops = len(ops)
    busy, calls = {}, {}
    chars = 0
    op_wall = 0.0
    cli_ops = 0
    for op in ops:
        rec = per[op.index]
        for layer, s in rec["self_s"].items():
            busy[layer] = busy.get(layer, 0.0) + s
        for layer, c in rec["calls"].items():
            calls[layer] = calls.get(layer, 0) + c
        chars += rec["chars"]
        op_wall += rec["wall_s"]
        cli_ops += "cli" in rec["calls"]
    keys = sum(rec.op.keys(rec.doc) for rec in traced if rec.doc is not None)

    # node counts for the first cycle of traced ops; engine time over the same ops
    cycle_ops = ops[: workload.cycle]
    cycle_nodes = [(first["trie_nodes"], first["patricia_nodes"])] + [node_counts(op) for op in cycle_ops[1:]]
    cycle_keys = sum(rec.op.keys(rec.doc) for rec in traced[: workload.cycle] if rec.doc is not None)
    cycle_engine = sum(per[op.index]["self_s"].get("simulation.engine", 0.0) for op in cycle_ops)
    trie_nodes = sum(t for t, _ in cycle_nodes)
    pat_nodes = sum(p for _, p in cycle_nodes)

    cpu_self = (self1.ru_utime + self1.ru_stime) - (self0.ru_utime + self0.ru_stime)
    cpu_kids = (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
    draw, seed = busy.get("source.draw", 0.0), busy.get("simulation.seed", 0.0)
    metrics = {
        "source.draw.busy_s": (draw / n_ops, "s/op"),
        "source.draw.calls": (calls.get("source.draw", 0) / n_ops, "1/op"),
        "source.draw.chars": (chars / n_ops, "chars/op"),
        "source.draw.ns_per_char": (draw / chars * 1e9, "ns"),
        "source.draw.chars_per_key": (chars / keys, "chars/key"),
        "simulation.seed.busy_s": (seed / n_ops, "s/op"),
        "simulation.seed.calls": (calls.get("simulation.seed", 0) / n_ops, "1/op"),
        "simulation.seed.us_per_call": (seed / calls["simulation.seed"] * 1e6, "us"),
        "simulation.engine.self_s": (busy.get("simulation.engine", 0.0) / n_ops, "s/op"),
        "simulation.engine.ns_per_trie_node": (cycle_engine / trie_nodes * 1e9, "ns"),
        "simulation.trie_nodes_per_key": (trie_nodes / cycle_keys, "nodes/key"),
        "simulation.patricia_nodes_per_key": (pat_nodes / cycle_keys, "nodes/key"),
        "simulation.executor.child_cpu_s": (cpu_kids / len(records), "s/op"),
        "simulation.executor.cpu_util": ((cpu_self + cpu_kids) / wall, "1"),
        "simulation.executor.child_cpu_frac": (cpu_kids / (cpu_self + cpu_kids), "1"),
    }
    for layer in ("trees.build", "functionals.evaluate", "trees.exact", "asymptotics"):
        metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0) / n_ops, "s/op")
        metrics[f"{layer}.share"] = (busy.get(layer, 0.0) / op_wall, "1")
    metrics["cli.self_s_per_op"] = (busy["cli"] / cli_ops if cli_ops else 0.0, "s/op")
    metrics["cli.share"] = (busy.get("cli", 0.0) / op_wall, "1")
    metrics["bench.share"] = (busy.get("bench", 0.0) / op_wall, "1")
    metrics["trace.overhead_frac"] = (tracer.spans() * per_span / op_wall, "1")
    for name, value in imports.items():
        metrics[f"setup.import_s.{name}"] = (value, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
