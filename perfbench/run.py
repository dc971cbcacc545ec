#!/usr/bin/env python3
"""Process-level benchmark for qknap.

    python3 perfbench/run.py --workload {wide,dense,batch} [--seed 1]
                             [--seconds 30] [--trace 0|1]

Run it from the root of a checkout: the program under test is the
checkout's own ``src/qknap``. Instance files are generated from the seed
before any timing, so the program only ever receives files. One client
drives a closed loop, starting one ``python -m qknap ...`` process per
request and the next only after the previous one has exited. Every
answer is checked (check.py) and a failed check, a nonzero exit or a
timeout counts as a failed request. End-to-end times are seconds at a
nominal machine speed: each instance visit starts with a fixed reference
process (probe.py) and the visit's times are scaled by how far that
probe ran from its nominal time (Run.measure says why).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` serves the
same instances in-process with spans around the calls into each layer
(tracing.py) and prints the per-layer metrics. The first stdout line
names the DP driver that runs; the last is one JSON object with the keys
correct, attempted, failed and metrics.

Seeds: 1 is the default and the seed whose answers must match the
stored digests (digests.json; ``--record-digests`` rewrites them from
the current code). 2 is held out: claims made on seed 1 are re-checked
on it. Each instance seed is derived from the workload name, the seed
and the instance's position, so one run covers several instances.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
PROBE = HERE / "probe.py"
PROBE_NOMINAL_S = 0.25  # the probe's typical wall time on the 2-vCPU machine the bounds were set on
DEFAULT_SEED = 1
COLD_PROBES = 5
IMPORT_PROBES = 5
PREFIX_ITEMS = 14

SOLVE, MATRIX, GREEDY_R, GREEDY_W = "solve", "solve --matrix", "greedy r", "greedy w"
KINDS = (SOLVE, MATRIX, GREEDY_R, GREEDY_W)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    shape: dict  # GeneratorParams fields other than the seed
    instances: int  # distinct instances per run, served in turn
    traced: int  # instances the traced run serves in its first pass
    mix: tuple[str, ...]  # request kinds served per instance
    oracle: bool  # small enough to check against brute force
    timeout: float  # per-request limit in seconds


# Why these three (cost depends on instance shape, as Bazgan, Hugot &
# Vanderpooten, C&OR 2009, found for multi-objective knapsack DP). Sizes
# keep requests near a second, so a run covers many instances and the
# seed-to-seed spread of instance difficulty averages out.
#   wide  - the criterion-9 family (n=200, k=3, wmax=50) at W=100, just over
#           the 20,000-cell kernel threshold: per-column driver overhead and
#           the row sweep do the work; few ties, almost no pruning.
#   dense - k=5 (a Likert scale), wmax=3, W a quarter of the total weight:
#           few but large cells with many equal-weight ties; stresses the
#           pairwise merge, tie resolution, witness ids and pruning of
#           unreachable columns (the last quarter of the rows).
#   batch - many small instances, each served as solve, solve --matrix,
#           greedy r and greedy w: interpreter start and import dominate.
#           The only workload serving --matrix and greedy requests.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide", dict(n=200, k=3, weight_max=50, capacity=100), 16, 4, (SOLVE,), False, 30.0),
        Workload("dense", dict(n=100, k=5, weight_max=3, ratio=Fraction(1, 4)), 24, 4, (SOLVE,), False, 30.0),
        Workload("batch", dict(n=14, k=3, weight_max=9, ratio=Fraction(1, 2)), 24, 24, KINDS, True, 20.0),
    )
}


@dataclasses.dataclass
class Outcome:
    wall: float
    rss_kb: int
    stdout: str
    error: str | None  # nonzero exit or timeout


def run_request(argv: list[str], env: dict, timeout: float, scratch: Path) -> Outcome:
    """Start one process, wait for it (killing it after ``timeout``), and time spawn to exit."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    error = None
    if wall >= timeout:
        error = f"timeout after {timeout:g}s"
    elif proc.returncode != 0:
        error = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
    return Outcome(wall, usage.ru_maxrss, stdout, error)


def child_env(home: Path) -> dict:
    home.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"))
    return env


def request_argv(kind: str, path: Path) -> list[str]:
    command, *rest = kind.split()
    return [sys.executable, "-m", "qknap", command, str(path), *rest]


def instance_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def dp_driver(cells: int) -> str:
    """The DP driver a solve of this many cells runs (the kernel choice in qknap.dp)."""
    import qknap.dp as dp

    if not hasattr(dp, "_solve_cells_numpy") or not hasattr(dp, "_load_jit_row_kernel"):
        return "unknown (qknap.dp no longer has the numpy/numba driver pair)"
    if cells < getattr(dp, "_KERNEL_MIN_CELLS", 0):
        return "numpy per-cell (below the kernel threshold)"
    if dp._load_jit_row_kernel() is None:
        return "numpy per-cell FALLBACK (numba row kernel unavailable)"
    return "numba row kernel"


def env_header(cells: int) -> str:
    import numpy

    gcc = shutil.which("gcc")
    gcc_version = "none"
    if gcc:
        gcc_version = subprocess.run([gcc, "-dumpfullversion"], capture_output=True, text=True).stdout.strip()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return (
        f"env dp_driver={dp_driver(cells)!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} gcc={gcc_version} nproc={len(os.sched_getaffinity(0))} "
        f"commit={commit}"
    )


@dataclasses.dataclass
class InstanceFile:
    path: Path
    inst: object  # qknap.model.Instance
    cells: int


def write_instance(inst, path: Path) -> InstanceFile:
    from qknap.instance_io import serialize_instance

    path.write_text(serialize_instance(inst), encoding="utf-8")
    return InstanceFile(path, inst, inst.n * (inst.capacity + 1))


def make_instances(wl: Workload, seed: int, run_dir: Path) -> list[InstanceFile]:
    from qknap.instance_io import GeneratorParams, generate_instance

    return [
        write_instance(
            generate_instance(GeneratorParams(seed=instance_seed(wl.name, seed, i), **wl.shape)),
            run_dir / f"{wl.name}-{i}.qknap",
        )
        for i in range(wl.instances)
    ]


def stored_digests(wl: Workload, seed: int) -> list[dict[str, str]]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return [{} for _ in range(wl.instances)]
    stored = json.loads(DIGESTS.read_text())["workloads"].get(wl.name, [])
    return (stored + [{} for _ in range(wl.instances)])[: wl.instances]


def small_instance(run_dir: Path, name: str, **shape) -> InstanceFile:
    from qknap.instance_io import GeneratorParams, generate_instance

    return write_instance(generate_instance(GeneratorParams(seed=7, **shape)), run_dir / f"{name}.qknap")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no percentile has ten beyond it; the maximum
    is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    """One benchmark run: its instances, references, scratch directory and tallies."""

    def __init__(self, wl: Workload, seed: int, run_dir: Path) -> None:
        from check import make_reference

        self.wl = wl
        self.run_dir = run_dir
        self.instances = make_instances(wl, seed, run_dir)
        self.refs = [
            make_reference(it.inst, wl.oracle, digests)
            for it, digests in zip(self.instances, stored_digests(wl, seed))
        ]
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict[str, str] = {}
        self.probe_s: list[float] = []
        self.cold = small_instance(run_dir, "cold", n=4, k=3, weight_max=9, ratio=Fraction(1, 2))

    def settle(self, index: int, kind: str, error: str | None, stdout: str, ref=None) -> None:
        """Count one request and check its answer unless it already failed."""
        from check import check_answer

        self.attempted += 1
        errors = [error] if error else check_answer(ref or self.refs[index], kind, stdout)
        if errors:
            self.failures.append(f"instance {index} {kind}: {'; '.join(errors)}")

    def gauge(self, env: dict) -> float:
        """Run the reference probe; the factor that rescales times to nominal machine speed."""
        outcome = run_request([sys.executable, str(PROBE)], env, 60.0, self.run_dir)
        if outcome.error:
            raise RuntimeError(f"machine probe failed: {outcome.error}")
        self.probe_s.append(outcome.wall)
        return PROBE_NOMINAL_S / outcome.wall

    def measure(self, seconds: float) -> dict[str, tuple[float, str]]:
        """End-to-end metrics of a closed loop of request processes.

        Each instance visit starts with the reference probe (probe.py), and
        the visit's request times are rescaled by PROBE_NOMINAL_S over the
        probe's time: seconds on a machine where the probe takes
        PROBE_NOMINAL_S. A shared machine's speed swings by 20% and more
        for tens of seconds, which raw medians of a 30 s run do not
        average out; the ratio to a probe run moments earlier does. Raw
        medians are printed beside the metrics.
        """
        env = child_env(self.run_dir / "home")
        # Untimed warm-up at the current kernel-size threshold (20,000 cells),
        # so first-use set-up of a size-gated backend lands in setup_s only.
        warm = small_instance(self.run_dir, "warm", n=20, k=self.wl.shape["k"], weight_max=50, capacity=999)
        outcome = run_request(request_argv(SOLVE, warm.path), env, 120.0, self.run_dir)
        if outcome.error:
            raise RuntimeError(f"warm-up solve failed: {outcome.error}")
        setup, setup_raw = [], []
        for i in range(COLD_PROBES):
            factor = self.gauge(env)
            home = self.run_dir / f"cold-home-{i}"
            outcome = run_request(request_argv(SOLVE, self.cold.path), child_env(home), 60.0, self.run_dir)
            if outcome.error:
                raise RuntimeError(f"cold-start solve failed: {outcome.error}")
            shutil.rmtree(home)
            setup.append(outcome.wall * factor)
            setup_raw.append(outcome.wall)

        raw: dict[str, list[float]] = {kind: [] for kind in self.wl.mix}
        scaled = []
        solve_cells = solve_wall = 0.0
        rss_kb = 0
        schedule = [(i, kind) for i in range(len(self.instances)) for kind in self.wl.mix]
        t0 = time.perf_counter()
        for step in itertools.count():
            index, kind = schedule[step % len(schedule)]
            expected = statistics.median(raw[kind]) if raw[kind] else 0.0
            if step and time.perf_counter() - t0 + expected > seconds:
                break
            if kind == self.wl.mix[0]:
                factor = self.gauge(env)
            inst = self.instances[index]
            outcome = run_request(request_argv(kind, inst.path), env, self.wl.timeout, self.run_dir)
            self.settle(index, kind, outcome.error, outcome.stdout)
            raw[kind].append(outcome.wall)
            scaled.append(outcome.wall * factor)
            rss_kb = max(rss_kb, outcome.rss_kb)
            if kind in (SOLVE, MATRIX):
                solve_cells += inst.cells
                solve_wall += outcome.wall * factor

        every_raw = [w for ws in raw.values() for w in ws]
        tail_s, tail_pct = tail(scaled)
        self.notes = {
            "request_s.p50": f"n={len(scaled)}; raw {statistics.median(every_raw):.4g} s, "
            f"probe median {statistics.median(self.probe_s):.4g} s",
            "request_s.tail": f"p{tail_pct:.1f} of n={len(scaled)}"
            + ("" if len(scaled) > 10 else ", the max: no percentile has 10 samples beyond it"),
            "setup_s": f"median of {COLD_PROBES} cold starts with empty HOME and XDG cache; "
            f"raw {statistics.median(setup_raw):.4g} s",
        }
        return {
            "request_s.p50": (statistics.median(scaled), "s"),
            "request_s.tail": (tail_s, "s"),
            "cells_per_s": (solve_cells / solve_wall, "1/s"),
            "requests_per_s": (len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    def trace(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the same requests served in-process with spans."""
        import tracing
        from check import make_reference

        env = child_env(self.run_dir / "home")
        probe = [sys.executable, "-c", "import time; t = time.perf_counter(); import qknap.cli; "
                 "print(time.perf_counter() - t)"]
        import_s = []
        for _ in range(IMPORT_PROBES):
            outcome = run_request(probe, env, 60.0, self.run_dir)
            if outcome.error:
                raise RuntimeError(f"import probe failed: {outcome.error}")
            import_s.append(float(outcome.stdout))

        # Request kinds the workload does not serve still get one call per
        # instance, so every layer metric exists on every workload: greedy on
        # the instance itself, --matrix on its first PREFIX_ITEMS items (the
        # full table of a large instance would not fit the run).
        jobs = []
        for index in range(self.wl.traced):
            it, ref = self.instances[index], self.refs[index]
            for kind in KINDS:
                if kind == MATRIX and kind not in self.wl.mix:
                    prefix = dataclasses.replace(it.inst, items=it.inst.items[:PREFIX_ITEMS])
                    part = write_instance(prefix, self.run_dir / f"prefix-{index}.qknap")
                    jobs.append((index, kind, part, make_reference(prefix, True, {})))
                else:
                    jobs.append((index, kind, it, ref))

        tracing.call_main(request_argv(SOLVE, self.cold.path)[3:])  # first-call costs, untimed
        tracer = tracing.Tracer()
        served: set[int] = set()
        output_bytes = []
        walls = {True: 0.0, False: 0.0}  # first-pass solve seconds, traced or not
        t0 = time.perf_counter()
        for step in itertools.count():
            index, kind, it, ref = jobs[step % len(jobs)]
            first_pass = step < len(jobs)
            if not first_pass and time.perf_counter() - t0 > seconds:
                break
            tracer.request = step
            order = (True,)
            if first_pass and kind == SOLVE:
                # On the first pass each solve also runs untraced, alternating
                # which goes first, to measure what the spans cost.
                order = (True, False) if index % 2 else (False, True)
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    wall, code, stdout = tracing.call_main(request_argv(kind, it.path)[3:])
                finally:
                    tracer.uninstall()
                self.settle(index, kind, None if code == 0 else f"exit {code}", stdout, ref)
                if first_pass and kind == SOLVE:
                    walls[traced] += wall
            if kind in self.wl.mix:
                served.add(step)
                if first_pass:
                    output_bytes.append(len(stdout.encode()))
        trace_path = WORK / f"trace-{self.wl.name}.jsonl"
        tracer.write(trace_path)
        self.notes = {"trace.overhead_frac": f"spans in {trace_path.relative_to(ROOT)}"}
        return tracing.layer_metrics(tracer.spans, served, len(jobs), output_bytes,
                                     (walls[True], walls[False]), import_s)

    def record_digests(self) -> list[dict[str, str]]:
        """Digest of every answer in the workload's mix, after checking it."""
        from check import output_digest

        env = child_env(self.run_dir / "home")
        recorded = []
        for index, it in enumerate(self.instances):
            entry = {}
            for kind in self.wl.mix:
                outcome = run_request(request_argv(kind, it.path), env, self.wl.timeout, self.run_dir)
                self.settle(index, kind, outcome.error, outcome.stdout)
                entry[kind] = output_digest(outcome.stdout)
            recorded.append(entry)
        return recorded


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from the current code's answers (seed {DEFAULT_SEED})")
    return parser.parse_args(argv)


def load_program() -> str | None:
    """Put the checkout's src/ first on sys.path and import qknap from it; an error or None."""
    if not (SRC / "qknap" / "__init__.py").is_file():
        return f"no qknap package under {SRC}; run from the root of a qknap checkout"
    sys.path.insert(0, str(SRC))
    import qknap

    if Path(qknap.__file__).resolve().parent != (SRC / "qknap").resolve():
        return f"imported qknap from {qknap.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from check import self_test

    wl = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.record_digests else args.seed
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{wl.name}-") as tmp:
        run = Run(wl, seed, Path(tmp))
        print(env_header(run.instances[0].cells), flush=True)
        verdicts = self_test()
        print("checker self-test: " + ", ".join(
            f"{name} {'rejected' if rejected else 'accepted'}" for name, rejected in verdicts.items()))
        if verdicts.pop("clean") or not all(verdicts.values()):
            print("error: the checker self-test failed", file=sys.stderr)
            return 1
        if args.record_digests:
            for ref in run.refs:
                ref.digests = {}
            recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"seed": seed, "workloads": {}}
            recorded["workloads"][wl.name] = run.record_digests()
            if run.failures:
                print("\n".join(run.failures), file=sys.stderr)
                return 1
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"recorded digests of {wl.instances} {wl.name} instances")
            return 0
        metrics = run.trace(args.seconds) if args.trace else run.measure(args.seconds)

    for name, (value, unit) in metrics.items():
        note = run.notes.get(name)
        print(f"{wl.name} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    failed = len(run.failures)
    print(f"{wl.name} failed_frac = {failed / run.attempted:.6g} frac  ({failed} of {run.attempted} requests)")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
