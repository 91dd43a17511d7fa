"""Benchmark for geopgo: whole ``geopgo solve`` runs, checked, with a per-layer split.

    python3 perfbench/run.py --workload sphere50-ref --seed 0 --seconds 20 --trace 0

One process, one caller, one solve at a time (a closed loop). Each solve
is ``geopgo.cli.main(["solve", ...])`` called in-process on a dataset
that ``make_inputs.py`` wrote from ``--seed``. Every solve runs a fixed
budget of iterations (``--max-iters``, with a stop tolerance no budgeted
iteration reaches), so the work per solve does not depend on where the
default stop rule happens to fire. The outputs of every solve are
checked; a failed check, a non-zero exit or a solve that exceeds the
harness's own timeout counts as a failed solve.

On a shared virtual machine the CPU's speed can change by 1.8x from one
moment to the next, whatever this process does (measured on a 2-vCPU
Xeon VM; see README.md). So the harness pins itself to one CPU and,
while a solve runs, samples how long a fixed calibration kernel takes
(``HostSpeed``). End-to-end times are reported in full-speed seconds:
wall time, less the sampling itself, divided by the measured slowdown.
Wall times stay in the full result.

``--trace 0`` reports the end-to-end metrics (medians over the run's
solves). ``--trace 1`` alternates untraced and traced solves of the same
dataset and reports the per-layer metrics. The tracer wraps the public
names that each layer exposes in its module namespace; spans are kept in
memory as (id, name, start, end, parent, thread) and written out when
the run ends. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment and the inputs, goes to ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SOLVE_TIMEOUT_S = 60.0
INPUTS_TIMEOUT_S = 150.0
# No budgeted iteration changes the objective by less than this, so every
# solve runs exactly ``Workload.iters`` iterations.
STOP_TOL = "1e-9"
GEODESIC_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    scenario: dict
    mode: str
    iters: int
    datasets: int


WORKLOADS = {
    "sphere50-ref": Workload({"topology": "sphere", "n": 50},
                             "reference", iters=20, datasets=16),
    "sphere50-dist": Workload({"topology": "sphere", "n": 50},
                              "distributed", iters=20, datasets=12),
    "sphere800-ref": Workload({"topology": "sphere", "n": 800},
                              "reference", iters=5, datasets=3),
    "ring200-ref": Workload({"topology": "circle", "n": 200,
                             "circle_neighbors": 1, "radius": 30.0},
                            "reference", iters=60, datasets=12),
}


def smoke_workload(wl: Workload) -> Workload:
    """The same code path on an 8-pose graph, for the smoke test."""
    return replace(wl, scenario={**wl.scenario, "n": 8}, iters=3, datasets=2)


END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "iterate_s": "s",
    "iter_ms": "ms",
    "final_geodesic": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "so3.log_map_us": "us",
    "so3.exp_map_us": "us",
    "so3.rotation_angle_us": "us",
    "so3.renormalize_us": "us",
    "so3.log_map_calls": "count",
    "solver.iterations": "count",
    "solver.controls_s": "s",
    "solver.controls_calls": "count",
    "solver.objective_s": "s",
    "solver.objective_calls": "count",
    "solver.integrate_s": "s",
    "solver.integrate_calls": "count",
    "solver.control_norm_s": "s",
    "solver.control_norm_calls": "count",
    "solver.self_s": "s",
    "solver.iter_ms_p50": "ms",
    "solver.iter_ms_p90": "ms",
    "graph.build_s": "s",
    "io.load_s": "s",
    "io.write_s": "s",
    "consistency.report_s": "s",
    "consistency.enforce_s": "s",
    "synth.init_s": "s",
    "runtime.threads": "count",
    "runtime.messages": "count",
    "runtime.round_ms_p50": "ms",
    "runtime.compute_s": "s",
    "runtime.collect_s": "s",
    "runtime.monitor_s": "s",
    "runtime.barrier_wait_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
    "host.slowdown": "ratio",
    "accuracy.rot_err_max_rad": "rad",
    "accuracy.trans_err_max_m": "m",
}


# One ``geopgo solve`` in a process of its own, which then writes its
# peak resident set size (KiB) to a file: argv is src, that file, the
# solve's arguments.
PEAK_RSS_CHILD = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
from geopgo.cli import main
rc = main(sys.argv[3:])
with open(sys.argv[2], "w") as fh:
    fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
sys.exit(rc)
"""


class SolveTimeout(Exception):
    """A solve ran past the harness's per-solve wall-clock limit.

    Not a subclass of the errors ``geopgo.cli.main`` turns into exit
    code 1, so it reaches the harness.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise SolveTimeout(f"solve exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``owner.name = value`` for each triple."""
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in replacements]
    for owner, name, value in replacements:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class HostSpeed:
    """How fast this CPU runs right now, sampled during a solve.

    Every ``PERIOD_S`` of process CPU time a SIGPROF handler runs a fixed
    kernel of small numpy work much like the program's (none of it from
    geopgo, so no change to the program moves the yardstick) and records
    its start, its wall time and its CPU time on the main thread. The CPU
    time, not the wall time, is the speed sample: in distributed mode the
    handler may wait for the GIL, and that wait is not slowness. A
    sample's speed is ``REFERENCE_S`` over its CPU time, so 1 is the
    host's full speed. Samples fall evenly in time, so the mean speed over
    a span is the share of full-speed work the span got done.
    """

    PERIOD_S = 0.01
    REFERENCE_S = 300e-6
    # A phase with fewer samples than this takes the whole solve's speed.
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(20201001)
        self._mats = [np.linalg.qr(rng.standard_normal((3, 3)))[0]
                      for _ in range(40)]
        self._vecs = list(rng.standard_normal((40, 3)))
        self.samples: list[tuple[float, float, float]] = []

    def kernel(self) -> None:
        acc = np.zeros(3)
        for m, v in zip(self._mats, self._vecs):
            w = m.T @ v
            acc = acc + w * float(np.linalg.norm(w))
        for m in self._mats[:20]:
            c = float(np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0))
            theta = math.acos(c)
            s = theta / (2.0 * math.sin(theta)) * (m - m.T)
            v = np.array([s[2, 1], s[0, 2], s[1, 0]])
            acc = acc + v

    def sample(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        self.kernel()
        self.samples.append((wall, time.perf_counter() - wall,
                             time.thread_time() - cpu))

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def speed(self, samples) -> float:
        return statistics.fmean(self.REFERENCE_S / s[2] for s in samples)

    def full_speed(self, start: float, end: float,
                   whole: float) -> tuple[float, float]:
        """Wall time from ``start`` to ``end``, and that time less the
        sampling in it at full speed. ``whole`` is the solve's speed."""
        inside = [s for s in self.samples if start <= s[0] < end]
        busy = end - start - sum(s[1] for s in inside)
        speed = (self.speed(inside) if len(inside) >= self.MIN_SAMPLES
                 else whole)
        return end - start, busy * speed


class PhaseClock:
    """Entry and exit times of the iterate call (``solve`` or
    ``run_distributed``); the only wrapper an untraced solve carries."""

    def __init__(self) -> None:
        self.enter = math.nan
        self.exit = math.nan

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.enter = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit = time.perf_counter()
        return timed


class Tracer:
    """In-memory spans of one solve, recorded around layer entry points.

    A span is ``(id, name, start, end, parent, thread)``. A span opened
    on a thread with no open span of its own (a runtime worker) takes the
    innermost open span of the main thread as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.log_map_calls: list[None] = []
        self.iterate_log_map_calls = 0
        self.peak_threads = 0
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent_stack = stack or tracer._main_stack
            parent = parent_stack[-1] if parent_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident()))
        return traced

    def count_calls(self, fn):
        calls = self.log_map_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls.append(None)  # list.append is atomic under the GIL
            return fn(*args, **kwargs)
        return counted

    def iterate(self, fn):
        """Counts the log_map calls made inside the iterate call and
        samples live threads on entry."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.peak_threads = max(tracer.peak_threads,
                                      threading.active_count())
            before = len(tracer.log_map_calls)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.iterate_log_map_calls = (
                    len(tracer.log_map_calls) - before)
        return counted

    def monitor(self, fn):
        """Samples live threads where the runtime's barrier action runs."""
        tracer = self

        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            if threading.get_ident() != tracer.main_thread:
                tracer.peak_threads = max(tracer.peak_threads,
                                          threading.active_count())
            return fn(*args, **kwargs)
        return sampled

    def replacements(self, prog, clock: PhaseClock) -> list[tuple]:
        cli, gio, solver, runtime = (prog.cli, prog.io, prog.solver,
                                     prog.runtime)
        worker = runtime.NodeWorker
        w = self.wrap
        return [
            (cli, "solve", w("solver.solve",
                             self.iterate(clock.wrap(cli.solve)))),
            (cli, "run_distributed", w("runtime.run", self.iterate(
                clock.wrap(cli.run_distributed)))),
            (gio, "load_any", w("io.load", gio.load_any)),
            (gio, "build_graph", w("graph.build", gio.build_graph)),
            (prog.consistency, "build_graph",
             w("graph.build", prog.consistency.build_graph)),
            (cli, "full_report", w("consistency.report", cli.full_report)),
            (cli, "enforce_pairwise_rotations",
             w("consistency.enforce", cli.enforce_pairwise_rotations)),
            (cli, "gps_init", w("synth.init", cli.gps_init)),
            (solver, "step", w("solver.step", solver.step)),
            (solver, "all_controls",
             w("solver.controls", solver.all_controls)),
            (solver, "evaluate_objective",
             w("solver.objective", solver.evaluate_objective)),
            (solver, "integrate_pose",
             w("solver.integrate", solver.integrate_pose)),
            (solver, "max_control_norm",
             w("solver.control_norm", solver.max_control_norm)),
            (runtime, "all_controls",
             w("runtime.controls", runtime.all_controls)),
            (runtime, "evaluate_objective", w("runtime.objective", self.monitor(
                runtime.evaluate_objective))),
            (runtime, "node_controls",
             w("runtime.node_controls", runtime.node_controls)),
            (runtime, "integrate_pose",
             w("runtime.integrate", runtime.integrate_pose)),
            (worker, "collect", w("runtime.collect", worker.collect)),
            (worker, "compute_round", w("runtime.round", worker.compute_round)),
            (prog.so3, "log_map", self.count_calls(prog.so3.log_map)),
        ]


@dataclass
class SolveRecord:
    dataset: int
    traced: bool
    ok: bool = False
    reason: str = ""
    # At full speed (see HostSpeed).
    solve_s: float = math.nan
    setup_s: float = math.nan
    iterate_s: float = math.nan
    # Wall time, the speed sampling included.
    wall_solve_s: float = math.nan
    wall_setup_s: float = math.nan
    wall_iterate_s: float = math.nan
    write_s: float = math.nan
    slowdown: float = math.nan
    speed_samples: int = 0
    iterations: int = 0
    messages: int = 0
    layers: dict = field(default_factory=dict)


@dataclass(eq=False)
class Input:
    """One dataset and what the checks learn about it."""

    path: str
    noise_seed: int
    truth: list | None = None
    graph: object = None
    edges: frozenset = frozenset()
    trajectory: bytes | None = None
    final_geodesic: float = math.nan
    errors: tuple[float, float] = (math.nan, math.nan)


class CheckFailed(Exception):
    pass


class Program:
    """The geopgo modules, imported from the checkout's ``src``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        names = ("cli", "io", "solver", "runtime", "so3", "consistency")
        for name in names:
            setattr(self, name, importlib.import_module(f"geopgo.{name}"))
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"geopgo imported from {origin}, not {SRC}")


class Bench:
    def __init__(self, prog: Program, wl: Workload, manifest: dict,
                 tmp: Path) -> None:
        self.prog = prog
        self.wl = wl
        self.manifest = manifest
        self.tmp = tmp
        self.inputs = [Input(d["path"], d["noise_seed"])
                       for d in manifest["datasets"]]
        self.records: list[SolveRecord] = []
        self.spans: list[dict] = []
        self.speed = HostSpeed()
        self.peak_rss_mb = math.nan
        self.aborted = False
        self._out = itertools.count()

    # -- one solve ---------------------------------------------------------

    def _argv(self, inp: Input, mode: str, out_dir: Path, iters: int) -> list:
        argv = ["solve", "--dataset", inp.path, "--init", "gps",
                "--seed", str(inp.noise_seed), "--mode", mode,
                "--out-dir", str(out_dir), "--max-iters", str(iters),
                "--stop-tol", STOP_TOL]
        if mode == "distributed":
            # The CLI writes the log before it creates --out-dir.
            out_dir.mkdir(parents=True)
            argv += ["--message-log", str(out_dir / "messages.jsonl")]
        return argv

    def _call(self, argv: list, rec: SolveRecord, tracer: Tracer | None,
              timed: bool = True):
        cli = self.prog.cli
        speed = self.speed
        clock = PhaseClock()
        if tracer is None:
            reps = [(cli, "solve", clock.wrap(cli.solve)),
                    (cli, "run_distributed", clock.wrap(cli.run_distributed))]
        else:
            reps = tracer.replacements(self.prog, clock)
        try:
            with patched(reps), deadline(SOLVE_TIMEOUT_S), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    (speed.sampling() if timed else contextlib.nullcontext()):
                start = time.perf_counter()
                rc = cli.main(argv)
                end = time.perf_counter()
        except SolveTimeout as exc:
            # Runtime threads of the abandoned solve may still be running.
            self.aborted = True
            raise CheckFailed(str(exc)) from None
        except Exception as exc:  # noqa: BLE001 - a crash is a failed solve
            raise CheckFailed(f"raised {type(exc).__name__}: {exc}") from None
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        if not timed:
            return
        if not speed.samples:  # a solve shorter than one sampling period
            for _ in range(HostSpeed.MIN_SAMPLES):
                speed.sample()
        rec.speed_samples = len(speed.samples)
        whole = speed.speed(speed.samples)
        rec.slowdown = 1.0 / whole
        rec.wall_solve_s, rec.solve_s = speed.full_speed(start, end, whole)
        rec.wall_setup_s, rec.setup_s = speed.full_speed(
            start, clock.enter, whole)
        rec.wall_iterate_s, rec.iterate_s = speed.full_speed(
            clock.enter, clock.exit, whole)
        rec.write_s = end - clock.exit

    def solve(self, k: int, traced: bool = False) -> SolveRecord:
        rec = SolveRecord(dataset=k, traced=traced)
        inp = self.inputs[k]
        out_dir = self.tmp / f"out{next(self._out)}"
        tracer = Tracer() if traced else None
        try:
            self._call(self._argv(inp, self.wl.mode, out_dir, self.wl.iters),
                       rec, tracer)
            self._check(k, out_dir, rec)
            rec.ok = True
        except CheckFailed as exc:
            rec.reason = str(exc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec.reason = f"unreadable output: {type(exc).__name__}: {exc}"
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None and rec.ok:
            rec.layers = layer_values(tracer, rec)
            solve_id = len(self.records)
            self.spans.extend(
                {"solve": solve_id, "id": s[0], "name": s[1], "start": s[2],
                 "end": s[3], "parent": s[4], "thread": s[5]}
                for s in tracer.spans)
        self.records.append(rec)
        return rec

    def warm_up(self) -> None:
        """One short solve, so that lazy imports and first-call costs
        are paid before timing."""
        inp = self.inputs[0]
        rec = SolveRecord(dataset=0, traced=False)
        out_dir = self.tmp / "warmup"
        try:
            self._call(self._argv(inp, self.wl.mode, out_dir, 1), rec, None,
                       timed=False)
        except CheckFailed as exc:
            raise RuntimeError(f"warm-up solve failed: {exc}") from None

    def prepare(self) -> None:
        """Before timing: the peak memory of one solve in a process of
        its own, and in distributed mode the reference-mode trajectory of
        every input, which each solve is checked against."""
        if self.wl.mode == "distributed":
            for k, inp in enumerate(self.inputs):
                try:
                    inp.trajectory = self._reference_trajectory(inp, k)
                except CheckFailed as exc:
                    raise RuntimeError(str(exc)) from None
        self.peak_rss_mb = self._child_peak_rss_mb()

    def _child_peak_rss_mb(self) -> float:
        out_dir = self.tmp / "child"
        rss_file = self.tmp / "child_rss"
        argv = self._argv(self.inputs[0], self.wl.mode, out_dir,
                          self.wl.iters)
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CHILD, str(SRC), str(rss_file),
             *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=SOLVE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"solve in a child process exited "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return int(rss_file.read_text()) / 1024.0

    # -- output checks -----------------------------------------------------

    def _load(self, inp: Input) -> None:
        if inp.graph is not None:
            return
        ds = self.prog.io.load_any(inp.path)
        inp.truth = ds.vertices
        inp.graph = self.prog.consistency.enforce_pairwise_rotations(ds.graph)
        inp.edges = frozenset((m.src, m.dst) for m in inp.graph.measurements)

    def _reference_trajectory(self, inp: Input, k: int) -> bytes:
        """Trajectory of an untimed reference-mode solve of the same input."""
        out_dir = self.tmp / f"reference{k}"
        rec = SolveRecord(dataset=k, traced=False)
        try:
            self._call(self._argv(inp, "reference", out_dir, self.wl.iters),
                       rec, None, timed=False)
        except CheckFailed as exc:
            raise CheckFailed(f"reference solve failed: {exc}") from None
        return (out_dir / "trajectory.csv").read_bytes()

    def _check(self, k: int, out_dir: Path, rec: SolveRecord) -> None:
        solver = self.prog.solver
        inp = self.inputs[k]
        self._load(inp)
        summary = json.loads((out_dir / "summary.json").read_text())
        rec.iterations = summary["iterations"]
        if summary["converged"] or rec.iterations != self.wl.iters:
            raise CheckFailed(
                f"stopped after {rec.iterations} of {self.wl.iters} "
                "budgeted iterations")
        final = summary["final"]["geodesic"]
        # Only the first two columns: distributed runs leave the
        # control-norm column empty (NaN).
        first_row = (out_dir / "objective.csv").read_text().splitlines()[1]
        initial = float(first_row.split(",")[1])
        if not (math.isfinite(final) and final < initial):
            raise CheckFailed(
                f"objective went from {initial!r} to {final!r}")

        traj = (out_dir / "trajectory.csv").read_bytes()
        estimates = self.prog.io.parse_trajectory_csv(traj.decode())
        recomputed = solver.evaluate_objective(estimates, inp.graph).geodesic
        if not math.isclose(recomputed, final, rel_tol=GEODESIC_RTOL):
            raise CheckFailed(
                f"summary geodesic {final!r} but the written trajectory "
                f"evaluates to {recomputed!r}")

        if self.wl.mode == "distributed":
            if inp.trajectory is None:
                inp.trajectory = self._reference_trajectory(inp, k)
            if traj != inp.trajectory:
                raise CheckFailed("distributed trajectory.csv differs from "
                                  "the reference-mode one")
            rec.messages = self._check_messages(inp, out_dir)
        elif inp.trajectory is None:
            inp.trajectory = traj
        elif traj != inp.trajectory:
            raise CheckFailed("trajectory.csv differs between two solves "
                              "of the same input")

        if math.isnan(inp.final_geodesic):
            inp.final_geodesic = final
            aligned = solver.align_gauge(estimates, inp.truth)
            inp.errors = solver.pose_errors(aligned, inp.truth)

    def _check_messages(self, inp: Input, out_dir: Path) -> int:
        rows = 0
        with open(out_dir / "messages.jsonl") as fh:
            for line in fh:
                row = json.loads(line)
                if (row["sender"], row["receiver"]) not in inp.edges:
                    raise CheckFailed(
                        f"message {row} does not cross a graph edge")
                rows += 1
        if rows == 0:
            raise CheckFailed("empty message log")
        return rows

    # -- measurement loops -------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> None:
        """Solve the inputs round-robin until ``seconds`` would be
        exceeded by one more step. A traced run makes each step an
        untraced and a traced solve of the same input."""
        start = time.perf_counter()
        steps: list[float] = []
        for i in itertools.count():
            k = i % len(self.inputs)
            t = time.perf_counter()
            self.solve(k)
            if traced and not self.aborted:
                self.solve(k, traced=True)
            steps.append(time.perf_counter() - t)
            if self.aborted:
                break
            if time.perf_counter() - start + max(steps) > seconds:
                break


# -- metrics -------------------------------------------------------------


def _busy(spans, name: str) -> float:
    return sum(s[3] - s[2] for s in spans if s[1] == name)


def _calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_values(tracer: Tracer, rec: SolveRecord) -> dict:
    """Per-layer numbers of one traced solve."""
    spans = tracer.spans
    v: dict[str, float] = {}
    kernels = 0.0
    for layer, name in (("controls", "solver.controls"),
                        ("objective", "solver.objective"),
                        ("integrate", "solver.integrate"),
                        ("control_norm", "solver.control_norm")):
        busy = _busy(spans, name)
        kernels += busy
        v[f"solver.{layer}_s"] = busy
        v[f"solver.{layer}_calls"] = _calls(spans, name)
    solve_span = _busy(spans, "solver.solve")
    v["solver.self_s"] = solve_span - kernels if solve_span else 0.0
    steps = [1e3 * (s[3] - s[2]) for s in spans if s[1] == "solver.step"]
    v["solver.iter_ms_p50"] = _percentile(steps, 50) if steps else 0.0
    v["solver.iter_ms_p90"] = _percentile(steps, 90) if steps else 0.0
    v["solver.iterations"] = rec.iterations
    v["so3.log_map_calls"] = tracer.iterate_log_map_calls

    for metric, name in (("graph.build_s", "graph.build"),
                         ("io.load_s", "io.load"),
                         ("consistency.report_s", "consistency.report"),
                         ("consistency.enforce_s", "consistency.enforce"),
                         ("synth.init_s", "synth.init")):
        v[metric] = _busy(spans, name)
    # Spans are wall times, so the split uses the solve's wall times.
    v["io.write_s"] = rec.write_s
    v["cli.self_s"] = rec.wall_solve_s - (
        v["io.load_s"] + v["consistency.report_s"] + v["synth.init_s"]
        + v["consistency.enforce_s"] + rec.wall_iterate_s + rec.write_s)

    main = tracer.main_thread
    monitor = sorted(s[2] for s in spans
                     if s[1] == "runtime.objective" and s[5] != main)
    rounds = [1e3 * (b - a) for a, b in zip(monitor, monitor[1:])]
    v["runtime.threads"] = tracer.peak_threads
    v["runtime.messages"] = rec.messages
    v["runtime.round_ms_p50"] = statistics.median(rounds) if rounds else 0.0
    v["runtime.compute_s"] = (_busy(spans, "runtime.node_controls")
                              + _busy(spans, "runtime.integrate"))
    v["runtime.collect_s"] = _busy(spans, "runtime.collect")
    v["runtime.monitor_s"] = sum(s[3] - s[2] for s in spans
                                 if s[1] == "runtime.objective"
                                 and s[5] != main)
    by_worker = defaultdict(list)
    for s in spans:
        if s[1] == "runtime.round":
            by_worker[s[5]].append((s[2], s[3]))
    wait = 0.0
    for rounds_of_worker in by_worker.values():
        rounds_of_worker.sort()
        wait += sum(nxt[0] - cur[1] for cur, nxt
                    in zip(rounds_of_worker, rounds_of_worker[1:]))
    v["runtime.barrier_wait_s"] = wait
    return v


def so3_microbench(so3) -> dict:
    """Microseconds per call of the so3 primitives on fixed inputs."""
    rng = np.random.default_rng(20201001)
    tangents = rng.standard_normal((256, 3)) * 0.6
    rotations = [so3.exp_map(v) for v in tangents]
    steps = [so3.exp_map(0.05 * v) for v in rng.standard_normal((256, 3))]
    drifted = [r @ s for r, s in zip(rotations, steps)]
    cases = {"log_map": (so3.log_map, rotations),
             "exp_map": (so3.exp_map, tangents),
             "rotation_angle": (so3.rotation_angle, rotations),
             "renormalize": (so3.renormalize, drifted)}
    out = {}
    for name, (fn, inputs) in cases.items():
        per_call = []
        for _ in range(7):
            start = time.perf_counter()
            for x in inputs:
                fn(x)
            per_call.append((time.perf_counter() - start) / len(inputs))
        out[f"so3.{name}_us"] = 1e6 * statistics.median(per_call)
    return out


def end_to_end(bench: Bench) -> dict:
    ok = [r for r in bench.records if r.ok and not r.traced]
    seen = [inp for inp in bench.inputs if not math.isnan(inp.final_geodesic)]
    return {
        "solve_s": statistics.median(r.solve_s for r in ok),
        "setup_s": statistics.median(r.setup_s for r in ok),
        "iterate_s": statistics.median(r.iterate_s for r in ok),
        "iter_ms": statistics.median(1e3 * r.iterate_s / r.iterations
                                     for r in ok),
        "final_geodesic": statistics.median(i.final_geodesic for i in seen),
        "peak_rss_mb": bench.peak_rss_mb,
    }


def per_layer(bench: Bench) -> dict:
    traced = [r for r in bench.records if r.ok and r.traced]
    out = {name: statistics.median(r.layers[name] for r in traced)
           for name in traced[0].layers}
    # Each traced solve follows an untraced solve of the same input.
    pairs = [(a, b) for a, b in zip(bench.records, bench.records[1:])
             if b.traced and a.ok and b.ok and not a.traced]
    out["trace_overhead"] = statistics.median(
        b.solve_s / a.solve_s for a, b in pairs) - 1.0
    out["host.slowdown"] = statistics.median(
        r.slowdown for r in bench.records if r.ok)
    out.update(so3_microbench(bench.prog.so3))
    seen = [inp for inp in bench.inputs if not math.isnan(inp.final_geodesic)]
    out["accuracy.rot_err_max_rad"] = statistics.median(
        i.errors[1] for i in seen)
    out["accuracy.trans_err_max_m"] = statistics.median(
        i.errors[0] for i in seen)
    return out


# -- environment and driver ----------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> int | None:
    """Run this process, and the program's threads, on one CPU.

    The runtime's workers hand the GIL to each other once per message;
    across two CPUs each hand-off waits for the other CPU to wake, which
    measures the host's scheduler rather than the program.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment(pinned_cpu: int | None) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "geopgo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu": _cpu_model(),
    }


def make_inputs(wl: Workload, seed: int, out: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "make_inputs.py"),
           "--scenario", json.dumps(wl.scenario), "--seed", str(seed),
           "--count", str(wl.datasets), "--out", str(out)]
    subprocess.run(cmd, check=True, timeout=INPUTS_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return json.loads((out / "manifest.json").read_text())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, wl: Workload, manifest: dict, env: dict,
           bench: Bench, metrics: dict, units: dict, traced: bool) -> None:
    ok = [r for r in bench.records if r.ok and r.traced == traced]
    print(f"workload {name}: {wl.mode} mode, {wl.iters} iterations per "
          f"solve, seed {manifest['seed']}")
    deg = manifest["degree"]
    print(f"  input: n={manifest['n']}, directed edges="
          f"{manifest['directed_edges']}, degree min/mean/max "
          f"{deg['min']}/{deg['mean']:.2f}/{deg['max']}, "
          f"{len(bench.inputs)} noise seeds")
    print(f"  env: {env['cpu']}, nproc {env['nproc']}, python "
          f"{env['python']}, numpy {env['numpy']}, git {env['git_sha']}")
    failed = sum(1 for r in bench.records if not r.ok)
    print(f"  fail_rate {failed}/{len(bench.records)} = "
          f"{failed / len(bench.records):.3g}")
    for r in bench.records:
        if not r.ok:
            print(f"  failed solve of dataset {r.dataset}: {r.reason}")
    if ok:
        wall = statistics.median(r.wall_solve_s for r in ok)
        slow = statistics.median(r.slowdown for r in ok)
        print(f"  host: pinned to CPU {env['pinned_cpu']}, median slowdown "
              f"{slow:.3f}, median wall solve {wall:.4g} s")
    kind = "per-layer, traced" if traced else "end-to-end, untraced"
    print(f"  {kind} metrics (medians over {len(ok)} solves; times at "
          "full speed):")
    for metric, value in metrics.items():
        print(f"    {metric:28s} {_fmt(value):>12s} {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="geopgo benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's code path on an 8-pose graph")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "geopgo" / "__init__.py").is_file():
        print(f"error: no geopgo sources under {SRC}", file=sys.stderr)
        return 2
    try:
        prog = Program()
    except ImportError as exc:
        print(f"error: cannot import geopgo: {exc}", file=sys.stderr)
        return 2

    pinned_cpu = pin_to_one_cpu()
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke_workload(wl)
    traced = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        try:
            manifest = make_inputs(wl, args.seed, tmp / "inputs")
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"error: input generation failed: {exc}", file=sys.stderr)
            return 1
        bench = Bench(prog, wl, manifest, tmp)
        try:
            bench.warm_up()
            bench.prepare()
        except (RuntimeError, OSError, ValueError,
                subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        bench.measure(args.seconds, traced)

    solves = [r for r in bench.records if not r.traced]
    failed = sum(1 for r in bench.records if not r.ok)
    if not any(r.ok for r in solves) or (
            traced and not any(r.ok for r in bench.records if r.traced)):
        for r in bench.records:
            print(f"error: dataset {r.dataset}: {r.reason}", file=sys.stderr)
        return 1
    metrics = per_layer(bench) if traced else end_to_end(bench)
    units = PER_LAYER if traced else END_TO_END
    env = environment(pinned_cpu)
    report(args.workload, wl, manifest, env, bench, metrics, units, traced)

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "smoke": args.smoke,
        "seconds": args.seconds, "environment": env,
        "inputs": {k: v for k, v in manifest.items() if k != "datasets"},
        "iterations_per_solve": wl.iters,
        "solves": [asdict(r) for r in bench.records],
        "metrics": metrics,
    }, indent=1) + "\n")
    if traced:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for span in bench.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
