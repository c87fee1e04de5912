#!/usr/bin/env python3
"""Pipeline benchmark: ``synth -> fit -> generate -> metrics`` as CLI processes.

Run from the repository root::

    python3 benchmarks/run.py --workload simo-street-canyon --seed 1 --seconds 20 --trace 0

Each stage runs as its own ``python3 -m chansbgm.cli --threads 1`` process
with ``src`` on ``PYTHONPATH``, the way the README's pipeline runs it. The
set-up runs ``synth`` several times; then ``round(--seconds / round_s)``
whole rounds (at least one) of the workload's remaining stages run, where
``round_s`` is the workload's nominal round length. ``--seconds`` thus
sets the round count, never read from the clock, and does not bound the
wall time. Round 0's outputs are checked against the benchmark's own
computations (``checks.py``); later rounds must write the same bytes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one untraced round is followed
by one traced round (``traced_stage.py``) and the object carries the
per-layer metrics. Spans of the traced round are written to
``benchmarks/_runs/trace-<workload>-seed<seed>.json``. The exit code is 0
only when every stage and every check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"
STAGE_TIMEOUT_S = 150.0
MB = 1e6

_STAGE_ENV = dict(os.environ)
_STAGE_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
)
# the checks' own numpy runs on one thread too, like the stages
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy starts its thread pools on import)
from workloads import WORKLOADS  # noqa: E402


class StageFailed(Exception):
    pass


@dataclass
class StageRun:
    kind: str
    seconds: float
    peak_rss_mb: float


@dataclass
class Ledger:
    """Operations attempted and failed: stage invocations and output checks."""

    attempted: int = 0
    failed: int = 0
    rss: dict[str, float] = field(default_factory=dict)  # stage kind -> peak MB

    def note_rss(self, run: StageRun) -> None:
        self.rss[run.kind] = max(self.rss.get(run.kind, 0.0), run.peak_rss_mb)


def run_stage(kind: str, args: list[str], out: Path, log: Path, spans: Path | None) -> StageRun:
    """Run one CLI stage; wall time includes interpreter start and import."""
    cli_args = ["--threads", "1", kind, *args, "--out", str(out)]
    spawn = time.time()
    if spans is None:
        command = [sys.executable, "-m", "chansbgm.cli", *cli_args]
    else:
        command = [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(spans),
                   repr(spawn), *cli_args]
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=_STAGE_ENV, stdout=sink,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end and reap the stage, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise StageFailed(f"{' '.join(command)} exited {proc.returncode}:\n{tail}")
    return StageRun(kind, seconds, usage.ru_maxrss * 1024 / MB)


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Pipeline:
    """Runs a workload's stages and checks inside one work directory."""

    def __init__(self, workload, work: Path, ledger: Ledger):
        self.workload = workload
        self.work = work
        self.ledger = ledger
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.n_logs = 0

    def _fill(self, args: list[str], data: Path, round_dir: Path) -> list[str]:
        return [a.format(data=data, config=self.work / "config", round=round_dir) for a in args]

    def stage(self, kind: str, args: list[str], out: Path, spans: Path | None = None) -> StageRun:
        self.ledger.attempted += 1
        self.n_logs += 1
        try:
            run = run_stage(kind, args, out, self.logs / f"{self.n_logs:04d}-{kind}.log", spans)
        except StageFailed:
            self.ledger.failed += 1
            raise
        self.ledger.note_rss(run)
        return run

    def check(self, name: str, func, *args) -> None:
        self.ledger.attempted += 1
        try:
            func(*args)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.ledger.failed += 1
            raise StageFailed(f"check {name} failed: {exc}") from exc

    def repeated(self, kind: str, args: list[str], out: Path, reps: int) -> float:
        """Median wall time of ``reps`` runs; each rerun must match the first."""
        times = []
        for rep in range(reps):
            target = out if rep == 0 else out.with_name(f"{out.name}.rep{rep}")
            times.append(self.stage(kind, args, target).seconds)
            if rep:
                self.check(f"rerun-identical:{out.name}", checks.check_identical_trees,
                           out, target)
                shutil.rmtree(target)
        return statistics.median(times)

    def setup(self, data: Path) -> float:
        wl = self.workload
        args = self._fill(wl.synth_args, data, data)
        return self.repeated("synth", args, data, wl.synth_reps)

    def round(self, data: Path, round_dir: Path, expected: dict | None = None) -> dict:
        """One round of the non-synth stages, then every output check, or,
        given the digests of an earlier round, a byte comparison with it."""
        totals = {"fit": 0.0, "generate": 0.0, "metrics": 0.0}
        samples = 0
        for step in self.workload.steps:
            args = self._fill(step.args, data, round_dir)
            totals[step.kind] += self.repeated(step.kind, args, round_dir / step.out, step.reps)
            samples += step.samples
        if expected is None:
            for name, func in self.workload.checks.items():
                self.check(name, func, data, round_dir)
        else:
            self.check("round-identical", checks.check_digests, expected, round_dir)
        return {
            "fit_s": totals["fit"],
            "generate_samples_per_s": samples / totals["generate"],
            "metrics_s": totals["metrics"],
            "stages_s": sum(totals.values()),
        }

    def traced_round(self, data: Path, round_dir: Path, spans_dir: Path) -> tuple[float, list]:
        """Synth plus one run of every step, each under the tracer."""
        spans_dir.mkdir(parents=True, exist_ok=True)
        stages = [("synth", self._fill(self.workload.synth_args, data, data), data)]
        stages += [(s.kind, self._fill(s.args, data, round_dir), round_dir / s.out)
                   for s in self.workload.steps]
        total = 0.0
        traces = []
        for i, (kind, args, out) in enumerate(stages):
            spans = spans_dir / f"{i:02d}-{kind}.json"
            total += self.stage(kind, args, out, spans).seconds
            traces.append((kind, json.loads(spans.read_text(encoding="utf-8"))["spans"]))
        return total, traces


def layer_metrics(traces: list, rss: dict[str, float], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced stage process."""
    duration: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    imports = []
    em_sys = em_faults = iter_ms = 0.0
    for _, spans in traces:
        imports.append(0.0)  # this stage process's import time
        for span in spans:
            name, seconds = span["name"], span["end"] - span["start"]
            duration[name] = duration.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + span.get("count", 0)
            if name == "cli.import":
                imports[-1] += seconds
            elif name == "em.fit":
                em_sys += span["sys_s"]
                em_faults += span["minor_faults"]
                iter_ms += 1e3 * seconds / max(span["count"], 1)
    def d(name: str) -> float:
        return duration.get(name, 0.0)

    return {
        "cli.import_s": statistics.median(imports),
        **{f"cli.{kind}.peak_rss_mb": rss.get(kind, 0.0)
           for kind in ("synth", "fit", "generate", "metrics")},
        "scenario.covariance_s": d("scenario.covariance"),
        "scenario.covariance_calls": calls.get("scenario.covariance", 0),
        "scenario.draw_s": d("scenario.draw"),
        "scenario.observations_s": d("scenario.observations"),
        "dictionary.build_s": d("dictionary.build"),
        "dictionary.build_calls": calls.get("dictionary.build", 0),
        "dictionary.load_s": d("dictionary.load"),
        "container.write_s": d("container.write"),
        "container.write_mb": counts.get("container.write", 0) / MB,
        "container.read_s": d("container.read"),
        "container.read_mb": counts.get("container.read", 0) / MB,
        "em.fit_s": d("em.fit"),
        "em.iterations": counts.get("em.fit", 0),
        "em.iter_ms": iter_ms,
        "em.e_step_ms": 1e3 * d("em.e_step"),
        "em.loglik_ms": 1e3 * d("em.loglik"),
        "em.m_step_ms": 1e3 * d("em.m_step"),
        "em.sys_s": em_sys,
        "em.minor_faults": em_faults,
        "em.save_s": d("em.save"),
        "em.load_s": d("em.load"),
        "generation.sample_s": d("generation.sample"),
        "generation.limit_s": d("generation.limit"),
        "generation.render_s": d("generation.render"),
        "generation.save_s": d("generation.save"),
        "generation.load_s": d("generation.load"),
        "metrics.profile_s": d("metrics.profile"),
        "metrics.spread_s": d("metrics.spread"),
        "metrics.channel_s": d("metrics.channel"),
        "metrics.w1_s": d("metrics.w1"),
        "trace.overhead_s": overhead_s,
    }


def measure(workload, work: Path, ledger: Ledger, seconds: float, trace: bool,
            trace_path: Path) -> dict[str, float]:
    """Set up, then run whole rounds; a traced run adds one traced round.

    The round count follows from ``seconds`` and the workload's nominal
    round length, never from the clock, so every run attempts the same
    operations. Round 0 gets every output check; later rounds, and the
    traced round, must write the same bytes as round 0.
    """
    pipe = Pipeline(workload, work, ledger)
    data = work / "dataset"
    setup_s = pipe.setup(data)
    first = work / "round0"
    rounds = [pipe.round(data, first)]
    artifact = tree_bytes(data) + tree_bytes(first)
    expected = checks.tree_digests(first)
    n_rounds = 1 if trace else max(1, round(seconds / workload.round_s))
    for i in range(1, n_rounds):
        round_dir = work / f"round{i}"
        rounds.append(pipe.round(data, round_dir, expected))
        shutil.rmtree(round_dir)
    median = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    pipeline_s = setup_s + median["stages_s"]
    if not trace:
        return {
            "setup_s": setup_s,
            "fit_s": median["fit_s"],
            "generate_samples_per_s": median["generate_samples_per_s"],
            "metrics_s": median["metrics_s"],
            "pipeline_s": pipeline_s,
            "peak_rss_mb": max(ledger.rss.values()),
            "artifact_mb": artifact / MB,
        }
    untraced_rss = dict(ledger.rss)
    traced_dir = work / "traced"
    traced_s, traces = pipe.traced_round(traced_dir / "dataset", traced_dir / "round0",
                                         work / "spans")
    pipe.check("trace-identical:dataset", checks.check_identical_trees,
               data, traced_dir / "dataset")
    pipe.check("trace-identical:round", checks.check_digests,
               expected, traced_dir / "round0")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps([{"stage": k, "spans": s} for k, s in traces]),
                          encoding="utf-8")
    return layer_metrics(traces, untraced_rss, traced_s - pipeline_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chansbgm" / "cli.py").is_file():
        print(f"error: no chansbgm sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    correct = True
    try:
        workload = WORKLOADS[args.workload](args.seed, work / "config")
        values = measure(workload, work, ledger, args.seconds, bool(args.trace),
                         RUNS / f"trace-{args.workload}-seed{args.seed}.json")
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct = False
        values = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if correct and set(values) != {m["name"] for m in declared}:
        raise AssertionError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
