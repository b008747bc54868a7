"""chl benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from anywhere inside a checkout: the program is taken from ``src/`` next
to this directory, never from an installed copy.  Every repetition is a fresh
interpreter (``child.py``), so each one pays interpreter start, ``import chl``
and argument resolution as a user does.  A run first makes the inputs from
the seed and runs one repetition whose artifacts become the reference, then
repeats the workload for ``--seconds`` seconds and reports medians.  Every
repetition's output is checked; a failed check, a non-zero exit or artifacts
that differ byte for byte from the reference count as a failed attempt.

``--trace 0`` reports the end-to-end metrics (untraced, MC at 2 workers).
``--trace 1`` runs the layer probes, then alternates traced and untraced
repetitions with MC at 1 worker, so the wrappers see every replica and the
two kinds differ only by the tracing; it reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Workers the MC pool may use untraced; the benchmark machine has 2 cores.
THREADS = 2
# A repetition that runs longer than this is killed and counts as failed.
REP_TIMEOUT_S = 60.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal problem sizes, for selftest.py")
    args = parser.parse_args(argv)
    if not (SRC / "chl" / "__init__.py").is_file():
        print(f"benchmark: no chl sources under {SRC}", file=sys.stderr)
        return 2
    if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
        print("benchmark: perf_counter is not CLOCK_MONOTONIC; set-up time "
              "cannot be measured across processes", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        bench = Bench(workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", work_dir),
                      work_dir)
        result = bench.run_traced(args.seconds) if args.trace else bench.run(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"# {args.workload}: medians over {bench.extra.get('reps', 0)} "
          f"{'traced ' if args.trace else ''}repetitions"
          f"{'; probes run once' if args.trace else ''}")
    for name, m in result["metrics"].items():
        print(f"{args.workload:18s} {name:50s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({"record": run_record(args.seed, args.workload, bench.extra)}))
    print(json.dumps(result))
    return 0


class Bench:
    """Runs one workload's repetitions in child interpreters and collects metrics."""

    def __init__(self, workload, work_dir: Path) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.reps = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, bytes]] = {}
        self.checked: dict[str, list[str]] = {}
        self.extra: dict = {"trace_overhead_frac": None}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    # ------------------------------------------------------------------
    # the two kinds of run

    def run(self, seconds: float) -> dict:
        """Untraced repetitions for ``seconds``; medians of the end-to-end metrics."""
        self.rep(trace=False, threads=THREADS)  # reference artifacts, warm caches
        samples = []
        start = time.perf_counter()
        while True:
            sample = self.rep(trace=False, threads=THREADS)
            if sample is not None:
                samples.append(sample)
            if time.perf_counter() - start >= seconds:
                break
        if not samples:
            return self.result({}, "end_to_end")
        for s in samples:
            s["work_per_s"] = self.workload.work / (s["wall_s"] - s["setup_s"])
        self.extra["reps"] = len(samples)
        for key in ("wall_s", "setup_s", "cpu_s"):
            self.extra[key + "_reps"] = [round(s[key], 6) for s in samples]
        return self.result(_medians(samples), "end_to_end")

    def run_traced(self, seconds: float) -> dict:
        """Probes, then traced and untraced repetitions in turn; per-layer metrics."""
        start = time.perf_counter()
        probes = self.probes()
        traced, plain = [], []
        while True:
            for trace, into in ((True, traced), (False, plain)):
                sample = self.rep(trace=trace, threads=1)
                if sample is not None:
                    into.append(sample)
            if time.perf_counter() - start >= seconds:
                break
        if not (probes and traced and plain):
            return self.result({}, "per_layer")
        values = _medians([s["layers"] for s in traced])
        values["trace_overhead_frac"] = (
            values["traced_wall_s"] / statistics.median(s["wall_s"] for s in plain) - 1.0)
        values.update((k, v) for k, v in probes.items() if k != "pool_identical")
        self.extra.update(reps=len(traced), untraced_reps=len(plain),
                          trace_overhead_frac=values["trace_overhead_frac"])
        return self.result(values, "per_layer")

    # ------------------------------------------------------------------
    # one repetition

    def rep(self, trace: bool, threads: int) -> dict | None:
        """Run one repetition; its measurements, or None if it failed."""
        self.reps += 1
        rep_dir = self.work_dir / f"rep{self.reps}"
        out = rep_dir / "out"
        rep_dir.mkdir()
        spec = dict(self.workload.spec(out, threads), trace=trace)
        (rep_dir / "spec.json").write_text(json.dumps(spec))
        status, wall, usage = self.spawn(rep_dir)
        try:
            sample = self.measure(rep_dir, out, status, wall, usage)
            problems = self.check(out, trace)
        except (OSError, ValueError, KeyError) as exc:
            sample, problems = None, [f"unreadable output: {exc!r}"]
        if status != 0:
            problems.insert(0, f"exit code {status}")
        shutil.rmtree(rep_dir, ignore_errors=True)
        if problems:
            self.problems.append(f"repetition {self.reps}: " + "; ".join(problems[:5]))
            return None
        return sample

    def spawn(self, rep_dir: Path) -> tuple[int, float, os.struct_rusage | None]:
        """Start child.py, wait for it; exit code, wall seconds and resource usage."""
        with open(rep_dir / "child.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(rep_dir / "spec.json"),
                 repr(t0)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=rep_dir,
                start_new_session=True)
            watchdog = threading.Timer(REP_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                # wait4 reports the child's usage together with the pool
                # workers it reaped: summed CPU time, the largest RSS
                _, raw, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(raw)
        if proc.returncode != 0:
            tail = (rep_dir / "child.log").read_text(errors="replace")[-2000:]
            print(tail, file=sys.stderr)
        return proc.returncode, wall, usage

    def measure(self, rep_dir, out, status, wall, usage) -> dict:
        marks = json.loads((rep_dir / "timing.json").read_text())
        setup = marks["setup_end"] - marks["spawn"]
        if not 0.0 < setup < wall:
            raise ValueError(f"set-up {setup} outside the repetition's {wall} s")
        sample = {
            "wall_s": wall,
            "setup_s": setup,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        }
        trace_file = rep_dir / "trace.json"
        if trace_file.exists():
            sample["layers"] = self.layers(json.loads(trace_file.read_text()), sample, marks, out)
        return sample

    @staticmethod
    def layers(trace: dict, sample: dict, marks: dict, out: Path) -> dict:
        """Per-layer metric values of one traced repetition."""
        import tracer
        from workloads import VERIFY_CHECKS

        sizes = [(f.suffix, f.stat().st_size) for f in out.rglob("*") if f.is_file()]
        layers = tracer.layer_metrics(trace)
        layers.update({
            "cli.import_s": marks["import_end"] - marks["import_start"],
            "cli.artifact_bytes": sum(size for _, size in sizes),
            "render.svg_bytes": sum(size for suffix, size in sizes if suffix == ".svg"),
            "render.csv_bytes": sum(size for suffix, size in sizes if suffix == ".csv"),
            "traced_wall_s": sample["wall_s"],
            "traced_setup_s": sample["setup_s"],
            "unattributed_s": (sample["wall_s"] - sample["setup_s"]
                               - sum(trace["self_s"].values())),
        })
        for check in VERIFY_CHECKS:
            layers[f"verify.check_s.{check}"] = trace["total_s"].get(f"check.{check}", 0.0)
        return layers

    def check(self, out: Path, trace: bool) -> list[str]:
        """The workload's output check, and byte equality with the first repetition.

        The check is a function of the artifacts, so it runs once per distinct
        set of artifact bytes; reruns that match the first one reuse its result.
        """
        files = {str(f.relative_to(out)): f.read_bytes()
                 for f in sorted(out.rglob("*")) if f.is_file()}
        digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = self.workload.check(out)
        ref = self.reference.setdefault("traced" if trace else "plain", files)
        if sorted(ref) != sorted(files):
            return [f"artifact set {sorted(files)} differs from {sorted(ref)}"]
        return self.checked[digest] + [f"{name} differs from the first repetition"
                                       for name in ref if ref[name] != files[name]]

    def probes(self) -> dict:
        """Kernel, MC-pool and render-scaling probes in one child interpreter."""
        self.reps += 1
        probe_dir = self.work_dir / "probes"
        probe_dir.mkdir()
        tiny = self.workload.tiny
        render_seed = getattr(self.workload, "render_seed", self.workload.seed)
        spec = {
            "kind": "probes",
            "seed": self.workload.seed,
            "kernel_points": 200 if tiny else 2000,
            "pool_replicas": 100 if tiny else 2000,
            "render_seed": render_seed,
            "render_horizons": [0.25, 0.5, 1.0] if tiny else [1.5, 3.0, 6.0],
        }
        (probe_dir / "spec.json").write_text(json.dumps(spec))
        status, _, _ = self.spawn(probe_dir)
        if status != 0:
            self.problems.append(f"probes: exit code {status}")
            return {}
        result = json.loads((probe_dir / "probes.json").read_text())
        if not result["pool_identical"]:
            self.problems.append("probes: MC results differ between 1 and 2 workers")
        return result

    def result(self, values: dict, section: str) -> dict:
        """The result object: every metric BENCHMARK.json names in ``section``."""
        failed = len(self.problems)
        for problem in self.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        self.extra["failed_frac"] = failed / max(self.reps, 1)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec} if values else {}
        return {
            "correct": not self.problems and bool(metrics),
            "attempted": max(self.reps, 1),
            "failed": failed,
            "metrics": metrics,
        }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _medians(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _commit() -> str | None:
    """HEAD of the checkout, if it is the top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def run_record(seed: int, workload: str, extra: dict) -> dict:
    """Where and on what a result was measured."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "chl").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
