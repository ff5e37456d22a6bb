"""Benchmark of the ikcs command line, one workload per run.

    python3 perfbench/run.py --workload deg3_table --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from `src/`.  One
closed-loop client in one process: each instance is one in-process call to
`ikcs.cli.main([...])` with stdout captured, and the next call starts only
when the previous one has returned (`--workers` stays at 1).  Inputs are
generated from the seed and written to files before timing starts.  The run
makes whole passes over the workload's instance set and stops at the first
pass boundary after `--seconds`.  Every answer of every pass is checked by
`check.py`, which does not use `ikcs`.

With `--trace 0` the last stdout line holds the end-to-end metrics:
throughput over the instance set, each call's wall time rescaled to an
uncontended core by the workload's reference kernel timed around it
(`hostspeed.py`) and each instance taken at its median over the passes; the
median rescaled set-up time of fresh interpreters; the peak resident memory
of this process.  With `--trace 1` one pass runs without and then one with boundary
spans (`tracing.py`), and the last line holds the per-layer metrics; the
spans go to `.perfbench-out/`.  The line before the last is a
report: machine, inputs, answer digest, median latency, raw per-call
figures before rescaling (p90 latency where defined), failure share and
per-instance line counts.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT = 60

# Child for setup_s: a fresh interpreter imports the package and finishes
# one small call of the workload, timed from inside the child between two
# readings of the reference kernel, so the parent can rescale the time.
# numpy is imported before the clock starts: its import is a third of the
# cold start, is not the program's work, and swings most with the host.
SETUP_CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[2])
import hostspeed
slow = hostspeed.slowdown("mixed")
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ikcs.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = ikcs.cli.main(sys.argv[3:])
dt = time.perf_counter() - t0
print(code, dt, (slow + hostspeed.slowdown("mixed")) / 2)
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "ikcs" / "__init__.py").is_file():
        fail(f"no ikcs package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ikcs.cli

    if Path(ikcs.cli.__file__).resolve().parent != (SRC / "ikcs").resolve():
        fail(f"imported ikcs from {ikcs.cli.__file__}, not from {SRC}")
    return ikcs.cli


def call(main, argv) -> tuple[int, str, str, float]:
    """One instance: exit code, stdout, error text, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # a crash is a failed instance, not a dead run
        dt = time.perf_counter() - t0
        return -1, "", f"{type(exc).__name__}: {exc}", dt
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def measure_setup(argv: list[str]) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters: as measured, and rescaled."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "0":
            fail(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        dt, slow = float(fields[1]), float(fields[2])
        raw.append(dt)
        scaled.append(dt / slow)
    return raw, scaled


def machine() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


class Runner:
    """Runs instances of one workload and checks each answer."""

    def __init__(self, main, insts, files):
        self.main = main
        self.insts = insts
        self.files = files
        self.answers: dict[int, tuple[str, dict | None]] = {}
        self.failures: list[str] = []

    def argv(self, i: int) -> list[str]:
        return [a.replace("{input}", self.files[i]) for a in self.insts[i].argv]

    def one(self, i: int) -> float:
        inst = self.insts[i]
        code, stdout, err, dt = call(self.main, self.argv(i))
        problems, answer = check.check(inst, code, stdout)
        first = self.answers.setdefault(i, (inst.ident, answer))[1]
        if answer != first:
            problems.append("answer differs from this instance's first pass")
        if problems:
            self.failures.append(f"{inst.ident}: {'; '.join(problems)} {err.strip()[-200:]}")
        return dt

    def digest(self) -> str:
        return check.digest([self.answers[i] for i in range(len(self.insts))])


def timed_passes(
    runner: Runner, seconds: float, kernel: str,
) -> tuple[list[list[float]], list[list[float]], list[float]]:
    """Whole passes over the instance set until the time is up.

    Returns, per instance, its wall time in every pass, and the same times
    rescaled by the readings of the host's slowdown taken with the
    reference kernel before and after each call, and those readings.
    """
    times: list[list[float]] = [[] for _ in runner.insts]
    scaled: list[list[float]] = [[] for _ in runner.insts]
    start = time.perf_counter()
    slow_before = hostspeed.slowdown(kernel)
    readings = [slow_before]
    while True:
        for i in range(len(times)):
            dt = runner.one(i)
            slow_after = hostspeed.slowdown(kernel, covering=dt)
            times[i].append(dt)
            scaled[i].append(dt * 2 / (slow_before + slow_after))
            readings.append(slow_after)
            slow_before = slow_after
        if time.perf_counter() - start >= seconds:
            return times, scaled, readings


def latency_report(times: list[list[float]]) -> dict:
    """Raw per-call figures; p90 only when at least ten samples lie beyond it."""
    flat = [t for samples in times for t in samples]
    rep = {
        "passes": len(times[0]),
        "samples": len(flat),
        "raw_throughput_inst_per_s": len(flat) / sum(flat),
        "raw_latency_p50_s": statistics.median(flat),
        "pass_wall_s": [sum(col) for col in zip(*times)],
    }
    if len(flat) >= 100:
        rep["raw_latency_p90_s"] = statistics.quantiles(flat, n=10)[-1]
    else:
        rep["raw_latency_p90_s"] = None
        rep["raw_latency_p90_omitted"] = f"{len(flat)} samples; p90 needs >= 100"
    return rep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_program()
    wl = workloads.WORKLOADS[args.workload]
    insts = workloads.instances(args.workload, args.seed)

    work = OUT / f"inputs-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = []
        for i, inst in enumerate(insts):
            path = work / f"{i}.txt"
            if inst.edges:
                path.write_text(inst.edge_list_text())
            files.append(str(path))
        warm = work / "warmup.txt"
        warm.write_text(workloads.WARMUP_GRAPH)
        warm_argv = [a.replace("{warmup}", str(warm)) for a in wl.warmup]

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "machine": machine(),
            "instances": len(insts),
            "vertices_range": [min(x.n for x in insts), max(x.n for x in insts)],
        }
        if "lines" in insts[0].props:
            report["deg3_lines_per_instance"] = [x.props["lines"] for x in insts]

        if args.trace == 0:
            setup_raw, setup = measure_setup(warm_argv)
        code, *_ = call(cli.main, warm_argv)
        if code != 0:
            fail(f"warm-up call exited {code}")
        runner = Runner(cli.main, insts, files)
        gc.collect()

        if args.trace == 0:
            times, scaled, readings = timed_passes(runner, args.seconds, wl.host_kernel)
            # An instance's time is its median rescaled time over the passes.
            # On a shared host the same pass can take up to 2x longer for
            # minutes while other tenants are busy, longer than a run, so
            # neither the fastest pass nor the median wall time is steady
            # from run to run; the rescaled times are.
            per_inst = [statistics.median(samples) for samples in scaled]
            metrics = {
                "throughput_inst_per_s": (len(per_inst) / sum(per_inst), "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            # Reported, not a metric: instances differ in size, so the
            # median instance moves with the mix more than with the program.
            report["latency_p50_s"] = statistics.median(per_inst)
            report.update(latency_report(times))
            report["pass_rescaled_s"] = [sum(col) for col in zip(*scaled)]
            report["host_kernel"] = wl.host_kernel
            report["host_slowdown_min_median_max"] = [
                min(readings), statistics.median(readings), max(readings)]
            report["setup_runs_s"] = setup_raw
            report["setup_runs_rescaled_s"] = setup
            attempted = report["samples"]
        else:
            import tracing

            # untraced first, so the traced pass alone carries its spans
            plain = [call(cli.main, runner.argv(i))[3] for i in range(len(insts))]
            gc.collect()
            tr = tracing.Tracer()
            runner.main = tr.wrap("cli.main", cli.main)
            tr.install()
            try:
                traced = []
                for i, inst in enumerate(insts):
                    tr.instance = inst.ident
                    traced.append(runner.one(i))
            finally:
                tr.uninstall()
            metrics = tracing.layer_metrics(tr)
            overhead = len(insts) / sum(traced) - len(insts) / sum(plain)
            metrics["trace.overhead_inst_per_s"] = (overhead, "1/s")
            report["traced_wall_s"] = sum(traced)
            report["untraced_wall_s"] = sum(plain)
            report["spans"] = len(tr.spans)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tr.write(trace_file)
            report["trace_file"] = str(trace_file.relative_to(ROOT))
            attempted = len(insts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    report["attempted"] = attempted
    report["failed_frac"] = failed / attempted
    report["failures"] = runner.failures[:20]
    report["answer_digest"] = runner.digest()
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
