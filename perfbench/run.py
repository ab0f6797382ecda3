"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {lifecycle,stream,fire_gate} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run (see README.md). Progress and failures go to standard error. The
program under test is imported from ``src/`` of the same checkout; node
state lives under ``.perfbench_work/`` and traces are written to
``.perfbench_out/``, both in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path


def process_age() -> float:
    """Seconds since this process started, to the kernel's clock tick.

    Falls back to 0 where /proc is unavailable; set-up time then starts
    at interpreter start-up instead of process creation.
    """
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except OSError:
        return 0.0
    start_ticks = int(fields[19])  # field 22 of stat, counted after ")"
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


# set-up time runs from process start to the first timed operation
SETUP_START = time.perf_counter() - process_age()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lifecycle", "stream", "fire_gate")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cingal" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'cingal'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import Outcome
    from fire_gate import FireGate
    from lifecycle import Lifecycle
    from stream import Stream
    from tracing import Tracer, layer_metrics

    # Each workload has setup(), measure(seconds, tracer) -> part,
    # end_to_end(part) -> {metric: value}, close(), a ThreadPeak `peak`
    # and ONE_CPU, which says whether the run is held to one CPU.
    workload_class = {"lifecycle": Lifecycle, "stream": Stream,
                      "fire_gate": FireGate}[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    cpu = None
    if workload_class.ONE_CPU:
        # before any thread starts: threads inherit the creator's CPU set
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    outcome = Outcome()
    workload = workload_class(args.seed, work_dir, outcome)
    try:
        if args.trace:
            tracer = Tracer()
            tracer.window = "setup"
            tracer.install()
            workload.setup()
            tracer.uninstall()
            # The first half runs untraced and the second traced, on the
            # same nodes, so the overhead of tracing is measured in-run.
            base = measure(workload, args.seconds / 2, cpu)
            tracer.install()
            traced = measure(workload, args.seconds / 2, cpu, tracer)
            tracer.uninstall()
            metrics = layer_metrics(workload, tracer, base, traced)
            tracer.write(ROOT / ".perfbench_out"
                         / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            wanted = spec["per_layer"]
        else:
            workload.setup()
            setup_s = time.perf_counter() - SETUP_START
            part = measure(workload, args.seconds, cpu)
            medians = workload.end_to_end(part)
            print(f"{args.workload}: the host took {part['steal_pct']:.2f}% "
                  f"of {'CPU ' + str(cpu) if cpu is not None else 'all CPUs'}"
                  f" during the timed part; medians {medians}",
                  file=sys.stderr)
            if cpu is not None:
                # Every operation of a process held to one CPU is
                # stretched by the share of that CPU's time the hypervisor
                # took from it; scale that share out (see README.md).
                keep = 1.0 - part["steal_pct"] / 100.0
                medians = {k: v * keep for k, v in medians.items()}
            metrics = dict(medians, setup_s=setup_s)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    for message in outcome.errors:
        print(f"WRONG: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


def measure(workload, seconds: float, cpu: int | None,
            tracer=None) -> dict:
    """The workload's timed loop, with the process CPU time it used and
    the share of the time of ``cpu`` (of all CPUs if None) that the
    hypervisor took meanwhile."""
    steal0, cpu0 = cpu_steal(cpu), time.process_time()
    part = workload.measure(seconds, tracer)
    steal1 = cpu_steal(cpu)
    part["cpu"] = time.process_time() - cpu0
    part["steal_pct"] = 100.0 * (steal1[0] - steal0[0]) / max(
        1, steal1[1] - steal0[1])
    return part


def cpu_steal(cpu: int | None) -> tuple[int, int]:
    """(steal, total) clock ticks of one CPU, or of all if None, from
    /proc/stat; (0, 0) where it cannot be read."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] == label:
                    ticks = [int(x) for x in fields[1:9]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError):
        pass
    return 0, 0


if __name__ == "__main__":
    sys.exit(main())
