"""Benchmark of the `maform` command line, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a round of `maform` commands (see workloads.py).  A run
writes the inputs from the seed, then repeats the round as fresh CLI
processes, one at a time: at least MIN_ROUNDS rounds, and a further
round while the fastest round so far still fits in S seconds.  In each
round every command is first launched PROBES times as a probe, a process
that stops at the first pipeline call, then once in full; so set-up is
measured PROBES + 1 times per command and round.  Odd rounds run the
commands in reverse order.  Each process is held to one BLAS/OpenMP
thread through its environment.  The outputs of every full invocation
are checked (see checks.py); each full invocation is one attempted
operation.

With --trace 0 the last line of standard output is the result with the
end-to-end metrics, each time scaled to the reference speed (below):
wall_s, the sum over the commands of each command's median full
invocation from launch to exit; setup_s, the sum over the commands of
each command's median launch to first pipeline call; and peak_rss_mb,
the largest over the commands of the median peak resident memory.  With
--trace 1 the full invocations run with the layer functions wrapped (see
child.py), no probes run, and the result holds the per-layer metrics
instead: each layer summed over the commands of a round, then the median
over the rounds (trace.wall_s and trace.setup_s are the statistics of
wall_s and setup_s).  A fixed calibration kernel is timed before and
after the workload and printed, not reported.

The speed of a shared machine drifts by a factor of up to 1.5 in phases
of tens of seconds to minutes, longer than a run.  So the run and its
children are held to one CPU, and while a child runs the parent times a
short fixed loop on that CPU every SPEED_PERIOD_S (about 3 % of the
CPU).  A child's times are multiplied by REFERENCE_LOOP_S over the
median loop time during its life: seconds at the reference speed, the
loop's speed in a fast phase of the reference machine.  The times as
measured are printed for each invocation.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2
PROBES = 1
CHILD_TIMEOUT_S = 170
# the speed loop: steps, period, and its median time at the reference speed
SPEED_STEPS = 20_000
SPEED_PERIOD_S = 0.05
REFERENCE_LOOP_S = 1.2e-3

CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MAFORM_THREADS": "1",
}

# layers whose inclusive seconds are reported as <layer>_s
TIMED_LAYERS = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
# layers whose call counts are reported as <layer>_calls
COUNTED_LAYERS = (
    "symforms.compile",
    "symforms.cancel",
    "symforms.evaluate",
    "moser.velocity",
    "foliation.zfield",
    "deformation.mode_norms",
    "atlas.blowup_forward",
)


def loop_s(steps):
    """Seconds taken by one pass of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(steps):
        acc += i * i
    return time.perf_counter() - start


def calibration_ms(repeats=7):
    """Fastest of several timings of a fixed pure-Python loop."""
    return 1e3 * min(loop_s(300_000) for _ in range(repeats))


def launch(mode, argv, work, tag):
    """Run one child process to its end; returns its measurements.

    While the child runs, the parent, on the same CPU, times a short
    fixed loop every SPEED_PERIOD_S; the median of these timings is the
    machine's speed during the child's life.
    """
    stamp = work / f"{tag}.stamp"
    trace = work / f"{tag}.trace.json"
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(stamp), str(trace), "--", *argv]
    speed = []
    with open(work / f"{tag}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], SPEED_PERIOD_S)[0]:
                    speed.append(loop_s(SPEED_STEPS))
            finally:
                os.close(exited)
            end = time.monotonic()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    if not speed:
        speed.append(loop_s(SPEED_STEPS))
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.exists() else None
    # scales a time of this child to the reference speed
    factor = REFERENCE_LOOP_S / statistics.median(speed)
    return {
        "tag": tag,
        "code": proc.returncode,
        "start": start,
        "end": end,
        "wall_s": end - start,
        "setup_s": setup,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "factor": factor,
        "wall_ref_s": factor * (end - start),
        "setup_ref_s": None if setup is None else factor * setup,
        "out": work / tag,
        "trace": trace,
    }


def covered_s(spans, start, end):
    """Seconds of [start, end] covered by the union of top-level spans."""
    covered, reach = 0.0, start
    for _, parent, a, b in sorted(spans, key=lambda s: s[2]):
        if parent != -1:
            continue
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return covered


def layer_metrics(runs):
    """Per-layer metrics of one round: the traced invocations of its
    commands, summed."""
    seconds, calls, counters = {}, {}, {}
    import_s = covered = traced = 0.0
    for run in runs:
        with open(run["trace"]) as fh:
            trace = json.load(fh)
        for total, part in ((seconds, trace["seconds"]), (calls, trace["calls"]),
                            (counters, trace["counters"])):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
        import_s += trace["import_s"]
        covered += covered_s(trace["spans"], run["start"] + run["setup_s"], run["end"])
        traced += run["wall_s"] - run["setup_s"]
    out = {f"{name}_s": seconds.get(name, 0.0) for name in TIMED_LAYERS}
    out.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED_LAYERS})
    steps = counters.get("moser.rk4_steps", 0)
    flow_s = seconds.get("moser.moser_flow", 0.0) + seconds.get("moser.horizontal_lift", 0.0)
    out["moser.rk4_steps"] = steps
    out["moser.rk4_step_ms"] = 1e3 * flow_s / steps if steps else 0.0
    out["gridforms.bytes_written"] = counters.get("gridforms.bytes_written", 0)
    out["cli.import_s"] = import_s
    out["trace.span_coverage"] = covered / traced
    return out


UNITS = {"peak_rss_mb": "MB", "_s": "s", "_ms": "ms", "_calls": "count",
         "_steps": "count", "bytes_written": "bytes", "coverage": "fraction",
         "factor": "ratio"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run stops its child too (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "maform" / "cli.py").is_file():
        sys.exit(f"error: no maform sources under {ROOT / 'src'}")

    commands = WORKLOADS[args.workload]
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for command in commands:
        for name, text in command.files(args.seed).items():
            (inputs / name).write_text(text)
    mode = "trace" if args.trace else "run"
    probes = 0 if args.trace else PROBES
    # the children inherit the CPU, so the speed loop runs where they do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    before = calibration_ms()
    start = time.monotonic()
    fastest_round = float("inf")
    rounds, setups = [], {c.name: [] for c in commands}
    while (len(rounds) < MIN_ROUNDS
           or time.monotonic() - start + fastest_round <= args.seconds):
        i, round_start, runs = len(rounds), time.monotonic(), {}
        # odd rounds reverse the order, so that a command's invocations lie
        # far apart in the run
        for command in commands if i % 2 == 0 else commands[::-1]:
            argv = command.argv(args.seed, str(inputs))
            for j in range(probes):
                probe = launch("probe", argv, work, f"{command.name}-probe{i}.{j}")
                setups[command.name].append(probe["setup_ref_s"])
            tag = f"{command.name}-{mode}{i}"
            runs[command.name] = launch(mode, argv + ["--out", str(work / tag)], work, tag)
        rounds.append(runs)
        fastest_round = min(fastest_round, time.monotonic() - round_start)
    after = calibration_ms()

    sys.path.insert(0, str(ROOT / "src"))
    import checks

    correct, failed, done = True, 0, {c.name: [] for c in commands}
    for runs in rounds:
        for name, run in runs.items():
            print(f"{run['tag']}: wall {run['wall_s']:.3f} s, setup {run['setup_s']} s, "
                  f"speed factor {run['factor']:.3f}, peak {run['rss_mb']:.1f} MB, "
                  f"exit {run['code']}")
            try:
                errors, op_failed = checks.check_outputs(
                    name, args.seed, str(run["out"]), run["code"]
                )
            except FileNotFoundError as exc:
                log = (work / f"{run['tag']}.log").read_text()
                print(f"{run['tag']} failed: {exc}\n{log[-2000:]}", file=sys.stderr)
                failed += 1
                continue
            for err in errors:
                print(f"{run['tag']} check failed: {err}", file=sys.stderr)
            correct = correct and not errors
            failed += op_failed
            done[name].append(run)
            setups[name].append(run["setup_ref_s"])
    if not all(done.values()):
        sys.exit("error: a command produced its outputs in no invocation")
    if any(None in samples for samples in setups.values()):
        sys.exit("error: a process ended without calling a pipeline entry point")
    print(f"calibration kernel: {before:.3f} ms before, {after:.3f} ms after (informational)")

    # each command's median at the reference speed, summed over the commands
    wall = sum(statistics.median(r["wall_ref_s"] for r in runs) for runs in done.values())
    setup = sum(statistics.median(samples) for samples in setups.values())
    if args.trace:
        per_round = [
            layer_metrics(list(runs.values())) for runs in rounds
            if all(run in done[name] for name, run in runs.items())
        ]
        if not per_round:
            sys.exit("error: no round produced all its outputs")
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        # the statistics of wall_s and setup_s, so that the differences are
        # the tracing overhead
        metrics["trace.wall_s"] = wall
        metrics["trace.setup_s"] = setup
        metrics["trace.speed_factor"] = statistics.median(
            r["factor"] for runs in done.values() for r in runs
        )
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": max(
                statistics.median(r["rss_mb"] for r in runs) for runs in done.values()
            ),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(runs) for runs in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))

if __name__ == "__main__":
    main()
