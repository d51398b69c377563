"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py

Prints markdown: the speed drift of this machine under a fixed CPU
kernel; the check that the mode-0 norm of the perturbed ball equals
tanh(eps) at the classify command's resolution; then per workload the
median and quartile spread of every end-to-end metric over runs with
seeds 1..10 at the run length of BENCHMARK.json, the failed share, the
tracing overhead from back-to-back untraced and traced rounds, and the
layer metrics of one traced round.  Everything runs one process at a
time.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import CHILD_ENV, ROOT, calibration_ms, launch, layer_metrics, unit_of
from workloads import PERTURBED_DOM, WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
PAIRS = 5
DRIFT_S = 60.0


def drift(seconds=DRIFT_S, window_s=2.0):
    """Per-window median and fastest iteration of the calibration kernel."""
    medians, fastest = [], []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        stop = time.monotonic() + window_s
        times = []
        while time.monotonic() < stop:
            times.append(calibration_ms(repeats=1))
        medians.append(statistics.median(times))
        fastest.append(min(times))
    print(f"## Drift of a fixed CPU kernel over {seconds:.0f} s, {window_s:.0f}-s windows\n")
    print(f"- window medians: {min(medians):.2f} to {max(medians):.2f} ms, "
          f"ratio {max(medians) / min(medians):.3f}")
    print(f"- window fastest: {min(fastest):.2f} to {max(fastest):.2f} ms, "
          f"ratio {max(fastest) / min(fastest):.3f}\n")


def bench(workload, seed, seconds):
    """One benchmark run; returns its result, how long it took, and the
    unscaled statistic: the sum over the commands of each one's fastest
    wall time as measured."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    fastest = {}
    for command, wall in re.findall(r"^(\S+)-run\d+: wall ([\d.]+) s", out.stdout, re.M):
        fastest[command] = min(fastest.get(command, float("inf")), float(wall))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, time.monotonic() - start, sum(fastest.values())


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def workload_figures(name, seconds):
    results, lengths, unscaled = zip(*(bench(name, seed, seconds) for seed in SEEDS))
    print(f"## {name}: {len(SEEDS)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}, {seconds} s each\n")
    print("| metric | median | q1 | q3 | IQR / median |")
    print("| --- | --- | --- | --- | --- |")
    for metric, rec in results[0]["metrics"].items():
        med, q1, q3, rel = spread([r["metrics"][metric]["value"] for r in results])
        print(f"| {metric} ({rec['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} | {rel:.3f} |")
    med, q1, q3, rel = spread(unscaled)
    print(f"| fastest wall as measured, not scaled (s; not reported) | {med:.4g} | {q1:.4g} "
          f"| {q3:.4g} | {rel:.3f} |")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"\ncorrect in every run: {correct}; failed {failed} of {attempted} operations; "
          f"a run took {statistics.mean(lengths):.1f} s on average\n")


def tracing_overhead(name):
    """Untraced and traced rounds back to back, alternating which goes
    first; prints the paired wall differences and the layer metrics of
    the last traced round."""
    commands = WORKLOADS[name]
    work = ROOT / ".bench_out" / f"{name}-overhead"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    for command in commands:
        for file_name, text in command.files(1).items():
            (work / "inputs" / file_name).write_text(text)
    diffs = []
    for i in range(PAIRS):
        rounds = {}
        for mode in ("run", "trace") if i % 2 == 0 else ("trace", "run"):
            rounds[mode] = [
                launch(mode, c.argv(1, str(work / "inputs")) + ["--out", str(work / tag)],
                       work, tag)
                for c in commands
                for tag in [f"{c.name}-{mode}{i}"]
            ]
        walls = {mode: sum(r["wall_ref_s"] for r in runs) for mode, runs in rounds.items()}
        diffs.append(walls["trace"] - walls["run"])
    layers = layer_metrics(rounds["trace"])
    print(f"### {name}\n")
    print(f"tracing overhead, traced minus untraced wall_s (at the reference speed) over {PAIRS} back-to-back "
          f"round pairs: median {statistics.median(diffs):+.3f} s "
          f"({statistics.median(diffs) / walls['run']:+.1%}); pairs "
          + ", ".join(f"{d:+.2f}" for d in diffs) + "\n")
    print("| layer metric (last traced round) | value |")
    print("| --- | --- |")
    for metric, value in layers.items():
        if value:
            print(f"| {metric} | {value:.4g} {unit_of(metric)} |")
    print()


def tanh_agreement(eps_values=(0.05, 0.1, 0.2)):
    """Mode-0 norm against tanh(eps) at N_v = 17, 50 RK4 steps."""
    import math
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    import checks

    print("## Mode-0 norm of the perturbed ball against tanh(eps)\n")
    env = dict(os.environ, **CHILD_ENV)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        for eps in eps_values:
            dom = Path(tmp) / "pb.dom"
            dom.write_text(PERTURBED_DOM.replace("eps = 0.05", f"eps = {eps}"))
            subprocess.run(
                [sys.executable, "-m", "maform.cli", "classify", "--domain", str(dom),
                 "--steps", "50", "--out", tmp],
                env=env, cwd=ROOT, check=True, capture_output=True,
            )
            report = checks.Report((Path(tmp) / "classify_report.txt").read_text())
            norm0 = report.numbers("mode norm")[0][1]
            print(f"- eps = {eps}: |norm0 - tanh(eps)| = {abs(norm0 - math.tanh(eps)):.2e}")
    print()


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    # as in run.py: the children inherit the CPU the speed loop runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"machine: nproc={os.cpu_count()}, python {sys.version.split()[0]}\n")
    drift()
    tanh_agreement()
    for name in WORKLOADS:
        workload_figures(name, seconds)
        tracing_overhead(name)


if __name__ == "__main__":
    main()
