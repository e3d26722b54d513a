"""ionchain benchmark: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout; ionchain is imported from its ``src/``.
The run pins itself, and so every process it starts, to one CPU.
``setup_s`` is the median time to import ``ionchain.cli`` over several fresh
interpreters, half of them started before the workload and half after it,
each scaled like the repetitions below.
A worker (worker.py) runs timed repetitions in a fresh interpreter for about
``--seconds``, at least one, and times a fixed calibration kernel
(calibrate.py) between them.  ``wall_s`` and ``cpu_s`` are the mean over
the repetitions, each scaled by how much slower than its reference time the
kernel ran around it: the time the repetition would have taken with the
machine at its reference speed.  With ``--trace 1`` an untraced worker and
a traced one get half the time each, and the result holds the per-layer
metrics (medians over the traced repetitions, not scaled) and the tracing
overhead instead of the end-to-end metrics.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the environment.  A repetition that raises or fails an output
check counts as failed, and so does a worker that exits non-zero.
Details of every repetition go to ``.perfbench-work/results/`` and the
spans of the last traced repetition to
``.perfbench-work/spans-<workload>.jsonl.gz``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("leakage_s3", "noise_fig5", "xy_n14")
# fixed for every workload: one BLAS thread keeps wall time steady on a
# shared 2-core machine and leaves cpu_s ~ wall_s as the single-core baseline
BLAS_THREADS = 1
# calibrate.py's kernel time at which a reported time equals the measured one
CALIBRATION_REF_S = 0.090
# import timings taken before the workload, and as many again after it
SETUP_SAMPLES = 3
# a run must end within 180 s; a hung repetition is killed before that
DEADLINE_S = 170.0
# kept back from a hung worker's timeout for the import timings after it
SETUP_RESERVE_S = 15.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ionchain.cli; "
                "print(time.perf_counter() - t); print(ionchain.cli.__file__)")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(WORK))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def import_seconds(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ionchain.cli imported from {out[1]}")
    return float(out[0])


def import_samples(env: dict, calibrate, n: int) -> list:
    """``n`` import timings, each with the calibration kernel time around it."""
    samples, before = [], calibrate()
    for _ in range(n):
        seconds = import_seconds(env)
        after = calibrate()
        samples.append({"setup_s": seconds,
                        "calibration_s": (before + after) / 2})
        before = after
    return samples


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker's process group and wait until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(workload: str, seed: int, size: str, trace: bool,
               seconds: float, env: dict, timeout: float) -> tuple:
    """Repetitions from one worker process, and its environment record.

    A worker that exits non-zero or times out counts as one failed
    repetition.
    """
    workdir = WORK / f"out-{workload}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)),
           "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans", str(WORK / f"spans-{workload}.jsonl.gz")]
    # its own process group, so that a hung worker is killed together with
    # its calibration child
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            error = f"exit {proc.returncode}: {stderr.strip()[-2000:]}"
        else:
            error = None
            data = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            kill_group(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    if error is not None:
        return [{"error": error, "trace": trace, "ok": False}], None
    for rep in data["reps"]:
        rep.update(trace=trace, peak_rss_mb=data["peak_rss_mb"],
                   ok="error" not in rep and not rep["problems"])
    return data["reps"], data["environment"]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _scaled(sample: dict, key: str) -> float:
    """A measured time scaled to the reference machine speed.

    The reference machine's speed switches between levels for tens of
    seconds at a time, longer than a run.  The time is multiplied by
    CALIBRATION_REF_S over the calibration kernel's time around it.
    """
    return sample[key] * CALIBRATION_REF_S / sample["calibration_s"]


def _scaled_mean(reps: list, key: str) -> float:
    # the mean weighs the repetitions by their time, as a total would
    return statistics.fmean(_scaled(r, key) for r in reps)


def summarise(reps: list, setup: list, trace: bool) -> dict:
    plain = [r for r in reps if r["ok"] and not r["trace"]]
    if not trace:
        values = {"wall_s": ("s", _scaled_mean(plain, "wall_s")),
                  "cpu_s": ("s", _scaled_mean(plain, "cpu_s")),
                  "peak_rss_mb": ("MB", statistics.median(
                      r["peak_rss_mb"] for r in plain)),
                  "setup_s": ("s", statistics.median(
                      _scaled(x, "setup_s") for x in setup))}
    else:
        import tracing

        traced = [r for r in reps if r["ok"] and r["trace"]]
        values = {name: ("count" if name.endswith(".calls") else "s",
                         statistics.median(r["layers"][name] for r in traced))
                  for name in traced[0]["layers"]
                  if name not in tracing.COUNTERS}
        values.update({name: (unit, traced[-1]["layers"][name])
                       for name, unit in tracing.COUNTERS.items()})
        values["trace.overhead_s"] = (
            "s", _scaled_mean(traced, "wall_s") - _scaled_mean(plain, "wall_s"))
    return {name: {"value": value, "unit": unit}
            for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    t_main = time.perf_counter()
    if not (SRC / "ionchain" / "cli.py").is_file():
        print(f"perfbench: no ionchain sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    # every process of the run shares one CPU, so that the calibration
    # kernel gauges the speed of the CPU the workload runs on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    size = "smoke" if args.smoke else "full"

    # with tracing, half the time goes to untraced repetitions, so that
    # the overhead is measured in the same run
    modes = (False, True) if args.trace else (False,)
    reps, envs = [], []
    with Calibrator(env) as calibrate:
        import_seconds(env)     # compiles bytecode once; not a sample
        setup = import_samples(env, calibrate, SETUP_SAMPLES)
        for trace in modes:
            left = DEADLINE_S - (time.perf_counter() - t_main)
            got, env_record = run_worker(
                args.workload, args.seed, size, trace,
                args.seconds / len(modes), env,
                max(left - SETUP_RESERVE_S, 1.0))
            reps += got
            envs.append(env_record)
        setup += import_samples(env, calibrate, SETUP_SAMPLES)

    failed = sum(not r["ok"] for r in reps)
    ok_modes = {r["trace"] for r in reps if r["ok"]}
    if len(ok_modes) < len(modes):
        for r in reps:
            if not r["ok"]:
                print(r.get("error") or r["problems"], file=sys.stderr)
        print("perfbench: no repetition succeeded", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "size": size,
              "nproc": len(cpus), "cpu": max(cpus),
              "blas_threads": BLAS_THREADS,
              "machine_speed": CALIBRATION_REF_S / statistics.median(
                  r["calibration_s"] for r in reps if r["ok"]),
              "git_sha": git_sha(),
              **next(e for e in envs if e is not None)}
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed,
              "metrics": summarise(reps, setup, bool(args.trace))}
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    detail = results_dir / (f"{args.workload}-{size}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    detail.write_text(json.dumps({"environment": record, "setup_s": setup,
                                  "repetitions": reps, "result": result},
                                 indent=1))
    print(json.dumps({"environment": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
