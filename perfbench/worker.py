"""Repetitions of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke
                                --trace 0|1 --seconds S --workdir DIR
                                [--spans FILE]

Each repetition is timed on its own: the clock starts at the first call into
ionchain and stops once the outputs are written, read back and checked.
Between repetitions, a calibration child (calibrate.py) times its fixed
kernel; each repetition records the mean of the kernel times just before
and just after it, so that run.py can scale its time to a reference speed.
Repetitions continue while another one is expected to end nearer to
``--seconds`` than past it; at least one always runs, and the first that
raises ends the loop.  The last line of standard output is a JSON object
with the repetitions, the peak resident memory of the process up to the
end of the first repetition, and the environment.  The parent (run.py)
sets the BLAS thread count and PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def load_reference(workload: str, seed: int, size: str):
    if size != "full":
        return None
    refs = json.loads((HERE / "references.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def run_reps(workload: str, seed: int, size: str, trace: bool,
             seconds: float, workdir: Path,
             spans_path: Path | None = None) -> dict:
    import ionchain

    if not Path(ionchain.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ionchain imported from {ionchain.__file__}, "
                           f"not from {SRC}")
    import tracing
    import workloads
    from calibrate import Calibrator

    make_inputs, run, check, compare = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed, size)
    reference = load_reference(workload, seed, size)

    def body(rep_dir):
        outputs = run(inputs, rep_dir)
        problems = check(outputs, inputs)
        if reference is not None:
            problems += compare(outputs, reference)
        return outputs, problems

    reps: list = []
    tracer = None
    peak_rss_mb = None
    with Calibrator() as calibrate:
        start = time.perf_counter()
        cal_before = calibrate()
        while True:
            rep_dir = workdir / f"rep{len(reps)}"
            rep_dir.mkdir(parents=True)
            if trace:
                tracer = tracing.Tracer(f"{workload}:{seed}:{len(reps)}")
                tracer.install()
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                outputs, problems = (tracer.root(body, rep_dir) if tracer
                                     else body(rep_dir))
                rep = {"problems": problems, "outputs": outputs}
            except Exception:
                rep = {"error": traceback.format_exc()}
            finally:
                rep_wall, rep_cpu = time.perf_counter() - t0, _cpu_s() - cpu0
                if tracer:
                    tracer.uninstall()
                shutil.rmtree(rep_dir, ignore_errors=True)
            cal_after = calibrate()
            rep.update(wall_s=rep_wall, cpu_s=rep_cpu,
                       calibration_s=(cal_before + cal_after) / 2,
                       reference_checked=reference is not None)
            cal_before = cal_after
            if tracer:
                rep.update(layers=tracer.metrics(), spans=len(tracer.spans))
            reps.append(rep)
            if peak_rss_mb is None:
                # the first repetition's peak: later ones reuse (and may grow)
                # the allocator's pool, which would tie memory to the count
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            spent = time.perf_counter() - start
            if "error" in rep or spent + spent / len(reps) / 2 > seconds:
                break
    if tracer and spans_path is not None:
        tracer.write_spans(spans_path)
    return {"reps": reps, "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    result = run_reps(args.workload, args.seed, args.size, bool(args.trace),
                      args.seconds, args.workdir, args.spans)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
