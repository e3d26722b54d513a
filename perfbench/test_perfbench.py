"""Tests of the benchmark harness itself, at smoke size.

    python3 -m pytest perfbench -q

They run every workload's driver, checks and tracing on tiny problems, and
show that corrupted outputs are flagged.  They are not part of the
repository's own test suite.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_outputs(name: str, tmp_path) -> tuple[dict, dict]:
    make_inputs, run_workload, check, _ = workloads.WORKLOADS[name]
    inputs = make_inputs(5, "smoke")
    outputs = run_workload(inputs, tmp_path)
    assert check(outputs, inputs) == []
    return inputs, outputs


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layers = {m["name"] for m in SPEC["per_layer"]}
    expected = {f"{fn}.{suffix}" for fn in tracing.layer_names()
                for suffix in ("s", "self_s", "calls")}
    expected |= set(tracing.COUNTERS) | {"trace.overhead_s"}
    assert layers == expected


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_untraced(name):
    res = result_of(bench("--workload", name, "--seed", "7", "--seconds",
                          "0", "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_traced(name):
    res = result_of(bench("--workload", name, "--seed", "7", "--seconds",
                          "0", "--trace", "1", "--smoke"))
    assert res["correct"] and res["attempted"] == 2
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    for fn in tracing.layer_names():
        assert metrics[f"{fn}.self_s"] <= metrics[f"{fn}.s"] + 1e-9
    assert metrics["xy.sector_dim"] > 0
    assert (ROOT / ".perfbench-work" / f"spans-{name}.jsonl.gz").is_file()


def test_times_are_scaled_to_the_reference_speed():
    ref = run.CALIBRATION_REF_S
    reps = [{"ok": True, "trace": False, "wall_s": 2.0, "cpu_s": 1.8,
             "calibration_s": 2 * ref, "peak_rss_mb": 50.0},
            {"ok": True, "trace": False, "wall_s": 1.0, "cpu_s": 0.9,
             "calibration_s": ref, "peak_rss_mb": 50.0}]
    setup = [{"setup_s": 0.5, "calibration_s": ref},
             {"setup_s": 1.4, "calibration_s": 2 * ref},
             {"setup_s": 0.6, "calibration_s": ref}]
    m = run.summarise(reps, setup, trace=False)
    assert m["wall_s"]["value"] == pytest.approx(1.0)
    assert m["cpu_s"]["value"] == pytest.approx(0.9)
    assert m["setup_s"]["value"] == pytest.approx(0.6)


def test_leakage_smoke_trace_counts():
    res = result_of(bench("--workload", "leakage_s3", "--seed", "1",
                          "--seconds", "0", "--trace", "1", "--smoke"))
    m = {k: v["value"] for k, v in res["metrics"].items()}
    dim = m["spinphonon.dim"]
    assert dim > 0 and m["spinphonon.propagate.calls"] == 1
    assert m["spinphonon.propagate.flop_computed"] == 8 * dim * dim * 100
    assert m["chain.working_point_reuse"] == 1.0
    assert m["cli.bytes_written"] > 0


def test_corrupted_leakage_output_is_flagged(tmp_path):
    inputs, out = smoke_outputs("leakage_s3", tmp_path)
    assert workloads.leakage_compare(out, out) == []
    shifted = dict(out, r_minus_1=out["r_minus_1"] * 1.01)
    assert workloads.leakage_compare(shifted, out)
    above_one = dict(out, F_bare_max=1.0 + 1e-6)
    assert workloads.leakage_check(above_one, inputs)
    at_edge = dict(out, r=1.002, r_minus_1=0.002)
    assert workloads.leakage_check(at_edge, inputs)


def test_corrupted_noise_output_is_flagged(tmp_path):
    inputs, out = smoke_outputs("noise_fig5", tmp_path)
    assert workloads.noise_compare(out, out) == []
    mean = list(out["mean_F"])
    mean[0] = out["noiseless_F"][0] + 1e-6
    assert workloads.noise_check(dict(out, mean_F=mean), inputs)
    assert workloads.noise_compare(dict(out, mean_F=mean), out)
    assert workloads.noise_check(dict(out, n_rows=out["n_rows"] - 1), inputs)


def test_corrupted_xy_output_is_flagged(tmp_path):
    inputs, out = smoke_outputs("xy_n14", tmp_path)
    assert workloads.xy_compare(out, out) == []
    occ = [x * 1.01 for x in out["occupations"]]
    assert workloads.xy_check(dict(out, occupations=occ), inputs)
    assert workloads.xy_compare(dict(out, occupations=occ), out)
    assert workloads.xy_check(dict(out, norm_dev=1e-8), inputs)


def test_inputs_follow_the_seed():
    for name, (make_inputs, *_) in workloads.WORKLOADS.items():
        assert make_inputs(3, "full") == make_inputs(3, "full")
    assert workloads.leakage_inputs(3, "full") != \
        workloads.leakage_inputs(4, "full")


def test_self_times_subtract_children():
    spans = [("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0),
             ("b", 2.0, 3.0, 1), ("a", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert tracing.layer_metrics([])["xy.evolve.calls"] == 0


def test_tracer_sees_calls_inside_the_package():
    from ionchain import chain

    original = chain.is_linear_stable
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        trap = chain.reference_trap(4, 2 * 3.14159 * 1e6)
        tracer.root(chain.max_stable_axial_frequency, trap, 4)
    finally:
        tracer.uninstall()
    assert chain.is_linear_stable is original
    m = tracer.metrics()
    assert m["chain.max_stable_axial_frequency.calls"] == 1
    assert m["chain.is_linear_stable.calls"] > 1
    assert m["chain.solve_equilibrium.calls"] >= m["chain.is_linear_stable.calls"]
    parents = {tracer.spans[p][0] for (name, _, _, p) in tracer.spans
               if name == "chain.is_linear_stable"}
    assert parents == {"chain.max_stable_axial_frequency"}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "noise_fig5", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
