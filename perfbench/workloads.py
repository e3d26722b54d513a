"""Workload drivers, seeded inputs and output checks.

Every workload has four functions:

* ``make_inputs(seed, size)`` turns the benchmark seed into plain-data inputs;
  the same seed always gives the same inputs;
* ``run(inputs, workdir)`` drives ionchain through its public entry points
  and returns a flat dict of outputs read back from what it wrote;
* ``check(outputs, inputs)`` returns the list of violated invariants, and
  ``compare(outputs, reference)`` the list of mismatches against outputs
  stored for that seed in ``references.json``.

``size`` is ``"full"`` for measurement and ``"smoke"`` for the benchmark's
own tests, which exercise the same code at a size that runs in seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from ionchain import chain, cli, couplings, xy


class WorkloadFailure(RuntimeError):
    """The program exited non-zero or produced no readable output."""


def _rng(seed: int, workload: str) -> random.Random:
    # stdlib generator: its stream is fixed across numpy versions
    return random.Random(f"{workload}:{seed}")


def _alpha(rng: random.Random) -> float:
    # the interaction ranges of the fig 2b-2c presets
    return round(0.2 + 0.2 * rng.random(), 6)


def _run_cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise WorkloadFailure(f"ionchain {argv[0]} exited {code}: "
                              f"{err.getvalue().strip()}")


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path


def _read_csv(path: Path) -> tuple[list, list]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(name, got, want, rel=0.0, abs_=0.0) -> list:
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{name}: length {len(got)} != reference {len(want)}"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += _close(f"{name}[{k}]", g, w, rel, abs_)
        return out[:5]
    if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
        return [f"{name}: {got!r} differs from reference {want!r}"]
    return []


# ---------------------------------------------------------------------------
# leakage_s3: spin-phonon simulation of the fig 3b-3c physics through the CLI

def leakage_inputs(seed: int, size: str) -> dict:
    rng = _rng(seed, "leakage_s3")
    cfg = {"n_ions": 10, "modes": 1, "fock_cutoff": 4, "s_init": 3,
           "n_times": 300, "alpha_target": _alpha(rng)}
    if size == "smoke":
        cfg.update(n_ions=4, fock_cutoff=2, s_init=2, n_times=100)
    return {"config": cfg}


def leakage_run(inputs: dict, workdir: Path) -> dict:
    cfg_path = _write_config(workdir / "leakage.cfg", inputs["config"])
    _run_cli(["leakage", "--config", str(cfg_path), "--out", str(workdir),
              "--threads", "1"])
    report = json.loads((workdir / "leakage_report.json").read_text())
    header, rows = _read_csv(workdir / "leakage.csv")
    cols = {name: np.array([float(r[k]) for r in rows])
            for k, name in enumerate(header)}
    out = {"r": report["r"], "r_minus_1": report["r_minus_1"],
           "n_rows": len(rows)}
    for name, key in (("F_bare", "F_bare"), ("F_ren", "F_renormalized"),
                      ("nbar", "nbar")):
        col = cols[key]
        out.update({f"{name}_min": float(col.min()),
                    f"{name}_max": float(col.max()),
                    f"{name}_last": float(col[-1])})
    return out


def leakage_check(out: dict, inputs: dict) -> list:
    # the CLI's default fit window
    r_lo, r_hi = 0.999, 1.002
    bad = []
    if not r_lo < out["r"] < r_hi:
        bad.append(f"r={out['r']!r} outside ({r_lo}, {r_hi})")
    if not math.isclose(out["r"] - 1.0, out["r_minus_1"], abs_tol=1e-15):
        bad.append("r_minus_1 inconsistent with r")
    if out["n_rows"] != inputs["config"]["n_times"]:
        bad.append(f"{out['n_rows']} rows, expected "
                   f"{inputs['config']['n_times']}")
    for name in ("F_bare", "F_ren"):
        lo, hi = out[f"{name}_min"], out[f"{name}_max"]
        if not (0.0 <= lo and hi <= 1.0 + 1e-9):
            bad.append(f"{name} range [{lo!r}, {hi!r}] not within [0, 1]")
    if not out["nbar_min"] >= 0.0:
        bad.append(f"nbar_min={out['nbar_min']!r} < 0")
    return bad


def leakage_compare(out: dict, ref: dict) -> list:
    bad = _close("r_minus_1", out["r_minus_1"], ref["r_minus_1"], rel=1e-4)
    for key in ("F_bare_min", "F_bare_last", "F_ren_min", "F_ren_last"):
        bad += _close(key, out[key], ref[key], abs_=1e-7)
    for key in ("nbar_max", "nbar_last"):
        bad += _close(key, out[key], ref[key], rel=1e-6, abs_=1e-12)
    return bad


# ---------------------------------------------------------------------------
# noise_fig5: the fig 5 noise cases through the CLI

def noise_inputs(seed: int, size: str) -> dict:
    # the fig 5 preset (36 cases: 3 alpha x N = 8..52) at 100 samples
    cfg = {"n_list": ",".join(str(n) for n in range(8, 53, 4)),
           "alpha_list": "0.2,0.4,0.6", "t2_ms": 10, "n_samples": 100}
    if size == "smoke":
        cfg.update(n_list="8", n_samples=5)
    return {"config": cfg, "seed": seed,
            "rows": len(cfg["n_list"].split(",")) * 3}


def noise_run(inputs: dict, workdir: Path) -> dict:
    cfg_path = _write_config(workdir / "noise.cfg", inputs["config"])
    _run_cli(["noise", "--config", str(cfg_path), "--seed",
              str(inputs["seed"]), "--out", str(workdir), "--threads", "1"])
    report = json.loads((workdir / "noise_report.json").read_text())
    _, rows = _read_csv(workdir / "noise.csv")
    cases = report["cases"]
    return {"n_rows": len(rows),
            "mean_F": [c["mean_F"] for c in cases],
            "std_F": [c["std_F"] for c in cases],
            "noiseless_F": [c["noiseless_F"] for c in cases]}


def noise_check(out: dict, inputs: dict) -> list:
    bad = []
    if out["n_rows"] != inputs["rows"] or len(out["mean_F"]) != inputs["rows"]:
        bad.append(f"{out['n_rows']} rows, expected {inputs['rows']}")
    for k, (m, s, f0) in enumerate(zip(out["mean_F"], out["std_F"],
                                       out["noiseless_F"])):
        if not 0.0 <= m <= f0:
            bad.append(f"case {k}: mean_F={m!r} outside [0, noiseless_F={f0!r}]")
        if not s >= 0.0:
            bad.append(f"case {k}: std_F={s!r} < 0")
    return bad


def noise_compare(out: dict, ref: dict) -> list:
    bad = []
    for key in ("mean_F", "noiseless_F", "std_F"):
        bad += _close(key, out[key], ref[key], abs_=1e-7)
    return bad


# ---------------------------------------------------------------------------
# xy_n14: library driver on large fixed-excitation XY sectors of 14 sites

def xy_inputs(seed: int, size: str) -> dict:
    rng = _rng(seed, "xy_n14")
    n, s_evolve, s_grid, n_times, every = 14, 5, 4, 200, 10
    if size == "smoke":
        n, s_evolve, s_grid, n_times, every = 8, 4, 3, 20, 5
    return {"n_ions": n, "alpha": _alpha(rng),
            "evolve_sites": sorted(rng.sample(range(n), s_evolve)),
            "grid_sites": sorted(rng.sample(range(n), s_grid)),
            "n_times": n_times, "occupation_every": every}


def _basis_state(sector: xy.XYSector, sites: list) -> np.ndarray:
    psi = np.zeros(sector.dim, dtype=complex)
    psi[sector.index_of(sum(1 << i for i in sites))] = 1.0
    return psi


def xy_run(inputs: dict, workdir: Path) -> dict:
    n = inputs["n_ions"]
    template = chain.reference_trap(n, 2 * np.pi * 2.5e6)
    trap = template.with_(
        omega_z=chain.max_stable_axial_frequency(template, n))
    sol = chain.solve_chain(trap)
    res = couplings.detuning_for_alpha(trap, sol, inputs["alpha"])
    trap = trap.with_(detuning_mu=res.mu)
    model = couplings.build_coupling_model(trap, sol)
    # times in units of the fastest hop, 4 max|J|
    t_hop = 1.0 / (4.0 * float(np.max(np.abs(model.J))))

    big = xy.build_sector(model.J, model.h, len(inputs["evolve_sites"]))
    state = xy.evolve(big, _basis_state(big, inputs["evolve_sites"]),
                      3.0 * t_hop).amplitudes
    occ = xy.occupations(state, big)

    grid = xy.build_sector(model.J, model.h, len(inputs["grid_sites"]))
    times = np.linspace(0.0, 6.0 * t_hop, inputs["n_times"])
    states = xy.evolve_grid(grid, _basis_state(grid, inputs["grid_sites"]),
                            times)
    occ_grid = [xy.occupations(states[k], grid)
                for k in range(0, len(times), inputs["occupation_every"])]
    norms = np.linalg.norm(states, axis=1)
    return {"sector_dims": [big.dim, grid.dim],
            "norm_dev": max(abs(float(np.linalg.norm(state)) - 1.0),
                            float(np.max(np.abs(norms - 1.0)))),
            "occupations": occ.tolist(),
            "grid_occupations": [o.tolist() for o in occ_grid]}


def xy_check(out: dict, inputs: dict) -> list:
    bad = []
    if not out["norm_dev"] <= 1e-10:
        bad.append(f"state norm deviates from 1 by {out['norm_dev']!r}")
    sets = [(len(inputs["evolve_sites"]), out["occupations"])]
    sets += [(len(inputs["grid_sites"]), o) for o in out["grid_occupations"]]
    for k, (s, occ) in enumerate(sets):
        if not all(0.0 <= x <= 1.0 + 1e-10 for x in occ):
            bad.append(f"occupation set {k} leaves [0, 1]")
        if not abs(sum(occ) - s) <= 1e-10:
            bad.append(f"occupation set {k} sums to {sum(occ)!r}, not {s}")
    return bad


def xy_compare(out: dict, ref: dict) -> list:
    bad = _close("occupations", out["occupations"], ref["occupations"],
                 abs_=1e-8)
    for k, (g, w) in enumerate(zip(out["grid_occupations"],
                                   ref["grid_occupations"])):
        bad += _close(f"grid_occupations[{k}]", g, w, abs_=1e-8)
    if len(out["grid_occupations"]) != len(ref["grid_occupations"]):
        bad.append("grid occupation count differs from reference")
    return bad


WORKLOADS = {
    "leakage_s3": (leakage_inputs, leakage_run, leakage_check,
                   leakage_compare),
    "noise_fig5": (noise_inputs, noise_run, noise_check, noise_compare),
    "xy_n14": (xy_inputs, xy_run, xy_check, xy_compare),
}
