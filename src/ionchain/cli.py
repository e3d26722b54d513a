"""Command-line front end: reproducible experiments from flat config files.

Subcommands map one-to-one onto the library modules (chain, couplings,
alpha-scan, leakage, transfer, search, noise).  Config files are flat
``key = value`` text with ``#`` comments; unknown keys are rejected.  All
output files carry a header with the tool version, a hash of the resolved
configuration and the RNG seed, and reruns with identical config and seed
are byte-identical.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, chain, couplings, leakage, noise, protocols, xy
from . import spinphonon as sp
from .chain import (DELTA_K_355, NoStablePoint, NonConvergence, TrapConfig,
                    UnstableChain)
from .couplings import DegenerateFit, FitConvention, ResonantDetuning
from .leakage import FitFailure
from .spinphonon import StepUnderflow


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing

def parse_config_file(path) -> dict:
    """Flat key = value lines, # comments, blank lines ignored."""
    raw = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            raw[key] = val.strip()
    return raw


def _p_int(s):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected integer, got '{s}'") from None


def _p_float(s):
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected number, got '{s}'") from None


def _p_bool(s):
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected boolean, got '{s}'")


def _p_float_or_auto(s):
    return "auto" if s.lower() == "auto" else _p_float(s)


def _p_opt_float(s):
    return None if s.lower() == "none" else _p_float(s)


def _p_opt_int(s):
    return None if s.lower() == "none" else _p_int(s)


def _p_int_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ConfigError("empty list")
    return [_p_int(p) for p in parts]


def _p_float_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ConfigError("empty list")
    return [_p_float(p) for p in parts]


def _p_choice(*options):
    def parse(s):
        if s not in options:
            raise ConfigError(f"expected one of {options}, got '{s}'")
        return s
    return parse


TRAP_SCHEMA = {
    "n_ions": (_p_int, 10),
    "mass_amu": (_p_float, 171.0),
    "omega_x_mhz": (_p_float, 6.0),
    "omega_y_mhz": (_p_float, 5.0),
    "omega_z_mhz": (_p_float_or_auto, "auto"),
    "rabi_total_mhz": (_p_float, 1.0),
    "mu_mhz": (_p_float_or_auto, 0.0),
    "alpha_target": (_p_opt_float, None),
    "delta_k": (_p_float, DELTA_K_355),
    "angular": (_p_bool, False),
    "stability_safety": (_p_float, 1.0),
}

SCHEMAS = {
    "chain": dict(TRAP_SCHEMA),
    "couplings": dict(TRAP_SCHEMA, **{
        "n_init": (_p_int, 0),
        "fit_convention": (_p_choice(*[c.value for c in FitConvention]),
                           FitConvention.END_ION_CHAIN_INDEX.value),
        "fit_beta": (_p_bool, False),
    }),
    "alpha-scan": dict(TRAP_SCHEMA, **{
        "scan_points": (_p_int, 25),
        "mu_max_factor": (_p_float, 20.0),
    }),
    "leakage": dict(TRAP_SCHEMA, **{
        "modes": (_p_int, 1),
        "fock_cutoff": (_p_int, 4),
        "total_quanta": (_p_opt_int, None),
        "s_init": (_p_int, 1),
        "periods": (_p_float, 4.0),
        "n_times": (_p_int, 3000),
        "omega_c_pin_mhz": (_p_opt_float, None),
        "r_lo": (_p_float, 0.999),
        "r_hi": (_p_float, 1.002),
        "integrator": (_p_choice("spectral", "rk"), "spectral"),
    }),
    "transfer": dict(TRAP_SCHEMA, **{
        "n_list": (_p_int_list, list(range(8, 53, 4))),
        "couplings": (_p_choice("idealized", "experimental", "both"),
                      "idealized"),
        "optimize": (_p_bool, True),
        "budget": (_p_int, 200),
        "box": (_p_float, 0.30),
        "n_times": (_p_int, 600),
    }),
    "search": dict(TRAP_SCHEMA, **{
        "couplings": (_p_choice("idealized", "experimental"), "idealized"),
        "marked": (_p_opt_int, None),
        "gamma": (_p_float_or_auto, "auto"),
        "t_max_factor": (_p_float, 1.0),
        "n_times": (_p_int, 600),
    }),
    "noise": dict(TRAP_SCHEMA, **{
        "n_list": (_p_int_list, list(range(8, 53, 4))),
        "alpha_list": (_p_float_list, [0.2, 0.4, 0.6]),
        "t2_ms": (_p_float, 10.0),
        "n_samples": (_p_int, 500),
        "field_variance": (_p_opt_float, None),
        "optimize": (_p_bool, True),
        "budget": (_p_int, 200),
        "n_times": (_p_int, 200),
    }),
}

# paper-figure presets: pinned parameters merged over the config file
PAPER_FIGS = {
    "2a": ("leakage", {"n_ions": "10", "alpha_target": "0.8", "modes": "1"}),
    "2b": ("leakage", {"n_ions": "10", "alpha_target": "0.4", "modes": "1"}),
    "2c": ("leakage", {"n_ions": "10", "alpha_target": "0.2", "modes": "1"}),
    "2d": ("leakage", {"n_ions": "10", "alpha_target": "0.2", "modes": "2"}),
    "3a": ("leakage", {"n_ions": "10", "alpha_target": "0.2", "s_init": "1"}),
    "3b": ("leakage", {"n_ions": "10", "alpha_target": "0.2", "s_init": "2"}),
    "3c": ("leakage", {"n_ions": "10", "alpha_target": "0.2", "s_init": "5"}),
    "4": ("transfer", {"alpha_target": "0.2", "couplings": "both"}),
    "5": ("noise", {"alpha_list": "0.2,0.4,0.6", "t2_ms": "10",
                    "n_samples": "500"}),
}


def resolve_config(subcommand: str, raw: dict) -> dict:
    schema = SCHEMAS[subcommand]
    cfg = {k: default for k, (_, default) in schema.items()}
    for key, val in raw.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key '{key}' for {subcommand}; valid keys: "
                + ", ".join(sorted(schema)))
        parser, _ = schema[key]
        try:
            cfg[key] = parser(val)
        except ConfigError as e:
            raise ConfigError(f"key '{key}': {e}") from None
    return cfg


# ---------------------------------------------------------------------------
# output plumbing

@dataclass
class OutputContext:
    outdir: Path
    fmt: str
    seed: int
    threads: int
    meta: list = field(default_factory=list)
    written: list = field(default_factory=list)


def _fmt_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def config_hash(subcommand: str, cfg: dict, seed: int, fmt: str) -> str:
    canon = {k: _fmt_value(v) if not isinstance(v, list)
             else [_fmt_value(x) for x in v] for k, v in cfg.items()}
    blob = json.dumps({"cmd": subcommand, "cfg": canon, "seed": seed,
                       "format": fmt}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def make_context(args, subcommand: str, cfg: dict) -> OutputContext:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = OutputContext(outdir=outdir, fmt=args.format, seed=args.seed,
                        threads=args.threads)
    ctx.meta = [
        ("tool", f"ionchain {__version__}"),
        ("config_hash", config_hash(subcommand, cfg, args.seed, args.format)),
        ("seed", str(args.seed)),
    ]
    return ctx


def write_table(ctx: OutputContext, stem: str, header: list,
                rows: list) -> Path:
    if ctx.fmt == "csv":
        path = ctx.outdir / f"{stem}.csv"
        with open(path, "w", newline="\n") as f:
            for key, val in ctx.meta:
                f.write(f"# {key}: {val}\n")
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(_fmt_value(x) for x in row) + "\n")
    else:
        path = ctx.outdir / f"{stem}.json"
        payload = {"meta": dict(ctx.meta), "columns": header,
                   "rows": [[_json_safe(x) for x in row] for row in rows]}
        _dump_json(path, payload)
    ctx.written.append(path)
    return path


def _json_safe(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    return x


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_report(ctx: OutputContext, stem: str, payload: dict) -> Path:
    path = ctx.outdir / f"{stem}.json"
    _dump_json(path, {"meta": dict(ctx.meta), **_json_safe(payload)})
    ctx.written.append(path)
    return path


# ---------------------------------------------------------------------------
# shared trap resolution

def _freq_scale(cfg) -> float:
    """Config frequencies are MHz values; angular=true bypasses the 2 pi."""
    return 1e6 if cfg["angular"] else 2e6 * np.pi


def build_trap(cfg) -> TrapConfig:
    scale = _freq_scale(cfg)
    omega_x = cfg["omega_x_mhz"] * scale
    omega_y = cfg["omega_y_mhz"] * scale
    template = TrapConfig(
        n_ions=cfg["n_ions"],
        ion_mass=cfg["mass_amu"] * chain.AMU,
        omega_x=omega_x,
        omega_y=omega_y,
        omega_z=0.5 * min(omega_x, omega_y),
        delta_k=cfg["delta_k"],
        rabi_total=cfg["rabi_total_mhz"] * scale,
        detuning_mu=0.0,
    )
    if cfg["omega_z_mhz"] == "auto":
        wz = chain.max_stable_axial_frequency(template, cfg["n_ions"],
                                              safety=cfg["stability_safety"])
    else:
        wz = cfg["omega_z_mhz"] * scale
    trap = template.with_(omega_z=wz)
    ok, margin = chain.is_linear_stable(trap)
    if not ok:
        raise UnstableChain(
            f"omega_z={wz:.6e} rad/s crosses the zig-zag transition "
            f"(margin {margin:.3e})")
    return trap


def resolve_working_point(cfg):
    """Trap, chain solution and detuning for one configuration.

    alpha_target takes precedence over mu_mhz; mu_mhz = auto selects the
    minimum usable detuning.
    """
    trap = build_trap(cfg)
    sol = chain.solve_chain(trap)
    info = {"omega_z_rad_s": trap.omega_z,
            "mu_min_rad_s": couplings.min_detuning(trap, sol)}
    if cfg["alpha_target"] is not None:
        res = couplings.detuning_for_alpha(trap, sol, cfg["alpha_target"])
        trap = trap.with_(detuning_mu=res.mu)
        info.update(alpha_target=cfg["alpha_target"],
                    alpha_achieved=res.alpha_achieved,
                    alpha_target_unreachable=res.target_unreachable)
    elif cfg["mu_mhz"] == "auto":
        trap = trap.with_(detuning_mu=info["mu_min_rad_s"])
    else:
        trap = trap.with_(detuning_mu=cfg["mu_mhz"] * _freq_scale(cfg))
    info["mu_rad_s"] = trap.detuning_mu
    info["omega_eff_rad_s"] = trap.omega_eff
    return trap, sol, info


def _trap_dict(trap: TrapConfig) -> dict:
    return {
        "n_ions": trap.n_ions,
        "ion_mass_kg": trap.ion_mass,
        "omega_x_rad_s": trap.omega_x,
        "omega_y_rad_s": trap.omega_y,
        "omega_z_rad_s": trap.omega_z,
        "delta_k_1_m": trap.delta_k,
        "rabi_total_rad_s": trap.rabi_total,
        "rabi_rad_s": trap.rabi,
        "detuning_mu_rad_s": trap.detuning_mu,
        "omega_eff_rad_s": trap.omega_eff,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_chain(cfg, ctx: OutputContext) -> None:
    trap = build_trap(cfg)
    sol = chain.solve_chain(trap)
    write_report(ctx, "chain_report", {"trap": _trap_dict(trap),
                                "solution": sol.to_dict()})
    rows = [(i, u, z) for i, (u, z) in
            enumerate(zip(sol.positions, sol.positions_m))]
    write_table(ctx, "positions", ["ion", "u_dimensionless", "z_m"], rows)


def cmd_couplings(cfg, ctx: OutputContext) -> None:
    trap, sol, info = resolve_working_point(cfg)
    model = couplings.build_coupling_model(
        trap, sol, n_init=cfg["n_init"],
        convention=FitConvention(cfg["fit_convention"]),
        fit_beta=cfg["fit_beta"])
    write_report(ctx, "couplings_report", {"trap": _trap_dict(trap),
                                    "working_point": info,
                                    "model": model.to_dict()})
    pos = sol.positions_m
    rows = []
    for i in range(trap.n_ions):
        for j in range(i + 1, trap.n_ions):
            rows.append((i, j, j - i, abs(pos[j] - pos[i]), model.J[i, j]))
    write_table(ctx, "couplings",
                ["i", "j", "index_distance", "axial_distance_m", "J_rad_s"],
                rows)


def cmd_alpha_scan(cfg, ctx: OutputContext) -> None:
    trap = build_trap(cfg)
    sol = chain.solve_chain(trap)
    mu_min = couplings.min_detuning(trap, sol)
    mu_grid = np.geomspace(mu_min, cfg["mu_max_factor"] * sol.mode_freqs[0],
                           cfg["scan_points"])
    rows = []
    for mu in mu_grid:
        t = trap.with_(detuning_mu=float(mu))
        eta = couplings.lamb_dicke(t, sol)
        j = couplings.coupling_matrix(t, eta, sol.mode_freqs)
        fit = couplings.fit_alpha_beta(j)
        rows.append((float(mu), t.omega_eff, fit.alpha))
    write_table(ctx, "alpha_scan", ["mu_rad_s", "omega_eff_rad_s", "alpha"],
                rows)
    write_report(ctx, "alpha_scan_report", {
        "trap": _trap_dict(trap),
        "mu_min_rad_s": mu_min,
        "omega_com_rad_s": sol.mode_freqs[0],
    })


def _second_mode(trap: TrapConfig, eta: np.ndarray,
                 mode_freqs: np.ndarray) -> int:
    """Most significant non-COM mode: largest summed |eta| Omega / |Delta_m|."""
    weights = np.sum(np.abs(eta), axis=0) * trap.rabi \
        / np.abs(trap.omega_eff - mode_freqs)
    weights[0] = -np.inf
    return int(np.argmax(weights))


def cmd_leakage(cfg, ctx: OutputContext) -> None:
    if cfg["alpha_target"] is None and cfg["mu_mhz"] == 0.0:
        raise ConfigError("leakage needs alpha_target or a nonzero mu_mhz")
    if cfg["modes"] not in (1, 2):
        raise ConfigError("modes must be 1 or 2")
    s = cfg["s_init"]
    if not 1 <= s <= cfg["n_ions"]:
        raise ConfigError("s_init out of range")
    trap, sol, info = resolve_working_point(cfg)

    eta_bare = couplings.lamb_dicke(trap, sol)
    subset = [0]
    if cfg["modes"] == 2:
        subset.append(_second_mode(trap, eta_bare, sol.mode_freqs))

    freqs_used = sol.mode_freqs.copy()
    pinned = cfg["omega_c_pin_mhz"] is not None
    if pinned:
        freqs_used[0] = cfg["omega_c_pin_mhz"] * _freq_scale(cfg)
    sol_used = chain.ChainSolution(
        positions=sol.positions, length_scale=sol.length_scale,
        mode_matrix=sol.mode_matrix, mode_freqs=freqs_used)
    eta_used = couplings.lamb_dicke(trap, sol_used)

    policy = sp.TruncationPolicy(phonon_modes=tuple(subset),
                                 fock_cutoff=cfg["fock_cutoff"],
                                 total_quanta_cutoff=cfg["total_quanta"])
    system = sp.SpinPhononSystem.build(
        trap, sol, policy, s_init=s,
        mode_freq_override=freqs_used[subset] if pinned else None)
    psi0 = system.initial_state((1 << s) - 1)

    omega_c = freqs_used[0]
    delta_c = trap.omega_eff - omega_c
    if delta_c <= 0:
        raise ResonantDetuning(
            f"omega_eff={trap.omega_eff:.6e} below omega_c={omega_c:.6e}")
    times = np.linspace(0.0, cfg["periods"] * 2 * np.pi / delta_c,
                        cfg["n_times"])
    traj = sp.propagate(system, psi0, times, method=cfg["integrator"])
    e_vac = sp.vacuum_overlap(traj)
    nbar = sp.phonon_occupation(traj)
    e_meas = e_vac if s == 1 else nbar

    eta_1c = abs(float(system.eta[0, 0]))
    r_bounds = (cfg["r_lo"], cfg["r_hi"])
    if cfg["modes"] == 1:
        env = s * leakage.leakage_norm_single(eta_1c, trap.rabi, delta_c,
                                              times)
        fit = leakage.fit_effective_frequency(
            times, e_meas, eta_1c, trap.rabi, trap.omega_eff, omega_c,
            r_bounds=r_bounds, scale=s)
        env_shifted = leakage.higher_subspace_scaling(
            s, eta_1c, trap.rabi, trap.omega_eff, omega_c, fit.r, times)
    else:
        eta_pair = eta_used[:, subset]
        pair_freqs = freqs_used[subset]
        env = s * leakage.leakage_norm_two_modes(
            eta_pair, trap.rabi, pair_freqs, trap.omega_eff, times)
        fit = leakage.fit_effective_frequency_two_modes(
            times, e_meas, eta_pair, trap.rabi, pair_freqs, trap.omega_eff,
            r_bounds=r_bounds, scale=s)
        env_shifted = s * leakage.leakage_norm_two_modes(
            eta_pair, trap.rabi, pair_freqs, trap.omega_eff, times, r=fit.r)

    ren = leakage.renormalized_couplings(trap, eta_used, freqs_used, fit.r,
                                         mode_subset=subset)
    j_sub = couplings.coupling_matrix(trap, eta_used, freqs_used,
                                      mode_subset=subset)
    h_sub = couplings.local_fields(trap, eta_used, freqs_used,
                                   mode_subset=subset)
    sector = xy.build_sector(j_sub, h_sub, s)
    sector_ren = xy.build_sector(ren.J_prime, h_sub, s)
    psi_xy0 = np.zeros(sector.dim, dtype=complex)
    psi_xy0[sector.index_of((1 << s) - 1)] = 1.0
    f_bare = sp.model_fidelity(traj, sector, psi_xy0)
    f_ren = sp.model_fidelity(traj, sector_ren, psi_xy0)

    rows = list(zip(times, e_vac, nbar, env, env_shifted, f_bare, f_ren))
    write_table(ctx, "leakage",
                ["t_seconds", "E_sim", "nbar", "E_norm", "E_norm_shifted",
                 "F_bare", "F_renormalized"], rows)
    iu = np.triu_indices(trap.n_ions, k=1)
    write_report(ctx, "leakage_report", {
        "trap": _trap_dict(trap),
        "working_point": info,
        "modes_included": subset,
        "omega_c_rad_s": omega_c,
        "omega_c_pinned": pinned,
        "delta_c_rad_s": delta_c,
        "delta_c_prime_rad_s": fit.r * trap.omega_eff - omega_c,
        "s_init": s,
        "r": fit.r,
        "r_minus_1": fit.r - 1.0,
        "fit_residual": fit.residual,
        "J_prime_factor_mean": ren.factor_summary,
        "per_pair_factors": (ren.J_prime[iu] / j_sub[iu]).tolist(),
    })


def _walk_couplings(cfg, n: int):
    """Normalised walk matrix for one chain length; experimental or ideal.

    The walk matrix of the physical XY Hamiltonian is xy.hop_amplitudes(J),
    divided here by its largest eigenvalue so the analytic gamma is 1 and
    scaled times are comparable across N.  Returns
    (J_walk, scale_rad_s, alpha_used); scale_rad_s converts walk time units
    to seconds (None for idealized couplings, which have no physical scale).
    """
    alpha = cfg["alpha_target"] if cfg["alpha_target"] is not None else 0.2
    if cfg["couplings"] == "idealized":
        j = protocols.idealized_couplings(n, alpha)
        lam = 1.0 / protocols.analytic_gamma(j)
        return j / lam, None, alpha
    sub = dict(cfg, n_ions=n, alpha_target=alpha)
    trap, sol, info = resolve_working_point(sub)
    model = couplings.build_coupling_model(trap, sol)
    j_phys = xy.hop_amplitudes(model.J)
    lam = 1.0 / protocols.analytic_gamma(j_phys)
    return j_phys / lam, lam, info["alpha_achieved"]


def _one_transfer(cfg, ctx, n: int, source: str):
    sub = dict(cfg, couplings=source)
    j_walk, scale, alpha_used = _walk_couplings(sub, n)
    if cfg["optimize"]:
        opt = protocols.optimize_protocol(j_walk, None, 0, n - 1,
                                          box=cfg["box"],
                                          budget=cfg["budget"],
                                          rng_seed=ctx.seed)
        gamma, t, fid = (opt.config.gamma, opt.config.duration,
                         opt.report.fidelity_peak)
    else:
        gamma = protocols.analytic_gamma(j_walk)
        t = protocols.transfer_time(n)
        fid = protocols.transfer_fidelity_at(j_walk, gamma, t, 0, n - 1)
    return {"n": n, "source": source, "alpha": alpha_used, "gamma": gamma,
            "T": t, "T_tilde": gamma * t, "F_peak": fid,
            "scale_rad_s": scale}


def cmd_transfer(cfg, ctx: OutputContext) -> None:
    if not cfg["n_list"]:
        raise ConfigError("n_list must not be empty")
    sources = {"idealized": ["idealized"], "experimental": ["experimental"],
               "both": ["idealized", "experimental"]}[cfg["couplings"]]
    results = []
    for n in cfg["n_list"]:
        if n < 3:
            raise ConfigError("transfer needs n >= 3")
        for source in sources:
            results.append(_one_transfer(cfg, ctx, n, source))
    rows = [(r["n"], r["source"], r["alpha"], r["gamma"], r["T"],
             r["T_tilde"], r["F_peak"]) for r in results]
    write_table(ctx, "transfer",
                ["N", "source", "alpha", "gamma", "T", "T_tilde", "F_peak"],
                rows)
    if cfg["couplings"] == "both":
        by = {(r["n"], r["source"]): r for r in results}
        rows4 = [(n, by[(n, "experimental")]["F_peak"],
                  by[(n, "idealized")]["F_peak"],
                  by[(n, "idealized")]["T_tilde"]) for n in cfg["n_list"]]
        write_table(ctx, "transfer_summary",
                    ["N", "F_exp", "F_ideal", "T_tilde"], rows4)
    write_report(ctx, "transfer_report", {"results": results})


def cmd_search(cfg, ctx: OutputContext) -> None:
    n = cfg["n_ions"]
    j_walk, scale, alpha_used = _walk_couplings(cfg, n)
    marked = cfg["marked"] if cfg["marked"] is not None else n // 2
    if not 0 <= marked < n:
        raise ConfigError("marked site out of range")
    gamma = protocols.analytic_gamma(j_walk) if cfg["gamma"] == "auto" \
        else cfg["gamma"]
    t_max = cfg["t_max_factor"] * np.pi * np.sqrt(n)
    times, prob = protocols.run_search(j_walk, gamma, marked, t_max,
                                       n_times=cfg["n_times"])
    write_table(ctx, "search", ["t_walk_units", "marked_probability"],
                list(zip(times, prob)))
    k = int(np.argmax(prob))
    write_report(ctx, "search_report", {
        "n": n, "alpha": alpha_used, "gamma": gamma, "marked": marked,
        "peak_probability": float(prob[k]), "t_peak": float(times[k]),
        "scale_rad_s": scale,
    })


def cmd_noise(cfg, ctx: OutputContext) -> None:
    if not cfg["n_list"]:
        raise ConfigError("n_list must not be empty")
    noise_cfg = noise.NoiseConfig(t2=cfg["t2_ms"] * 1e-3,
                                  n_samples=cfg["n_samples"],
                                  rng_seed=ctx.seed,
                                  field_variance=cfg["field_variance"])
    cases = [(n, a) for a in cfg["alpha_list"] for n in cfg["n_list"]]

    def run_case(case):
        n, alpha = case
        sub = dict(cfg, couplings="experimental", alpha_target=alpha)
        j_walk, scale, alpha_used = _walk_couplings(sub, n)
        if cfg["optimize"]:
            opt = protocols.optimize_protocol(j_walk, None, 0, n - 1,
                                              budget=cfg["budget"],
                                              rng_seed=ctx.seed)
            gamma, t = opt.config.gamma, opt.config.duration
        else:
            gamma = protocols.analytic_gamma(j_walk)
            t = protocols.transfer_time(n)
        pc = protocols.ProtocolConfig(gamma=gamma, sender=0, receiver=n - 1,
                                      duration=t, marker_amplitude=scale)
        ens = noise.noisy_transfer_ensemble(j_walk, None, pc, noise_cfg,
                                            n_times=cfg["n_times"])
        return (n, alpha, alpha_used, ens.mean_at_T, ens.std_at_T,
                ens.noiseless_at_T, t / scale)

    if ctx.threads > 1:
        with ThreadPoolExecutor(max_workers=ctx.threads) as pool:
            outcomes = list(pool.map(run_case, cases))
    else:
        outcomes = [run_case(c) for c in cases]

    rows = [(n, a, mean, std, cfg["n_samples"], noise_cfg.t2)
            for (n, a, _, mean, std, _, _) in outcomes]
    write_table(ctx, "noise",
                ["N", "alpha_target", "mean_F", "std_F", "n_samples", "t2"],
                rows)
    write_report(ctx, "noise_report", {
        "t2_s": noise_cfg.t2,
        "sigma_rad_s": noise_cfg.sigma,
        "n_samples": cfg["n_samples"],
        "cases": [{"n": n, "alpha_target": a, "alpha_achieved": aa,
                   "mean_F": m, "std_F": s, "noiseless_F": f0,
                   "duration_s": dur}
                  for (n, a, aa, m, s, f0, dur) in outcomes],
    })


COMMANDS = {
    "chain": cmd_chain,
    "couplings": cmd_couplings,
    "alpha-scan": cmd_alpha_scan,
    "leakage": cmd_leakage,
    "transfer": cmd_transfer,
    "search": cmd_search,
    "noise": cmd_noise,
}

# LinAlgError subclasses ValueError, so main() catches these first and
# treats any other ValueError (rejected by a config dataclass) as a config
# error
NUMERICAL_ERRORS = (NonConvergence, UnstableChain, NoStablePoint,
                    ResonantDetuning, DegenerateFit, FitFailure,
                    StepUnderflow, np.linalg.LinAlgError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionchain",
        description="Long-range XY interactions in linear trapped-ion chains")
    parser.add_argument("--version", action="version",
                        version=f"ionchain {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key = value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--paper-fig", choices=sorted(PAPER_FIGS),
                       default=None, help="preset reproducing one figure")
        p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        if args.paper_fig is not None:
            fig_cmd, overrides = PAPER_FIGS[args.paper_fig]
            if fig_cmd != args.subcommand:
                raise ConfigError(
                    f"--paper-fig {args.paper_fig} belongs to the "
                    f"'{fig_cmd}' subcommand")
            raw = dict(raw, **overrides)
        cfg = resolve_config(args.subcommand, raw)
        ctx = make_context(args, args.subcommand, cfg)
        COMMANDS[args.subcommand](cfg, ctx)
    except ConfigError as e:
        print(f"ionchain: config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"ionchain: {e}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as e:
        print(f"ionchain: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"ionchain: config error: {e}", file=sys.stderr)
        return 2
    for path in ctx.written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
