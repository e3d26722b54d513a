"""Command-line front end: reproducible experiments from flat config files.

Subcommands map one-to-one onto the library modules (chain, couplings,
alpha-scan, leakage, transfer, search, noise).  Config files are flat
``key = value`` text with ``#`` comments; unknown keys are rejected.  A
key's range lives in its SCHEMAS entry; checks that span several keys stay
in the subcommands.  Each subcommand takes the resolved config and the RNG
seed and returns its outputs; main() formats them all, which finds any
NaN or inf, then alone creates --out and writes them, so a run that exits
non-zero leaves no --out behind, unless a write itself fails.  All output
files carry a header with the tool version, a hash of the resolved
configuration and the RNG seed, and reruns with identical config and seed
are byte-identical.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, chain, couplings, leakage, noise, protocols, xy
from . import spinphonon as sp
from .chain import (DELTA_K_355, NoStablePoint, NonConvergence, TrapConfig,
                    UnstableChain)
from .couplings import DegenerateFit, FitConvention, ResonantDetuning
from .leakage import FitFailure
from .spinphonon import StepUnderflow
from .xy import TooLarge


class ConfigError(ValueError):
    pass


class NonFiniteReport(ArithmeticError):
    """A NaN or inf bound for a report or a CSV table: exit 1, no file."""


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


def _or(word, value, parse):
    """value for the word (any case), else parse."""
    return lambda s: value if s.lower() == word else parse(s)


def _list_of(parse):
    """A non-empty comma-separated list of parse."""
    def parse_list(s):
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ConfigError("empty list")
        return [parse(p) for p in parts]
    return parse_list


def _where(parse, ok, expected):
    """parse, then reject a value (or any list item) for which ok is false:
    'expected <expected>, got <value>'."""
    def checked(s):
        val = parse(s)
        for x in val if isinstance(val, list) else [val]:
            if not ok(x):
                raise ConfigError(f"expected {expected}, got {x}")
        return val
    return checked


def _at_least(parse, lo):
    """parse, then reject a value (or any list item) below lo or not
    finite."""
    return _where(parse, lambda x: lo <= x < np.inf, f"finite values >= {lo}")


# a finite number > 0: a time span, a factor on one, or a rate
_p_span = _where(_p_float, lambda x: 0.0 < x < np.inf, "a finite number > 0")
_p_fraction = _where(_p_float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")


def _p_choice(*options):
    def parse(s):
        if s not in options:
            raise ConfigError(f"expected one of {options}, got '{s}'")
        return s
    return parse


TRAP_SCHEMA = {
    "n_ions": (_p_int, 10),
    "mass_amu": (_p_span, 171.0),
    "omega_x_mhz": (_p_span, 6.0),
    "omega_y_mhz": (_p_span, 5.0),
    "omega_z_mhz": (_or("auto", "auto", _p_span), "auto"),
    "rabi_total_mhz": (_p_span, 1.0),
    "mu_mhz": (_or("auto", "auto", _at_least(_p_float, 0.0)), 0.0),
    "alpha_target": (_or("none", None, _p_span), None),
    "delta_k": (_p_span, DELTA_K_355),
    "angular": (_p_bool, False),
    "stability_safety": (_p_span, 1.0),
}

SCHEMAS = {
    "chain": dict(TRAP_SCHEMA),
    "couplings": dict(TRAP_SCHEMA, **{
        "n_init": (_at_least(_p_int, 0), 0),
        "fit_convention": (_p_choice(*[c.value for c in FitConvention]),
                           FitConvention.END_ION_CHAIN_INDEX.value),
        "fit_beta": (_p_bool, False),
    }),
    "alpha-scan": dict(TRAP_SCHEMA, **{
        # an alpha fit needs two distances, so three ions
        "n_ions": (_at_least(_p_int, 3), 10),
        "scan_points": (_at_least(_p_int, 1), 25),
        "mu_max_factor": (_p_span, 20.0),
    }),
    "leakage": dict(TRAP_SCHEMA, **{
        # one ion has no pair to couple
        "n_ions": (_at_least(_p_int, 2), 10),
        "modes": (_where(_p_int, lambda m: m in (1, 2), "1 or 2"), 1),
        "fock_cutoff": (_at_least(_p_int, 1), 4),
        "total_quanta": (_or("none", None, _p_int), None),
        "s_init": (_at_least(_p_int, 1), 1),
        "periods": (_p_span, 4.0),
        "n_times": (_at_least(_p_int, 2), 3000),
        "omega_c_pin_mhz": (_or("none", None, _p_span), None),
        "r_lo": (_p_float, 0.999),
        "r_hi": (_p_float, 1.002),
        "integrator": (_p_choice("spectral", "rk"), "spectral"),
    }),
    "transfer": dict(TRAP_SCHEMA, **{
        "n_list": (_at_least(_list_of(_p_int), 3), list(range(8, 53, 4))),
        "couplings": (_p_choice("idealized", "experimental", "both"),
                      "idealized"),
        "optimize": (_p_bool, True),
        "budget": (_at_least(_p_int, 1), 200),
        "box": (_p_fraction, 0.30),
    }),
    "search": dict(TRAP_SCHEMA, **{
        # a one-site walk has lambda_max = 0: no analytic gamma, no search
        "n_ions": (_at_least(_p_int, 2), 10),
        "couplings": (_p_choice("idealized", "experimental"), "idealized"),
        "marked": (_or("none", None, _at_least(_p_int, 0)), None),
        "gamma": (_or("auto", "auto", _p_span), "auto"),
        "t_max_factor": (_p_span, 1.0),
        "n_times": (_at_least(_p_int, 2), 600),
    }),
    "noise": dict(TRAP_SCHEMA, **{
        "n_list": (_at_least(_list_of(_p_int), 3), list(range(8, 53, 4))),
        "alpha_list": (_list_of(_p_span), [0.2, 0.4, 0.6]),
        "t2_ms": (_p_float, 10.0),
        "n_samples": (_p_int, 500),
        "field_variance": (_or("none", None, _p_float), None),
        "optimize": (_p_bool, True),
        "budget": (_at_least(_p_int, 1), 200),
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
    meta: tuple = ()            # (key, value) header lines


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
    """Every output's header; main() creates --out after the work, so a
    path that cannot become a writable directory is refused here, first."""
    outdir = Path(args.out)
    base = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not base.is_dir():
        raise ConfigError(f"--out {outdir}: {base} is not a directory")
    if not os.access(base, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {outdir}: {base} is not writable")
    return OutputContext(outdir=outdir, fmt=args.format, meta=(
        ("tool", f"ionchain {__version__}"),
        ("config_hash", config_hash(subcommand, cfg, args.seed, args.format)),
        ("seed", str(args.seed))))


def _fmt_column(column: tuple) -> list:
    """_fmt_value over one column, a column of one numeric kind at once:
    floats by repr, integers (bools aside) by str."""
    kinds = set(map(type, column))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return list(map(repr, map(float, column)))
    if all(issubclass(k, (int, np.integer))
           and not issubclass(k, (bool, np.bool_)) for k in kinds):
        return list(map(str, map(int, column)))
    return list(map(_fmt_value, column))


# what repr gives a non-finite float
_NON_FINITE = {"nan", "inf", "-inf"}


def format_table(ctx: OutputContext, stem: str, header: list,
                 rows: list) -> tuple:
    """(path, text) of a table: CSV, or format_report's under --format
    json.  A NaN or inf float cell raises NonFiniteReport naming the first
    in row order."""
    if ctx.fmt == "json":
        return format_report(ctx, stem, {"columns": header, "rows": rows})
    path = ctx.outdir / f"{stem}.csv"
    columns = list(zip(*rows))
    cells = [_fmt_column(column) for column in columns]
    # the first non-finite float in row order, in the columns that spell one
    bad = [(i, c) for c, (column, text) in enumerate(zip(columns, cells))
           if not _NON_FINITE.isdisjoint(text)
           for i, (x, t) in enumerate(zip(column, text))
           if t in _NON_FINITE and isinstance(x, (float, np.floating))]
    if bad:
        i, c = min(bad)
        raise NonFiniteReport(f"{path.name}: row {i}: {header[c]} is "
                              f"{cells[c][i]}")
    return path, "".join([*(f"# {key}: {val}\n" for key, val in ctx.meta),
                          ",".join(header) + "\n",
                          *(",".join(row) + "\n" for row in zip(*cells))])


def _json_safe(x, path: str = ""):
    """x in JSON types; a NaN or inf raises NonFiniteReport naming its key
    path."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        if not math.isfinite(x):
            raise NonFiniteReport(f"{path} is {float(x)}")
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return _json_safe(x.tolist(), path)
    if isinstance(x, (list, tuple)):
        return [_json_safe(v, f"{path}[{i}]") for i, v in enumerate(x)]
    if isinstance(x, dict):
        return {k: _json_safe(v, f"{path}.{k}" if path else str(k))
                for k, v in x.items()}
    return x


def format_report(ctx: OutputContext, stem: str, payload: dict) -> tuple:
    """(path, text) of a JSON report; a NaN or inf raises NonFiniteReport
    naming its key path."""
    path = ctx.outdir / f"{stem}.json"
    try:
        doc = _json_safe({"meta": dict(ctx.meta), **payload})
    except NonFiniteReport as e:
        raise NonFiniteReport(f"{path.name}: {e}") from None
    return path, json.dumps(doc, indent=2, sort_keys=True,
                            allow_nan=False) + "\n"


def write_table(path: Path, text: str) -> Path:
    """Write one formatted output and return its path."""
    with open(path, "w", newline="\n") as f:
        f.write(text)
    return path


# a report is written alike; its own name lets a tracer tell the two apart
write_report = write_table


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


def solve_trap(cfg):
    """Trap and chain solution for one configuration, before any detuning;
    an oversized chain is refused before the axial bisection and the
    equilibrium."""
    chain.refuse_chain(cfg["n_ions"])
    trap = build_trap(cfg)
    return trap, chain.solve_chain(trap)


def resolve_working_point(cfg, trap_and_chain=None):
    """Trap, chain solution and detuning for one configuration.

    alpha_target takes precedence over mu_mhz; mu_mhz = auto selects the
    minimum usable detuning; a numeric mu_mhz below it runs as given, with
    mu_below_min set in info.  trap_and_chain, the solve_trap result of a
    configuration that differs at most in alpha_target or mu_mhz, skips the
    omega_z bisection and the equilibrium.
    """
    if cfg["alpha_target"] is not None and cfg["n_ions"] < 3:
        raise ConfigError(f"an alpha fit needs n_ions >= 3, got "
                          f"{cfg['n_ions']}")
    trap, sol = trap_and_chain or solve_trap(cfg)
    info = {"omega_z_rad_s": trap.omega_z,
            "mu_min_rad_s": couplings.min_detuning(trap, sol)}
    if cfg["alpha_target"] is not None:
        res = couplings.detuning_for_alpha(trap, sol, cfg["alpha_target"])
        trap = trap.with_(detuning_mu=res.mu)
        info.update(alpha_target=cfg["alpha_target"],
                    alpha_achieved=res.alpha_achieved,
                    alpha_target_unreachable=res.target_unreachable,
                    detuning_steps=res.steps)
    elif cfg["mu_mhz"] == "auto":
        trap = trap.with_(detuning_mu=info["mu_min_rad_s"])
    else:
        trap = trap.with_(detuning_mu=cfg["mu_mhz"] * _freq_scale(cfg))
    info["mu_rad_s"] = trap.detuning_mu
    info["mu_below_min"] = bool(trap.detuning_mu < info["mu_min_rad_s"])
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
# subcommands: each maps (config, seed) to its outputs in write order, a
# report as (stem, payload dict) and a table as (stem, (header, rows))

def cmd_chain(cfg, seed: int) -> list:
    trap, sol = solve_trap(cfg)
    rows = [(i, u, z) for i, (u, z) in
            enumerate(zip(sol.positions, sol.positions_m))]
    return [("chain_report", {"trap": _trap_dict(trap),
                              "solution": sol.to_dict()}),
            ("positions", (["ion", "u_dimensionless", "z_m"], rows))]


def cmd_couplings(cfg, seed: int) -> list:
    trap, sol, info = resolve_working_point(cfg)
    model = couplings.build_coupling_model(
        trap, sol, n_init=cfg["n_init"],
        convention=FitConvention(cfg["fit_convention"]),
        fit_beta=cfg["fit_beta"])
    pos = sol.positions_m
    rows = [(i, j, j - i, abs(pos[j] - pos[i]), model.J[i, j])
            for i in range(trap.n_ions) for j in range(i + 1, trap.n_ions)]
    return [("couplings_report", {"trap": _trap_dict(trap),
                                  "working_point": info,
                                  "model": model.to_dict()}),
            ("couplings", (["i", "j", "index_distance", "axial_distance_m",
                            "J_rad_s"], rows))]


def cmd_alpha_scan(cfg, seed: int) -> list:
    trap, sol = solve_trap(cfg)
    mu_min = couplings.min_detuning(trap, sol)
    mu_max = cfg["mu_max_factor"] * sol.mode_freqs[0]
    # a geometric grid cannot start at mu_min = 0 (a strong Rabi frequency)
    mu_grid = np.geomspace(mu_min, mu_max, cfg["scan_points"]) if mu_min > 0 \
        else np.linspace(0.0, mu_max, cfg["scan_points"])
    # the Lamb-Dicke matrix does not depend on mu
    eta = couplings.lamb_dicke(trap, sol)
    rows = []
    for mu in mu_grid:
        t = trap.with_(detuning_mu=float(mu))
        j = couplings.coupling_matrix(t, eta, sol.mode_freqs)
        fit = couplings.fit_alpha_beta(j)
        rows.append((float(mu), t.omega_eff, fit.alpha))
    return [("alpha_scan", (["mu_rad_s", "omega_eff_rad_s", "alpha"], rows)),
            ("alpha_scan_report", {"trap": _trap_dict(trap),
                                   "mu_min_rad_s": mu_min,
                                   "omega_com_rad_s": sol.mode_freqs[0]})]


def _second_mode(trap: TrapConfig, eta: np.ndarray,
                 mode_freqs: np.ndarray) -> int:
    """Most significant non-COM mode: largest summed |eta| Omega / |Delta_m|."""
    weights = np.sum(np.abs(eta), axis=0) * trap.rabi \
        / np.abs(trap.omega_eff - mode_freqs)
    weights[0] = -np.inf
    return int(np.argmax(weights))


def cmd_leakage(cfg, seed: int) -> list:
    if cfg["alpha_target"] is None and cfg["mu_mhz"] == 0.0:
        raise ConfigError("leakage needs alpha_target or a nonzero mu_mhz")
    s = cfg["s_init"]
    if s > cfg["n_ions"]:
        raise ConfigError("s_init out of range")
    if cfg["total_quanta"] is not None and cfg["total_quanta"] < s:
        # the initial state alone holds s_init quanta
        raise ConfigError(f"total_quanta ({cfg['total_quanta']}) must be "
                          f">= s_init ({s})")
    r_bounds = (cfg["r_lo"], cfg["r_hi"])
    if not (np.all(np.isfinite(r_bounds)) and r_bounds[0] < r_bounds[1]):
        raise ConfigError(f"the fit window needs finite r_lo < r_hi, got "
                          f"r_lo = {r_bounds[0]}, r_hi = {r_bounds[1]}")
    # the block's size needs the mode count alone, so an oversized one is
    # refused before the chain solve picks the modes
    policy = sp.TruncationPolicy(phonon_modes=tuple(range(cfg["modes"])),
                                 fock_cutoff=cfg["fock_cutoff"],
                                 total_quanta_cutoff=cfg["total_quanta"])
    sp.refuse_parity_block(cfg["n_ions"], policy, s)
    if cfg["n_ions"] > xy.MASK_SITES:
        raise ConfigError(f"leakage's bitmask bases hold at most "
                          f"{xy.MASK_SITES} ions, got {cfg['n_ions']}")
    trap, sol, info = resolve_working_point(cfg)

    pinned = cfg["omega_c_pin_mhz"] is not None
    if pinned:
        freqs = sol.mode_freqs.copy()
        freqs[0] = cfg["omega_c_pin_mhz"] * _freq_scale(cfg)
        sol = replace(sol, mode_freqs=freqs)
    # the modes are chosen here alone, COM first: everything below reads
    # their columns from system.eta and system.mode_freqs. The pin moves
    # mode 0 alone, which _second_mode never picks
    subset = [0]
    if cfg["modes"] == 2:
        subset.append(_second_mode(trap, couplings.lamb_dicke(trap, sol),
                                   sol.mode_freqs))

    policy = replace(policy, phonon_modes=tuple(subset))
    system = sp.SpinPhononSystem.build(trap, sol, policy, s_init=s)
    eta, freqs = system.eta, system.mode_freqs
    psi0 = system.initial_state((1 << s) - 1)

    omega_c = freqs[0]
    delta_c = trap.omega_eff - omega_c
    if delta_c <= 0:
        raise ResonantDetuning(
            f"omega_eff={trap.omega_eff:.6e} below omega_c={omega_c:.6e}")
    times = np.linspace(0.0, cfg["periods"] * 2 * np.pi / delta_c,
                        cfg["n_times"])
    traj = sp.propagate(system, psi0, times, method=cfg["integrator"])
    e_vac = sp.vacuum_overlap(traj)
    nbar = sp.phonon_occupation(traj)
    diagnostics = sp.truncation_diagnostics(traj)
    e_meas = e_vac if s == 1 else nbar

    if cfg["modes"] == 1:
        fit = leakage.fit_effective_frequency(
            times, e_meas, abs(float(eta[0, 0])), trap.rabi,
            trap.omega_eff, omega_c, r_bounds=r_bounds, scale=s)
    else:
        fit = leakage.fit_effective_frequency_two_modes(
            times, e_meas, eta, trap.rabi, freqs, trap.omega_eff,
            r_bounds=r_bounds, scale=s)
    # s times the analytic envelope, at r = 1 and at the fitted r
    env, env_shifted = fit.model(1.0), fit.model(fit.r)

    ren = leakage.renormalized_couplings(trap, eta, freqs, fit.r)
    f_bare = sp.model_fidelity(traj, ren.J)
    f_ren = sp.model_fidelity(traj, ren.J_prime)

    rows = list(zip(times, e_vac, nbar, env, env_shifted, f_bare, f_ren))
    iu = np.triu_indices(trap.n_ions, k=1)
    return [("leakage", (["t_seconds", "E_sim", "nbar", "E_norm",
                          "E_norm_shifted", "F_bare", "F_renormalized"],
                         rows)),
            ("leakage_report", {
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
        "per_pair_factors": (ren.J_prime[iu] / ren.J[iu]).tolist(),
        **diagnostics,
        "fit_residual_over_power": (fit.residual / fit.power
                                    if fit.power > 0 else 0.0),
    })]


def _walk_couplings(cfg, n: int, trap_and_chain=None):
    """Normalised walk matrix for one chain length; experimental or ideal.

    xy.hop_amplitudes(J), the walk matrix of the physical XY Hamiltonian,
    over its largest eigenvalue: the analytic gamma is 1 and scaled times
    compare across N.  Returns (J_walk, scale_rad_s, alpha_used,
    detuning_steps); scale_rad_s converts walk time units to seconds, and it
    and detuning_steps (alpha evaluations of the detuning bisection) are None
    for idealized couplings.  trap_and_chain goes to resolve_working_point.
    """
    alpha = cfg["alpha_target"] if cfg["alpha_target"] is not None else 0.2
    ideal, steps = cfg["couplings"] == "idealized", None
    if ideal:
        j = protocols.idealized_couplings(n, alpha)
    else:
        sub = dict(cfg, n_ions=n, alpha_target=alpha)
        trap, sol, info = resolve_working_point(sub, trap_and_chain)
        j = xy.hop_amplitudes(couplings.coupling_matrix(
            trap, couplings.lamb_dicke(trap, sol), sol.mode_freqs))
        alpha, steps = info["alpha_achieved"], info["detuning_steps"]
    lam = 1.0 / protocols.analytic_gamma(j)
    return j / lam, None if ideal else lam, alpha, steps


def _protocol_point(cfg, seed: int, j_walk: np.ndarray, n: int,
                    **opt_kwargs):
    """(gamma, T, optimizer result or None) for transfer from 0 to n - 1.

    j_walk is the normalised walk of _walk_couplings.  With optimize = true
    the optimizer, given opt_kwargs, tunes (gamma, T) around the analytic
    point; otherwise that point: gamma = 1 and T = pi sqrt(n/2).
    """
    if not cfg["optimize"]:
        return 1.0, protocols.transfer_time(n), None
    opt = protocols.optimize_protocol(j_walk, 0, n - 1, budget=cfg["budget"],
                                      rng_seed=seed, **opt_kwargs)
    return opt.config.gamma, opt.config.duration, opt


def _one_transfer(cfg, seed: int, n: int, source: str):
    sub = dict(cfg, couplings=source)
    j_walk, scale, alpha_used, steps = _walk_couplings(sub, n)
    gamma, t, opt = _protocol_point(cfg, seed, j_walk, n, box=cfg["box"])
    fid = opt.fidelity if opt is not None else \
        protocols.transfer_fidelity_at(j_walk, gamma, t, 0, n - 1)
    return {"n": n, "source": source, "alpha": alpha_used,
            "detuning_steps": steps, "gamma": gamma, "T": t,
            "T_tilde": gamma * t, "F_peak": fid, "scale_rad_s": scale,
            **_optimizer_stats(opt)}


def _optimizer_stats(opt) -> dict:
    """Report fields of an optimize_protocol run, null without one."""
    return {key: getattr(opt, key, None)
            for key in ("n_evaluations", "n_gamma_solves", "seed_fidelity")}


def cmd_transfer(cfg, seed: int) -> list:
    # the largest walk is refused before any chain is solved
    protocols.refuse_walk(max(cfg["n_list"]))
    sources = {"idealized": ["idealized"], "experimental": ["experimental"],
               "both": ["idealized", "experimental"]}[cfg["couplings"]]
    results = [_one_transfer(cfg, seed, n, source)
               for n in cfg["n_list"] for source in sources]
    rows = [(r["n"], r["source"], r["alpha"], r["gamma"], r["T"],
             r["T_tilde"], r["F_peak"]) for r in results]
    outputs = [("transfer", (["N", "source", "alpha", "gamma", "T",
                              "T_tilde", "F_peak"], rows))]
    if cfg["couplings"] == "both":
        by = {(r["n"], r["source"]): r for r in results}
        rows4 = [(n, by[(n, "experimental")]["F_peak"],
                  by[(n, "idealized")]["F_peak"],
                  by[(n, "idealized")]["T_tilde"]) for n in cfg["n_list"]]
        outputs.append(("transfer_summary",
                        (["N", "F_exp", "F_ideal", "T_tilde"], rows4)))
    return outputs + [("transfer_report", {"results": results})]


def cmd_search(cfg, seed: int) -> list:
    n = cfg["n_ions"]
    marked = cfg["marked"] if cfg["marked"] is not None else n // 2
    if marked >= n:
        raise ConfigError("marked site out of range")
    protocols.refuse_walk(n)
    j_walk, scale, alpha_used, _ = _walk_couplings(cfg, n)
    gamma = 1.0 if cfg["gamma"] == "auto" else cfg["gamma"]
    t_max = cfg["t_max_factor"] * np.pi * np.sqrt(n)
    times, prob = protocols.run_search(j_walk, gamma, marked, t_max,
                                       n_times=cfg["n_times"])
    k = int(np.argmax(prob))
    return [("search", (["t_walk_units", "marked_probability"],
                        list(zip(times, prob)))),
            ("search_report", {
                "n": n, "alpha": alpha_used, "gamma": gamma,
                "marked": marked, "peak_probability": float(prob[k]),
                "t_peak": float(times[k]), "scale_rad_s": scale})]


def cmd_noise(cfg, seed: int) -> list:
    # the largest ensemble and walk are refused before any chain is solved
    noise.check_ensemble_size(max(cfg["n_list"]), cfg["n_samples"])
    protocols.refuse_walk(max(cfg["n_list"]))
    noise_cfg = noise.NoiseConfig(t2=cfg["t2_ms"] * 1e-3,
                                  n_samples=cfg["n_samples"], rng_seed=seed,
                                  field_variance=cfg["field_variance"])
    cases = [(n, a) for a in cfg["alpha_list"] for n in cfg["n_list"]]
    # each sample's field is drawn once, at the longest chain; a case reads
    # its first N sites
    fields = noise.static_field_block(max(cfg["n_list"]), noise_cfg)
    # the trap and its chain depend on N, not on alpha: solved once per N
    chains = {n: solve_trap(dict(cfg, n_ions=n))
              for n in dict.fromkeys(cfg["n_list"])}

    outcomes = []
    for n, alpha in cases:
        sub = dict(cfg, couplings="experimental", alpha_target=alpha)
        j_walk, scale, alpha_used, steps = _walk_couplings(sub, n, chains[n])
        gamma, t, opt = _protocol_point(cfg, seed, j_walk, n)
        pc = protocols.ProtocolConfig(gamma=gamma, sender=0, receiver=n - 1,
                                      duration=t, marker_amplitude=scale)
        ens = noise.noisy_transfer_ensemble(j_walk, pc, noise_cfg, fields)
        outcomes.append({"n": n, "alpha_target": alpha,
                         "alpha_achieved": alpha_used, "detuning_steps": steps,
                         "mean_F": ens.mean_at_T, "std_F": ens.std_at_T,
                         "noiseless_F": ens.noiseless_at_T,
                         "duration_s": t / scale, **_optimizer_stats(opt)})

    rows = [(c["n"], c["alpha_target"], c["mean_F"], c["std_F"],
             cfg["n_samples"], noise_cfg.t2) for c in outcomes]
    return [("noise", (["N", "alpha_target", "mean_F", "std_F", "n_samples",
                        "t2"], rows)),
            ("noise_report", {"t2_s": noise_cfg.t2,
                              "sigma_rad_s": noise_cfg.sigma,
                              "n_samples": cfg["n_samples"],
                              "cases": outcomes})]


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
# treats any other ValueError (a ConfigError, or a value a config dataclass
# rejects) as a config error. ArithmeticError is NonFiniteReport or the
# float range exhausted (FloatingPointError under main()'s errstate)
NUMERICAL_ERRORS = (NonConvergence, UnstableChain, NoStablePoint,
                    ResonantDetuning, DegenerateFit, FitFailure,
                    StepUnderflow, TooLarge, np.linalg.LinAlgError,
                    ArithmeticError)


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: the common flags may come before or
    after it."""
    parser = argparse.ArgumentParser(
        prog="ionchain",
        description="Long-range XY interactions in linear trapped-ion chains")
    parser.add_argument("--version", action="version",
                        version=f"ionchain {__version__}")
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", default=None,
                        help="flat key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--paper-fig", choices=sorted(PAPER_FIGS),
                        default=None, help="preset reproducing one figure")
    # accepted at 1 alone, for the benchmark harness, which passes it
    parser.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads != 1:
            raise ConfigError(f"--threads must be 1, got {args.threads}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
        # overflow, division by zero and invalid values: numerical failures
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            outputs = COMMANDS[args.subcommand](cfg, args.seed)
        # all formatted, so checked for NaN and inf, before --out is made;
        # written through the module globals, which a tracer may wrap
        files = [(write_report, *format_report(ctx, stem, out))
                 if isinstance(out, dict)
                 else (write_table, *format_table(ctx, stem, *out))
                 for stem, out in outputs]
        ctx.outdir.mkdir(parents=True, exist_ok=True)
        paths = [write(path, text) for write, path, text in files]
    except OSError as e:
        print(f"ionchain: {e}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as e:
        print(f"ionchain: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"ionchain: config error: {e}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
