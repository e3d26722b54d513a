"""End-to-end acceptance checks for the full pipeline.

Each criterion prints a single PASS/FAIL line; the assertion carries the
same message.  Reference values for the N=8/N=10 working points are the
published results this library reproduces.
"""
import filecmp
import functools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import minimize

import ionchain as ic
from ionchain import cli
from ionchain import leakage as lk
from ionchain import noise as nz
from ionchain import protocols as pr
from ionchain import spinphonon as sp
from ionchain import xy
from ionchain.chain import _potential, max_stable_axial_frequency


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # lets check() print one PASS/FAIL line per criterion even under
    # pytest's output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def check(num: int, ok: bool, msg: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {msg}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}")
    else:
        print(f"\n{line}")
    assert ok, f"criterion {num}: {msg}"


# ---------------------------------------------------------------------------
# shared working points


@functools.lru_cache(maxsize=None)
def auto_trap(n: int):
    """Trap at the maximal linearly stable axial frequency for n ions."""
    template = ic.reference_trap(n, 2 * np.pi * 0.5e6)
    wz = max_stable_axial_frequency(template, n)
    trap = template.with_(omega_z=wz)
    return trap, ic.solve_chain(trap)


@functools.lru_cache(maxsize=None)
def working_point(n: int, alpha: float):
    trap, sol = auto_trap(n)
    res = ic.detuning_for_alpha(trap, sol, alpha)
    return trap.with_(detuning_mu=res.mu), sol


@functools.lru_cache(maxsize=None)
def leakage_run(n: int, alpha: float, s: int = 1, modes: int = 1,
                periods: float = 4.0, n_times: int = 3000):
    """Spin-phonon leakage simulation and effective-frequency fit."""
    trap, sol = working_point(n, alpha)
    eta = ic.lamb_dicke(trap, sol)
    subset = [0]
    if modes == 2:
        weights = np.sum(np.abs(eta), axis=0) * trap.rabi \
            / np.abs(trap.omega_eff - sol.mode_freqs)
        weights[0] = -np.inf
        subset.append(int(np.argmax(weights)))
    policy = sp.TruncationPolicy(phonon_modes=tuple(subset), fock_cutoff=4)
    system = sp.SpinPhononSystem.build(trap, sol, policy, s_init=s)
    psi0 = system.initial_state((1 << s) - 1)
    delta_c = trap.omega_eff - sol.mode_freqs[0]
    times = np.linspace(0.0, periods * 2 * np.pi / delta_c, n_times)
    traj = sp.propagate(system, psi0, times)
    e_meas = sp.vacuum_overlap(traj) if s == 1 else sp.phonon_occupation(traj)
    eta_1c = abs(float(system.eta[0, 0]))
    if modes == 1:
        fit = lk.fit_effective_frequency(times, e_meas, eta_1c, trap.rabi,
                                         trap.omega_eff, sol.mode_freqs[0],
                                         scale=s)
    else:
        fit = lk.fit_effective_frequency_two_modes(
            times, e_meas, system.eta, trap.rabi, system.mode_freqs,
            trap.omega_eff, scale=s)
    return {"trap": trap, "sol": sol, "system": system, "delta_c": delta_c,
            "times": times, "e_meas": e_meas, "eta_1c": eta_1c, "fit": fit,
            "traj": traj}


@functools.lru_cache(maxsize=None)
def experimental_walk(n: int, alpha: float):
    """Normalised 4J walk matrix and its physical rate scale (rad/s)."""
    trap, sol = working_point(n, alpha)
    j_phys = xy.hop_amplitudes(ic.coupling_matrix(
        trap, ic.lamb_dicke(trap, sol), sol.mode_freqs))
    lam = float(np.linalg.eigvalsh(j_phys)[-1])
    return j_phys / lam, lam


def idealized_walk(n: int, alpha: float):
    j = pr.idealized_couplings(n, alpha)
    return j / np.linalg.eigvalsh(j)[-1]


@pytest.fixture(scope="module")
def transfer_sweep():
    """Optimised transfer over N = 8..52 for both coupling sources."""
    out = {}
    for n in range(8, 53, 4):
        row = {}
        for source in ("idealized", "experimental"):
            if source == "idealized":
                walk = idealized_walk(n, 0.2)
            else:
                walk, _ = experimental_walk(n, 0.2)
            opt = pr.optimize_protocol(walk, 0, n - 1, budget=120,
                                       rng_seed=0)
            row[source] = {"F": opt.fidelity,
                           "T_tilde": opt.config.gamma * opt.config.duration}
        out[n] = row
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_equilibrium_oracle():
    errs = []
    for n, expected in ((2, [-0.25 ** (1 / 3), 0.25 ** (1 / 3)]),
                        (3, [-1.25 ** (1 / 3), 0.0, 1.25 ** (1 / 3)])):
        sol = ic.solve_equilibrium(ic.reference_trap(n, 2 * np.pi * 1e6))
        errs.append(np.max(np.abs(sol.positions - expected)))
        x0 = np.linspace(-1, 1, n)
        res = minimize(_potential, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14,
                                "maxiter": 20000, "maxfev": 20000})
        errs.append(np.max(np.abs(sol.positions - np.sort(res.x))))
    worst = max(errs)
    check(1, worst < 1e-6,
          f"N=2/N=3 equilibrium vs analytic and brute-force minimiser, "
          f"max deviation {worst:.2e} (tol 1e-6)")


def test_criterion_02_com_invariant():
    worst = 0.0
    for n in (2, 8, 10, 24, 52):
        trap = ic.reference_trap(n, 2 * np.pi * 0.1e6)
        sol = ic.solve_chain(trap)
        worst = max(worst, abs(sol.mode_freqs[0] - trap.omega_x) / trap.omega_x)
    check(2, worst < 1e-9,
          f"highest transverse mode equals omega_x for N in "
          f"{{2,8,10,24,52}}, max relative error {worst:.2e} (tol 1e-9)")


def test_criterion_03_sector_equivalence():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def site_op(op, site, n):
        mats = [np.eye(2, dtype=complex)] * n
        mats[site] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    worst = 0.0
    for n in (4, 6, 8):
        trap = ic.reference_trap(n, 2 * np.pi * 1.0e6)
        sol = ic.solve_chain(trap)
        res = ic.detuning_for_alpha(trap, sol, 0.5)
        trap = trap.with_(detuning_mu=res.mu)
        eta = ic.lamb_dicke(trap, sol)
        j = ic.coupling_matrix(trap, eta, sol.mode_freqs)
        h = ic.local_fields(trap, eta, sol.mode_freqs)
        full = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for a in range(n):
            for b in range(n):
                if a != b:
                    full += j[a, b] * (site_op(sx, a, n) @ site_op(sx, b, n)
                                       + site_op(sy, a, n) @ site_op(sy, b, n))
            full += h[a] * site_op(sz, a, n)
        w_full, v_full = np.linalg.eigh(full)
        j_hat = float(np.max(np.abs(j)))
        times = np.linspace(0.0, 10.0 / j_hat, 6)
        for s in (1, 2):
            sector = xy.build_sector(j, h, s)
            psi0 = np.zeros(sector.dim, dtype=complex)
            psi0[0] = 1.0
            # embed sector basis states into the product space
            # (spin-up = excitation = 0 bit, qubit 0 most significant)
            embed = np.zeros((2 ** n, sector.dim), dtype=complex)
            for k, mask in enumerate(sector.basis):
                mask = int(mask)
                idx = sum((1 - ((mask >> i) & 1)) << (n - 1 - i)
                          for i in range(n))
                embed[idx, k] = 1.0
            psi_full0 = embed @ psi0
            coeff = v_full.conj().T @ psi_full0
            for t in times:
                sec_amp = embed @ xy.evolve(sector, psi0, t).amplitudes
                full_amp = v_full @ (np.exp(-1j * w_full * t) * coeff)
                worst = max(worst, float(np.max(np.abs(sec_amp - full_amp))))
    check(3, worst < 1e-9,
          f"fixed-sector evolution vs full 2^N evolution, N in {{4,6,8}}, "
          f"s in {{1,2}}, max amplitude error {worst:.2e} (tol 1e-9)")


def test_criterion_04_dyson_coefficients():
    def cquad(f, a, b):
        re = quad(lambda x: f(x).real, a, b, limit=2000, epsabs=1e-16)[0]
        im = quad(lambda x: f(x).imag, a, b, limit=2000, epsabs=1e-16)[0]
        return re + 1j * im

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        w_eff = rng.uniform(1e5, 1e7)
        w_m = rng.uniform(1e5, 1e7)
        p, q = (int(v) for v in rng.integers(0, 2, size=2))
        t = rng.uniform(1e-7, 4e-6)
        phi = lk.sign_factor(q) * w_eff + lk.sign_factor(p) * w_m
        ref = cquad(lambda x: np.exp(1j * phi * x), 0.0, t)
        err = abs(lk.dyson_alpha(w_eff, w_m, p, q, t) - ref) / t
        worst = max(worst, err)
    for _ in range(40):
        w_eff = rng.uniform(1e6, 1e7)
        w_l = rng.uniform(1e6, 1e7)
        w_m = rng.uniform(1e6, 1e7)
        r, s, p, q = (int(v) for v in rng.integers(0, 2, size=4))
        t = rng.uniform(1e-7, 4e-6)
        phi2 = lk.sign_factor(s) * w_eff + lk.sign_factor(r) * w_l

        def integrand(x):
            return lk.dyson_alpha(w_eff, w_m, p, q, x) * np.exp(1j * phi2 * x)

        ref = cquad(integrand, 0.0, t)
        err = abs(lk.dyson_beta(w_eff, w_l, w_m, r, s, p, q, t) - ref) / t**2
        worst = max(worst, err)
    check(4, worst < 1e-9,
          f"first/second-order coefficients vs quadrature on 100 randomized "
          f"sets, max scaled error {worst:.2e} (tol 1e-9)")


def test_criterion_05_leakage_envelope():
    # formula-level zeros and maxima
    eta, rabi, delta = 0.06, 2 * np.pi * 1e5, 9.3e4
    k = np.arange(8)
    amp = rabi**2 * eta**2 / delta**2
    zero_err = float(np.max(np.abs(
        lk.leakage_norm_single(eta, rabi, delta, 2 * np.pi * k / delta))))
    max_err = float(np.max(np.abs(
        lk.leakage_norm_single(eta, rabi, delta,
                               (2 * k + 1) * np.pi / delta) - amp))) / amp
    formula_ok = zero_err < 1e-12 * amp and max_err < 1e-12
    # simulated leakage stays below 1.5x the analytic envelope
    pointwise_ok, peak_ok = True, True
    details = []
    for alpha in (0.4, 0.8):
        run = leakage_run(10, alpha)
        env_shifted = lk.leakage_norm_single(
            run["eta_1c"], run["trap"].rabi,
            run["fit"].r * run["trap"].omega_eff - run["sol"].mode_freqs[0],
            run["times"])
        env_bare = lk.leakage_norm_single(run["eta_1c"], run["trap"].rabi,
                                          run["delta_c"], run["times"])
        pointwise_ok &= bool(np.all(run["e_meas"] <= 1.5 * env_shifted
                                    + 1e-18))
        peak_ok &= bool(np.max(run["e_meas"]) <= 1.5 * np.max(env_bare))
        details.append(f"alpha={alpha}: max E={np.max(run['e_meas']):.2e}")
    check(5, formula_ok and pointwise_ok and peak_ok,
          "envelope zeros/maxima exact to 1e-12; simulated E(t) <= 1.5*||E|| "
          "pointwise (shifted detuning) and at the peak (bare detuning) for "
          + "; ".join(details))


def test_criterion_06_effective_frequency_fit():
    r10 = leakage_run(10, 0.2)["fit"].r - 1.0
    r8 = leakage_run(8, 0.2)["fit"].r - 1.0
    band10 = abs(r10 - 3.21e-4) <= 0.15 * 3.21e-4
    band8 = abs(r8 - 3.38e-4) <= 0.15 * 3.38e-4
    r_s2 = leakage_run(10, 0.2, s=2)["fit"].r - 1.0
    r_s5 = leakage_run(10, 0.2, s=5)["fit"].r - 1.0
    trend = r10 > r_s2 > r_s5
    check(6, band10 and band8 and trend,
          f"fitted r-1: N=10 {r10:.3e} (ref 3.21e-4 +-15%), "
          f"N=8 {r8:.3e} (ref 3.38e-4 +-15%); decreasing with excitation "
          f"count: {r10:.3e} > {r_s2:.3e} > {r_s5:.3e}")


def test_criterion_07_renormalization_factor():
    run = leakage_run(10, 0.2)
    trap, system = run["trap"], run["system"]
    ren1 = lk.renormalized_couplings(trap, system.eta, system.mode_freqs,
                                     run["fit"].r)
    run2 = leakage_run(10, 0.2, modes=2)
    ren2 = lk.renormalized_couplings(run2["trap"], run2["system"].eta,
                                     run2["system"].mode_freqs,
                                     run2["fit"].r)
    single_ok = abs(ren1.factor_summary - 0.940) <= 0.01
    two_ok = abs(ren2.factor_summary - 0.941) <= 0.01
    # long-time model fidelity with the renormalised reference at
    # stroboscopic times t = 2 pi k / Delta'
    delta_p = run["fit"].r * trap.omega_eff - system.mode_freqs[0]
    strobe = 2 * np.pi * np.arange(1, 9) / delta_p
    traj = sp.propagate(system, system.initial_state(1), strobe)
    h_sub = ic.local_fields(trap, system.eta, system.mode_freqs)
    sector_ren = xy.build_sector(ren1.J_prime, h_sub, 1)
    psi_xy0 = np.zeros(sector_ren.dim, dtype=complex)
    psi_xy0[sector_ren.index_of(1)] = 1.0
    f_strobe = sp.model_fidelity(traj, sector_ren, psi_xy0)
    strobe_ok = bool(np.min(f_strobe) >= 0.995)
    check(7, single_ok and two_ok and strobe_ok,
          f"mean J'/J: single mode {ren1.factor_summary:.4f} (ref 0.940"
          f" +-0.01), two modes {ren2.factor_summary:.4f} (ref 0.941 +-0.01);"
          f" stroboscopic model fidelity min {np.min(f_strobe):.6f} >= 0.995")


def test_criterion_08_transfer_at_scale(transfer_sweep):
    min_ideal = min(r["idealized"]["F"] for r in transfer_sweep.values())
    max_gap = max(abs(r["idealized"]["F"] - r["experimental"]["F"])
                  for r in transfer_sweep.values())
    check(8, min_ideal >= 0.97 and max_gap <= 0.03,
          f"optimised transfer, N=8..52: min idealized fidelity "
          f"{min_ideal:.4f} (>= 0.97); max |ideal - experimental| "
          f"{max_gap:.2e} (<= 0.03)")


def test_criterion_09_sqrt_n_scaling(transfer_sweep):
    ns = np.array(sorted(transfer_sweep))
    tt = np.array([transfer_sweep[n]["idealized"]["T_tilde"] for n in ns])
    exponent = float(np.polyfit(np.log(ns), np.log(tt), 1)[0])
    check(9, 0.4 <= exponent <= 0.6,
          f"log-log fit of scaled transfer time vs N gives exponent "
          f"{exponent:.3f} (0.5 +- 0.1)")


def test_criterion_10_reduced_model_analytics():
    worst_f = max(abs(pr.analytic_transfer_fidelity(n, pr.transfer_time(n))
                      - 1.0) for n in range(4, 401))
    rng = np.random.default_rng(5)
    worst_exp = 0.0
    worst_det = 0.0
    for n in (10, 36, 120):
        m = pr.reduced_model_matrix(n)
        b = 1.0 / np.sqrt(n)
        h_tilde = m / (np.sqrt(2.0) * b)
        worst_det = max(worst_det, abs(np.linalg.det(m)))
        for t in rng.uniform(0.0, 4 * pr.transfer_time(n), 5):
            direct = expm(-1j * m * t)
            series = (np.eye(3) - 1j * np.sin(np.sqrt(2) * b * t) * h_tilde
                      + (np.cos(np.sqrt(2) * b * t) - 1.0) * h_tilde @ h_tilde)
            worst_exp = max(worst_exp, float(np.max(np.abs(direct - series))))
    check(10, worst_f < 1e-12 and worst_exp < 1e-10 and worst_det < 1e-10,
          f"analytic fidelity at T equals 1 for n=4..400 (max err "
          f"{worst_f:.1e}); 3x3 sine/cosine expansion matches the matrix "
          f"exponential (max err {worst_exp:.1e}); det = 0 "
          f"({worst_det:.1e})")


def test_criterion_11_noise_ensemble():
    grid = (8, 16, 24, 32, 40, 48)
    noise = nz.NoiseConfig(t2=10e-3, n_samples=500, rng_seed=0)
    degrade_ok, below_ok = True, True
    gaps_summary = []
    for alpha in (0.2, 0.4, 0.6):
        gaps = []
        for n in grid:
            walk, scale = experimental_walk(n, alpha)
            gamma = pr.analytic_gamma(walk)
            t = pr.transfer_time(n)
            noiseless = pr.transfer_fidelity_at(walk, gamma, t, 0, n - 1)
            acc = 0.0
            for k in range(noise.n_samples):
                fields = nz.sample_static_fields(n, noise, k) / scale
                acc += pr.transfer_fidelity_at(walk, gamma, t, 0, n - 1,
                                               extra_fields=2.0 * fields)
            mean = acc / noise.n_samples
            below_ok &= mean < noiseless
            gaps.append(noiseless - mean)
        degrade_ok &= bool(np.all(np.diff(gaps) > 0))
        gaps_summary.append(f"alpha={alpha}: gap {gaps[0]:.1e}->{gaps[-1]:.1e}")
    # zero-variance ensemble equals the noiseless run
    walk, scale = experimental_walk(8, 0.2)
    cfg = pr.ProtocolConfig(gamma=pr.analytic_gamma(walk), sender=0,
                            receiver=7, duration=pr.transfer_time(8),
                            marker_amplitude=scale)
    zv = nz.noisy_transfer_ensemble(
        walk, cfg, nz.NoiseConfig(field_variance=0.0, n_samples=3))
    zero_ok = abs(zv.mean_at_T - zv.noiseless_at_T) < 1e-12
    # standard error of the ensemble mean scales as 1/sqrt(n_samples)
    gamma = pr.analytic_gamma(walk)
    t = pr.transfer_time(8)
    fids = np.array([
        pr.transfer_fidelity_at(
            walk, gamma, t, 0, 7,
            extra_fields=2.0 * nz.sample_static_fields(8, noise, k) / scale)
        for k in range(1000)])
    ensemble_means = fids.reshape(40, 25).mean(axis=1)
    se_measured = float(np.std(ensemble_means))
    se_predicted = float(np.std(fids)) / np.sqrt(25)
    se_ok = abs(se_measured - se_predicted) <= 0.2 * se_predicted
    check(11, degrade_ok and below_ok and zero_ok and se_ok,
          "mean fidelity below noiseless with the noise gap increasing in N "
          f"({'; '.join(gaps_summary)}); zero-variance equals noiseless to "
          f"1e-12; SE over 25-sample ensembles {se_measured:.2e} vs "
          f"predicted {se_predicted:.2e} (within 20%)")


def test_criterion_12_determinism(tmp_path):
    jobs = [
        ("chain", "n_ions = 5\nomega_z_mhz = 0.9\n"),
        ("alpha-scan", "n_ions = 6\nomega_z_mhz = 0.9\nscan_points = 6\n"),
        ("leakage", "n_ions = 4\nomega_z_mhz = 1.0\nalpha_target = 0.5\n"
                    "fock_cutoff = 2\nperiods = 2\nn_times = 200\n"),
        ("transfer", "n_list = 8,12\noptimize = false\n"),
        ("noise", "n_list = 8\nalpha_list = 0.3\nn_samples = 5\n"
                  "optimize = false\n"),
    ]
    all_same = True
    compared = 0
    for name, text in jobs:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        dir_a = tmp_path / f"{name}_a"
        dir_b = tmp_path / f"{name}_b"
        for d in (dir_a, dir_b):
            rc = cli.main([name, "--config", str(cfg), "--out", str(d),
                           "--seed", "0"])
            assert rc == 0, f"{name} exited {rc}"
        for f in sorted(dir_a.iterdir()):
            compared += 1
            all_same &= filecmp.cmp(f, dir_b / f.name, shallow=False)
    check(12, all_same and compared >= 10,
          f"{compared} output files across 5 subcommands byte-identical "
          "on rerun with the same seed")
