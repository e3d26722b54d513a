"""Dyson-series coefficients, analytic leakage norms, effective-frequency
fitting and coupling renormalisation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .chain import TrapConfig
from .couplings import coupling_matrix


class FitFailure(RuntimeError):
    pass


def sign_factor(k: int) -> int:
    """f_k = (-1)^(k+1): f_0 = -1, f_1 = +1."""
    return (-1) ** (k + 1)


def _g(phi: float, t: float) -> complex:
    """(1 - e^{i phi t}) / phi with a series fallback near phi = 0."""
    x = phi * t
    if abs(x) < 1e-6:
        # (1 - e^{ix})/phi = t * (-i + x/2 + i x^2/6 + ...)
        return t * (-1j + x / 2.0 + 1j * x * x / 6.0 - x**3 / 24.0)
    return (1.0 - np.exp(1j * x)) / phi


def dyson_alpha(omega_eff: float, omega_m: float, p: int, q: int,
                t: float) -> complex:
    """alpha_m(p,q;t) = int_0^t e^{i (f_q w_eff + f_p w_m) tau} dtau.

    Closed form i(1 - e^{i phi t})/phi, phi = f_q w_eff + f_p w_m; the
    secular phi -> 0 limit is the linear-in-t term.
    """
    phi = sign_factor(q) * omega_eff + sign_factor(p) * omega_m
    return 1j * _g(phi, t)


def dyson_beta(omega_eff: float, omega_l: float, omega_m: float,
               r: int, s: int, p: int, q: int, t: float) -> complex:
    """beta_lm(r,s,p,q;t) = int_0^t alpha_m(p,q;tau) e^{i(f_s w_eff + f_r w_l) tau} dtau.

    Closed form (1/phi1) [ g(phi1+phi2, t) - g(phi2, t) ] with
    phi1 = f_q w_eff + f_p w_m and phi2 = f_s w_eff + f_r w_l; the secular
    m = l combinations reduce to the linear-in-t expression automatically.
    """
    phi1 = sign_factor(q) * omega_eff + sign_factor(p) * omega_m
    phi2 = sign_factor(s) * omega_eff + sign_factor(r) * omega_l
    if abs(phi1 * t) < 1e-6:
        # alpha ~ i t e^{i phi1 t / 2}; integrate tau e^{i(phi2+phi1/2)tau}
        phi = phi2 + 0.5 * phi1
        x = phi * t
        if abs(x) < 1e-6:
            return t * t / 2.0 * (1.0 + 2j * x / 3.0)
        e = np.exp(1j * x)
        return (t * e / (1j * phi)) - (e - 1.0) / (1j * phi) ** 2
    return (_g(phi1 + phi2, t) - _g(phi2, t)) / phi1


def leakage_norm_single(eta_1c: float, omega_rabi: float, delta_c: float,
                        t) -> np.ndarray:
    """|| E(t) || = Omega^2 eta_1c^2 (1 - cos(Delta_c t)) / (2 Delta_c^2)."""
    t = np.asarray(t, dtype=float)
    return (omega_rabi**2 * eta_1c**2 * (1.0 - np.cos(delta_c * t))
            / (2.0 * delta_c**2))


def leakage_norm_two_modes(eta: np.ndarray, omega_rabi: float,
                           mode_freqs: np.ndarray, omega_eff: float,
                           t, r: float = 1.0) -> np.ndarray:
    """Ion-averaged two-mode leakage norm.

    eta holds the two included Lamb-Dicke columns (N x 2); mode_freqs the two
    mode frequencies.  Includes the cross term oscillating at w_1 - w_2.
    r shifts the detuning of the first (near-resonant) mode only,
    Delta_1 = r * omega_eff - omega_1; the second mode keeps the bare
    detuning.
    """
    t = np.asarray(t, dtype=float)
    w1, w2 = mode_freqs
    d1 = r * omega_eff - w1
    d2 = omega_eff - w2
    e1, e2 = eta[:, 0], eta[:, 1]
    n = len(e1)
    c1 = 1.0 - np.cos(d1 * t)
    c2 = 1.0 - np.cos(d2 * t)
    cx = 1.0 - np.cos(d1 * t) - np.cos(d2 * t) + np.cos((w1 - w2) * t)
    s11 = np.sum(e1**2) / d1**2
    s12 = np.sum(e1 * e2) / (d1 * d2)
    s22 = np.sum(e2**2) / d2**2
    return omega_rabi**2 / (2.0 * n) * (s11 * c1 + s12 * cx + s22 * c2)


@dataclass
class FrequencyFit:
    r: float
    residual: float


def _fit_r(e_sim: np.ndarray, model_fn, r_bounds: tuple) -> FrequencyFit:
    """Least-squares r over model_fn(r); coarse scan then local refine.

    The objective oscillates in r, so a bounded local search alone can lock
    onto a side lobe; the 4001-point grid locates the global basin first.
    """

    def cost(r):
        return float(np.sum((model_fn(r) - e_sim) ** 2))

    grid = np.linspace(r_bounds[0], r_bounds[1], 4001)
    costs = [cost(r) for r in grid]
    k = int(np.argmin(costs))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    power = float(np.sum(e_sim**2))
    if power > 0 and res.fun > 0.5 * power:
        raise FitFailure(
            f"residual {res.fun:.3e} exceeds 50% of trace power {power:.3e}")
    return FrequencyFit(r=float(res.x), residual=float(res.fun))


def fit_effective_frequency(times: np.ndarray, e_sim: np.ndarray,
                            eta_1c: float, omega_rabi: float,
                            omega_eff: float, omega_c: float,
                            r_bounds: tuple = (0.999, 1.002),
                            scale: float = 1.0) -> FrequencyFit:
    """Fit the frequency-shift factor r in omega_eff' = r * omega_eff.

    Least squares over the full trace between e_sim and the analytic norm
    evaluated with Delta' = r*omega_eff - omega_c (amplitude recomputed with
    Delta' as well).  scale multiplies the analytic envelope (s excitations
    predict s * ||E'||).
    """

    def model(r):
        delta = r * omega_eff - omega_c
        return scale * leakage_norm_single(eta_1c, omega_rabi, delta, times)

    return _fit_r(e_sim, model, r_bounds)


def fit_effective_frequency_two_modes(times: np.ndarray, e_sim: np.ndarray,
                                      eta: np.ndarray, omega_rabi: float,
                                      mode_freqs: np.ndarray,
                                      omega_eff: float,
                                      r_bounds: tuple = (0.999, 1.002),
                                      scale: float = 1.0) -> FrequencyFit:
    """Two-mode variant: r shifts the near-resonant mode's detuning only."""

    def model(r):
        return scale * leakage_norm_two_modes(eta, omega_rabi, mode_freqs,
                                              omega_eff, times, r=r)

    return _fit_r(e_sim, model, r_bounds)


@dataclass
class RenormalizationResult:
    r: float
    J_prime: np.ndarray
    factor_summary: float       # mean of J'_ij / J_ij over pairs
    r_below_one: bool = False


def renormalized_couplings(trap: TrapConfig, eta: np.ndarray,
                           mode_freqs: np.ndarray, r: float,
                           shifted_modes=(0,),
                           mode_subset=None) -> RenormalizationResult:
    """Couplings with the time-averaged effective frequency (1+r) w_eff / 2.

    The averaged frequency is applied only to shifted_modes (the
    near-resonant mode(s)); the remaining included modes keep the bare
    omega_eff.
    """
    modes = list(range(len(mode_freqs))) if mode_subset is None \
        else list(mode_subset)
    shifted = [m for m in modes if m in set(shifted_modes)]
    plain = [m for m in modes if m not in set(shifted_modes)]
    omega_avg = 0.5 * (1.0 + r) * trap.omega_eff
    # the detuning at which omega_eff = sqrt(Omega^2 + mu^2) is omega_avg
    trap_avg = trap.with_(detuning_mu=np.sqrt(omega_avg**2 - trap.rabi**2))
    j = coupling_matrix(trap, eta, mode_freqs, mode_subset=modes)
    j_prime = coupling_matrix(trap_avg, eta, mode_freqs, mode_subset=shifted) \
        + coupling_matrix(trap, eta, mode_freqs, mode_subset=plain)
    iu = np.triu_indices(j.shape[0], k=1)
    factor = float(np.mean(j_prime[iu] / j[iu]))
    return RenormalizationResult(r=r, J_prime=j_prime, factor_summary=factor,
                                 r_below_one=r < 1.0)


def higher_subspace_scaling(s: int, eta_1c: float, omega_rabi: float,
                            omega_eff: float, omega_c: float, r: float,
                            t) -> np.ndarray:
    """Predicted phonon occupation envelope s * ||E'(t)|| for s excitations."""
    if s < 1:
        raise ValueError("s must be >= 1")
    delta = r * omega_eff - omega_c
    return s * leakage_norm_single(eta_1c, omega_rabi, delta, t)
