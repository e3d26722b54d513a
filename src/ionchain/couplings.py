"""XY couplings from trap parameters: Lamb-Dicke matrix, J_ij, h_j, power-law
fits and detuning selection.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import ChainSolution, TrapConfig
from .constants import HBAR


class ResonantDetuning(RuntimeError):
    """omega_eff is too close to a phonon mode frequency."""


class DegenerateFit(RuntimeError):
    """Fewer than two distinct pair distances available for the fit."""


class FitConvention(str, Enum):
    END_ION_CHAIN_INDEX = "end_ion_chain_index"
    ALL_PAIRS_CHAIN_INDEX = "all_pairs_chain_index"
    END_ION_AXIAL = "end_ion_axial"
    CENTRE_ION_CHAIN_INDEX = "centre_ion_chain_index"


@dataclass
class FitResult:
    alpha: float
    beta: float
    residual: float
    n_negative: int = 0     # |J| used for this many pairs


@dataclass
class CouplingModel:
    """Coupling data for one trap configuration and detuning."""

    eta: np.ndarray            # N x M Lamb-Dicke matrix
    J: np.ndarray              # N x N, rad/s, symmetric, zero diagonal
    h: np.ndarray              # N, rad/s
    omega_eff: float           # rad/s
    alpha_fit: float
    beta_fit: float
    fit_convention: FitConvention

    def to_dict(self) -> dict:
        return {
            "eta": self.eta.tolist(),
            "J_rad_s": self.J.tolist(),
            "h_rad_s": self.h.tolist(),
            "omega_eff_rad_s": self.omega_eff,
            "alpha_fit": self.alpha_fit,
            "beta_fit": self.beta_fit,
            "fit_convention": self.fit_convention.value,
        }


def lamb_dicke(trap: TrapConfig, chain: ChainSolution) -> np.ndarray:
    """eta_im = delta_k * b_im * sqrt(hbar / (2 M omega_m))."""
    b = chain.mode_matrix
    w = chain.mode_freqs
    return trap.delta_k * b * np.sqrt(HBAR / (2.0 * trap.ion_mass * w))[None, :]


def _check_resonance(omega_eff: float, mode_freqs: np.ndarray,
                     eps_res: float) -> None:
    bad = np.abs(omega_eff - mode_freqs) < eps_res * mode_freqs
    if np.any(bad):
        m = int(np.argmax(bad))
        raise ResonantDetuning(
            f"omega_eff={omega_eff:.6e} within {eps_res:.1e} of mode "
            f"{m} at {mode_freqs[m]:.6e} rad/s")


def coupling_matrix(trap: TrapConfig, eta: np.ndarray, mode_freqs: np.ndarray,
                    mode_subset=None, eps_res: float = 1e-5) -> np.ndarray:
    """J_ij = sum_m Omega^2 eta_im eta_jm omega_m / (8 (omega_eff^2 - omega_m^2))."""
    modes = np.arange(len(mode_freqs)) if mode_subset is None \
        else np.asarray(mode_subset, dtype=int)
    w = mode_freqs[modes]
    _check_resonance(trap.omega_eff, w, eps_res)
    e = eta[:, modes]
    weights = w / (8.0 * (trap.omega_eff**2 - w**2))
    j = trap.rabi**2 * (e * weights[None, :]) @ e.T
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return j


def local_fields(trap: TrapConfig, eta: np.ndarray, mode_freqs: np.ndarray,
                 n_init: int = 0, mode_subset=None,
                 eps_res: float = 1e-5) -> np.ndarray:
    """h_j = sum_m Omega^2 eta_jm^2 omega_eff / (4 (omega_eff^2 - omega_m^2)) (2n+1)."""
    modes = np.arange(len(mode_freqs)) if mode_subset is None \
        else np.asarray(mode_subset, dtype=int)
    w = mode_freqs[modes]
    _check_resonance(trap.omega_eff, w, eps_res)
    e = eta[:, modes]
    weights = trap.omega_eff / (4.0 * (trap.omega_eff**2 - w**2))
    return trap.rabi**2 * (2 * n_init + 1) * (e**2) @ weights


def _fit_pairs(n: int, convention: FitConvention, positions=None):
    """(i, j, r) triples selected by the fit convention."""
    if convention == FitConvention.END_ION_CHAIN_INDEX:
        i = np.zeros(n - 1, dtype=int)
        j = np.arange(1, n)
        r = j.astype(float)
    elif convention == FitConvention.CENTRE_ION_CHAIN_INDEX:
        c = n // 2
        j = np.array([k for k in range(n) if k != c])
        i = np.full(len(j), c)
        r = np.abs(j - c).astype(float)
    elif convention == FitConvention.ALL_PAIRS_CHAIN_INDEX:
        i, j = np.triu_indices(n, k=1)
        r = (j - i).astype(float)
    elif convention == FitConvention.END_ION_AXIAL:
        if positions is None:
            raise ValueError("axial convention requires positions")
        i = np.zeros(n - 1, dtype=int)
        j = np.arange(1, n)
        r = np.abs(positions[j] - positions[0])
    else:
        raise ValueError(f"unknown convention {convention}")
    return i, j, r


def fit_alpha_beta(J: np.ndarray,
                   convention: FitConvention = FitConvention.END_ION_CHAIN_INDEX,
                   fit_beta: bool = False,
                   positions: np.ndarray | None = None) -> FitResult:
    """Least-squares fit ln|J| = c - alpha ln r - beta r over the pair set.

    Pure power-law mode (fit_beta=False) constrains beta = 0.  Negative J
    entries enter via |J| and are counted in n_negative.
    """
    n = J.shape[0]
    if n < 3:
        raise DegenerateFit("need N >= 3")
    i, j, r = _fit_pairs(n, convention, positions)
    vals = J[i, j]
    n_negative = int(np.sum(vals < 0))
    mags = np.abs(vals)
    keep = mags > 0
    r, mags = r[keep], mags[keep]
    if len(np.unique(r)) < 2:
        raise DegenerateFit("fewer than 2 distinct distances")
    y = np.log(mags)
    cols = [np.ones_like(r), -np.log(r)]
    if fit_beta:
        cols.append(-r)
    a = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - y) ** 2)))
    beta = float(coef[2]) if fit_beta else 0.0
    return FitResult(alpha=float(coef[1]), beta=beta, residual=resid,
                     n_negative=n_negative)


def build_coupling_model(trap: TrapConfig, chain: ChainSolution,
                         n_init: int = 0,
                         convention: FitConvention = FitConvention.END_ION_CHAIN_INDEX,
                         fit_beta: bool = False) -> CouplingModel:
    eta = lamb_dicke(trap, chain)
    j = coupling_matrix(trap, eta, chain.mode_freqs)
    h = local_fields(trap, eta, chain.mode_freqs, n_init=n_init)
    if trap.n_ions >= 3:
        fit = fit_alpha_beta(j, convention, fit_beta=fit_beta,
                             positions=chain.positions_m)
        alpha, beta = fit.alpha, fit.beta
    else:
        alpha, beta = 0.0, 0.0
    return CouplingModel(eta=eta, J=j, h=h, omega_eff=trap.omega_eff,
                         alpha_fit=alpha, beta_fit=beta,
                         fit_convention=convention)


def min_detuning(trap: TrapConfig, chain: ChainSolution) -> float:
    """Smallest usable detuning mu_min.

    Defined by omega_eff(mu_min) = 3 Omega eta_com + omega_com, with eta_com
    the (uniform) coupling of each ion to the centre-of-mass mode.
    """
    omega_com = chain.mode_freqs[0]
    eta = lamb_dicke(trap, chain)
    eta_com = float(np.abs(eta[0, 0]))
    target = 3.0 * trap.rabi * eta_com + omega_com
    return float(np.sqrt(target**2 - trap.rabi**2))


def _alpha_at_mu(trap: TrapConfig, chain: ChainSolution, mu: float,
                 convention: FitConvention) -> float:
    t = trap.with_(detuning_mu=mu)
    eta = lamb_dicke(t, chain)
    j = coupling_matrix(t, eta, chain.mode_freqs)
    return fit_alpha_beta(j, convention).alpha


@dataclass
class DetuningResult:
    mu: float
    alpha_achieved: float
    target_unreachable: bool


def detuning_for_alpha(trap: TrapConfig, chain: ChainSolution,
                       alpha_target: float,
                       convention: FitConvention = FitConvention.END_ION_CHAIN_INDEX,
                       tol: float = 1e-3,
                       mu_max_factor: float = 20.0) -> DetuningResult:
    """Bisection on mu over [mu_min, mu_max] to hit a target power-law alpha.

    alpha(mu) is monotonically non-decreasing on this interval for
    reference-parameter chains; when mu_min binds, the result is clamped there
    and flagged.
    """
    if alpha_target <= 0:
        raise ValueError("alpha_target must be > 0")
    mu_lo = min_detuning(trap, chain)
    mu_hi = mu_max_factor * chain.mode_freqs[0]
    a_lo = _alpha_at_mu(trap, chain, mu_lo, convention)
    if a_lo >= alpha_target:
        return DetuningResult(mu=mu_lo, alpha_achieved=a_lo,
                              target_unreachable=True)
    a_hi = _alpha_at_mu(trap, chain, mu_hi, convention)
    if a_hi <= alpha_target:
        return DetuningResult(mu=mu_hi, alpha_achieved=a_hi,
                              target_unreachable=True)
    while True:
        mu_mid = 0.5 * (mu_lo + mu_hi)
        a_mid = _alpha_at_mu(trap, chain, mu_mid, convention)
        if abs(a_mid - alpha_target) < tol or (mu_hi - mu_lo) < 1e-6 * mu_lo:
            return DetuningResult(mu=mu_mid, alpha_achieved=a_mid,
                                  target_unreachable=False)
        if a_mid < alpha_target:
            mu_lo = mu_mid
        else:
            mu_hi = mu_mid

