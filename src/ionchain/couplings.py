"""XY couplings from trap parameters: Lamb-Dicke matrix, J_ij, h_j, power-law
fits and detuning selection.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import ChainSolution, TrapConfig
from .constants import HBAR

# omega_eff may come no closer to a mode than this fraction of its frequency
RESONANCE_TOL = 1e-5


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


def _resonant(omega_eff: float, mode_freqs: np.ndarray) -> np.ndarray:
    return np.abs(omega_eff - mode_freqs) < RESONANCE_TOL * mode_freqs


def _check_resonance(omega_eff: float, mode_freqs: np.ndarray) -> None:
    bad = _resonant(omega_eff, mode_freqs)
    if np.any(bad):
        m = int(np.argmax(bad))
        raise ResonantDetuning(
            f"omega_eff={omega_eff:.6e} within {RESONANCE_TOL:.1e} of mode "
            f"{m} at {mode_freqs[m]:.6e} rad/s")


def coupling_matrix(trap: TrapConfig, eta: np.ndarray,
                    mode_freqs: np.ndarray) -> np.ndarray:
    """J_ij = sum_m Omega^2 eta_im eta_jm omega_m / (8 (omega_eff^2 - omega_m^2)).

    The sum runs over the columns of eta; pass a column slice for a partial
    sum (no columns give zeros).
    """
    _check_resonance(trap.omega_eff, mode_freqs)
    weights = mode_freqs / (8.0 * (trap.omega_eff**2 - mode_freqs**2))
    j = trap.rabi**2 * (eta * weights[None, :]) @ eta.T
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return j


def local_fields(trap: TrapConfig, eta: np.ndarray, mode_freqs: np.ndarray,
                 n_init: int = 0) -> np.ndarray:
    """h_j = sum_m Omega^2 eta_jm^2 omega_eff / (4 (omega_eff^2 - omega_m^2)) (2n+1),
    summed over the columns of eta."""
    _check_resonance(trap.omega_eff, mode_freqs)
    weights = trap.omega_eff / (4.0 * (trap.omega_eff**2 - mode_freqs**2))
    return trap.rabi**2 * (2 * n_init + 1) * (eta**2) @ weights


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

    Pure power-law mode (fit_beta=False) constrains beta = 0 and fits in
    closed form (_power_law_fit).  Negative J entries enter via |J| and are
    counted in n_negative.
    """
    n = J.shape[0]
    if n < 3:
        raise DegenerateFit("need N >= 3")
    i, j, r = _fit_pairs(n, convention, positions)
    vals = J[i, j]
    n_negative = int(np.sum(vals < 0))
    if not fit_beta:
        alpha, resid = _power_law_fit(r, vals)
        return FitResult(alpha=alpha, beta=0.0, residual=resid,
                         n_negative=n_negative)
    r, y = _log_magnitudes(r, vals)
    a = np.column_stack([np.ones_like(r), -np.log(r), -r])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - y) ** 2)))
    return FitResult(alpha=float(coef[1]), beta=float(coef[2]),
                     residual=resid, n_negative=n_negative)


def _log_magnitudes(r: np.ndarray, vals: np.ndarray) -> tuple:
    """(r, ln|vals|) over the pairs with vals != 0; DegenerateFit unless
    at least two distinct distances remain."""
    mags = np.abs(vals)
    keep = mags > 0
    r = r[keep]
    if len(np.unique(r)) < 2:
        raise DegenerateFit("fewer than 2 distinct distances")
    return r, np.log(mags[keep])


def _power_law_fit(r: np.ndarray, vals: np.ndarray) -> tuple:
    """(alpha, rms residual) of the least-squares line ln|vals| =
    c - alpha ln r over the pairs with vals != 0, in closed form: alpha is
    minus the regression slope of ln|vals| on ln r."""
    r, y = _log_magnitudes(r, vals)
    u = np.log(r)
    du, dy = u - u.mean(), y - y.mean()
    alpha = -float(du @ dy) / float(du @ du)
    return alpha, float(np.sqrt(np.mean((dy + alpha * du) ** 2)))


def _power_law_alpha(r: np.ndarray):
    """A function of vals that returns _power_law_fit(r, vals)[0] bit for
    bit, with ln r, its centring and du . du computed once for every vals.

    Where every |val| is > 0 and r has two distinct distances, one call
    takes ln|vals|, one centring and one dot product, and no residual;
    otherwise (a pair dropped, or DegenerateFit) it is _power_law_fit's.
    """
    u = np.log(r)
    du = u - u.mean()
    dudu = float(du @ du)
    distinct = len(np.unique(r)) >= 2

    def alpha(vals: np.ndarray) -> float:
        mags = np.abs(vals)
        # false for a 0 and for a NaN, the pairs _log_magnitudes drops
        if not (distinct and mags.min() > 0):
            return _power_law_fit(r, vals)[0]
        y = np.log(mags)
        return -float(du @ (y - y.mean())) / dudu
    return alpha


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
    the (uniform) coupling of each ion to the centre-of-mass mode.  Where
    Omega alone already exceeds that bound, every mu >= 0 meets it and
    mu_min = 0.  Where that lies inside the resonance guard (at large N), the
    guard's edge, raised by ulps until _check_resonance passes, is used.
    """
    omega_com = chain.mode_freqs[0]
    eta = lamb_dicke(trap, chain)
    eta_com = float(np.abs(eta[0, 0]))
    target = 3.0 * trap.rabi * eta_com + omega_com
    mu = float(np.sqrt(max(target**2 - trap.rabi**2, 0.0)))
    edge = omega_com * (1.0 + RESONANCE_TOL)
    while np.any(_resonant(np.hypot(trap.rabi, mu), chain.mode_freqs)):
        mu = float(np.sqrt(max(edge**2 - trap.rabi**2, 0.0)))
        edge = np.nextafter(edge, np.inf)
    return mu


@dataclass
class DetuningResult:
    mu: float
    alpha_achieved: float
    target_unreachable: bool
    steps: int              # alpha evaluations of the bisection


def detuning_for_alpha(trap: TrapConfig, chain: ChainSolution,
                       alpha_target: float,
                       convention: FitConvention = FitConvention.END_ION_CHAIN_INDEX,
                       tol: float = 1e-3) -> DetuningResult:
    """Bisection on mu over [mu_min, 20 omega_com] for a target power-law alpha.

    alpha(mu) is monotonically non-decreasing on this interval for
    reference-parameter chains; when mu_min binds, the result is clamped there
    and flagged.  Each step is the fit_alpha_beta alpha of the resonance-
    checked coupling_matrix at mu on the fit convention's pairs alone, whose
    Lamb-Dicke products, distances and ln r terms of the closed-form fit
    (_power_law_alpha) are built once per call.  The bracket stops
    below 1e-6 of max(mu_lo, omega_com), so one from mu_min = 0 ends too.
    """
    if alpha_target <= 0:
        raise ValueError("alpha_target must be > 0")
    n = trap.n_ions
    if n < 3:
        raise DegenerateFit("need N >= 3")
    i, j, r = _fit_pairs(n, convention, chain.positions_m)
    eta = lamb_dicke(trap, chain)
    products = eta[i] * eta[j]
    fit = _power_law_alpha(r)
    w = chain.mode_freqs
    steps = 0

    def alpha_at(mu):
        nonlocal steps
        steps += 1
        omega_eff = np.hypot(trap.rabi, mu)
        _check_resonance(omega_eff, w)
        return fit(trap.rabi**2
                   * (products @ (w / (8.0 * (omega_eff**2 - w**2)))))

    mu_lo = min_detuning(trap, chain)
    mu_hi = 20.0 * w[0]
    a_lo = alpha_at(mu_lo)
    if a_lo >= alpha_target:
        return DetuningResult(mu_lo, a_lo, True, steps)
    a_hi = alpha_at(mu_hi)
    if a_hi <= alpha_target:
        return DetuningResult(mu_hi, a_hi, True, steps)
    while True:
        mu_mid = 0.5 * (mu_lo + mu_hi)
        a_mid = alpha_at(mu_mid)
        if abs(a_mid - alpha_target) < tol \
                or (mu_hi - mu_lo) < 1e-6 * max(mu_lo, w[0]):
            return DetuningResult(mu_mid, a_mid, False, steps)
        if a_mid < alpha_target:
            mu_lo = mu_mid
        else:
            mu_hi = mu_mid
