"""Ion chain geometry: equilibrium positions, transverse phonon modes, stability.

All frequencies are angular (rad/s).  Axial positions are handled in
dimensionless units of the Coulomb length scale ell and converted to meters
on export.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import AMU, E_CHARGE, EPSILON_0


class NonConvergence(RuntimeError):
    """Equilibrium solver failed to reach the target residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"equilibrium solver did not converge: residual={residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


class UnstableChain(RuntimeError):
    """Linear chain is unstable (zig-zag transition crossed)."""


class NoStablePoint(RuntimeError):
    """No axial frequency keeps the linear chain stable."""


@dataclass(frozen=True)
class TrapConfig:
    """Physical trap and laser parameters.

    rabi_total is the total Rabi frequency Omega_total; the per-ion Rabi
    frequency is Omega_total / n_ions.
    """

    n_ions: int
    ion_mass: float        # kg
    omega_x: float         # rad/s
    omega_y: float         # rad/s
    omega_z: float         # rad/s
    delta_k: float         # 1/m
    rabi_total: float      # rad/s
    detuning_mu: float     # rad/s

    def __post_init__(self):
        if self.n_ions < 1:
            raise ValueError("n_ions must be >= 1")
        for name in ("ion_mass", "omega_x", "omega_y", "omega_z"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.omega_z >= min(self.omega_x, self.omega_y):
            raise ValueError("omega_z must be below both transverse frequencies")

    @property
    def rabi(self) -> float:
        """Per-ion Rabi frequency Omega = Omega_total / N."""
        return self.rabi_total / self.n_ions

    @property
    def omega_eff(self) -> float:
        """Effective frequency sqrt(Omega^2 + mu^2)."""
        return np.hypot(self.rabi, self.detuning_mu)

    def with_(self, **kwargs) -> "TrapConfig":
        return replace(self, **kwargs)


# Wavevector difference of counter-propagating 355 nm Raman beams,
# delta_k = 2 * (2 pi / 355 nm), the standard Yb-171 configuration.
DELTA_K_355 = 4 * np.pi / 355e-9


def reference_trap(n_ions: int, omega_z: float, detuning_mu: float = 0.0,
               mass_amu: float = 171.0) -> TrapConfig:
    """Trap with the fixed Yb-171 experimental parameters used throughout.

    omega_x = 2pi*6 MHz, omega_y = 2pi*5 MHz, Omega_total = 2pi*1 MHz,
    delta_k for counter-propagating 355 nm Raman beams.
    """
    return TrapConfig(
        n_ions=n_ions,
        ion_mass=mass_amu * AMU,
        omega_x=2 * np.pi * 6e6,
        omega_y=2 * np.pi * 5e6,
        omega_z=omega_z,
        delta_k=DELTA_K_355,
        rabi_total=2 * np.pi * 1e6,
        detuning_mu=detuning_mu,
    )


@dataclass
class ChainSolution:
    """Equilibrium positions plus transverse phonon modes.

    positions are dimensionless (units of length_scale); mode_matrix columns
    are the phonon eigenvectors b_im, mode_freqs the angular frequencies
    omega_m sorted descending (index 0 is the centre-of-mass mode).
    """

    positions: np.ndarray
    length_scale: float                      # meters
    mode_matrix: np.ndarray | None = None    # N x N, columns b_:,m
    mode_freqs: np.ndarray | None = None     # rad/s, descending

    @property
    def positions_m(self) -> np.ndarray:
        return self.positions * self.length_scale

    def to_dict(self) -> dict:
        d = {
            "length_scale_m": self.length_scale,
            "positions_dimensionless": self.positions.tolist(),
            "positions_m": self.positions_m.tolist(),
        }
        if self.mode_matrix is not None:
            d["mode_matrix"] = self.mode_matrix.tolist()
            d["mode_freqs_rad_s"] = self.mode_freqs.tolist()
        return d


def length_scale(trap: TrapConfig) -> float:
    """Coulomb chain length scale ell = (e^2 / (4 pi eps0 M omega_z^2))^(1/3)."""
    return (E_CHARGE**2 / (4 * np.pi * EPSILON_0 * trap.ion_mass
                           * trap.omega_z**2)) ** (1.0 / 3.0)


def _potential(u: np.ndarray) -> float:
    d = u[:, None] - u[None, :]
    iu = np.triu_indices(len(u), k=1)
    return 0.5 * np.sum(u**2) + np.sum(1.0 / np.abs(d[iu]))


def _gradient(u: np.ndarray) -> np.ndarray:
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def _axial_hessian(u: np.ndarray) -> np.ndarray:
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / np.abs(d) ** 3
    h = -2.0 * inv3
    np.fill_diagonal(h, 1.0 + 2.0 * np.sum(inv3, axis=1))
    return h


def solve_equilibrium(trap: TrapConfig, tol: float = 1e-13,
                      max_iter: int = 200) -> ChainSolution:
    """Minimise the dimensionless axial potential with damped Newton iteration.

    Initial guess: even spacing with half-extent scaling as N^0.56.
    """
    n = trap.n_ions
    ell = length_scale(trap)
    if n == 1:
        return ChainSolution(positions=np.zeros(1), length_scale=ell)

    u = np.linspace(-1.0, 1.0, n) * 0.48 * n**0.56
    g = _gradient(u)
    res = np.max(np.abs(g))
    for it in range(max_iter):
        if res <= tol:
            break
        step = np.linalg.solve(_axial_hessian(u), g)
        lam = 1.0
        while lam > 1e-8:
            u_new = u - lam * step
            if np.all(np.diff(u_new) > 0):
                g_new = _gradient(u_new)
                res_new = np.max(np.abs(g_new))
                if res_new < res:
                    u, g, res = u_new, g_new, res_new
                    break
            lam *= 0.5
        else:
            break
    if res > 1e-12:
        raise NonConvergence(res, max_iter)
    # enforce exact reflection symmetry of the symmetric minimiser
    u = 0.5 * (u - u[::-1])
    return ChainSolution(positions=u, length_scale=ell)


def _transverse_eigensystem(trap: TrapConfig, positions: np.ndarray,
                            omega_t: float):
    """Eigendecomposition of the transverse Hessian for trap frequency omega_t.

    Returns (omega_sq, vectors) with omega_sq in rad^2/s^2, columns sorted by
    descending frequency with a deterministic tie-break.
    """
    u = positions
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / np.abs(d) ** 3
    k = inv3.copy()
    np.fill_diagonal(k, (omega_t / trap.omega_z) ** 2 - np.sum(inv3, axis=1))
    lam, vec = np.linalg.eigh(k)
    omega_sq = lam * trap.omega_z**2
    order = np.argsort(-omega_sq, kind="stable")
    omega_sq = omega_sq[order]
    vec = vec[:, order]
    # deterministic sign and degenerate-pair ordering: largest-magnitude
    # component positive, ties broken by its index
    for m in range(vec.shape[1]):
        i = int(np.argmax(np.abs(vec[:, m])))
        if vec[i, m] < 0:
            vec[:, m] = -vec[:, m]
    return omega_sq, vec


def transverse_phonon_modes(trap: TrapConfig, chain: ChainSolution,
                            axis: str = "x") -> ChainSolution:
    """Transverse phonon modes b_im and frequencies omega_m at equilibrium.

    axis selects the transverse trap frequency; the laser couples to x.
    Raises UnstableChain if any squared frequency is non-positive.
    """
    if np.max(np.abs(_gradient(chain.positions))) > 1e-10 and trap.n_ions > 1:
        raise ValueError("positions are not an equilibrium configuration")
    omega_t = {"x": trap.omega_x, "y": trap.omega_y}[axis]
    omega_sq, vec = _transverse_eigensystem(trap, chain.positions, omega_t)
    if np.min(omega_sq) <= 0:
        raise UnstableChain(
            f"lowest transverse eigenvalue {np.min(omega_sq):.3e} <= 0")
    return ChainSolution(
        positions=chain.positions,
        length_scale=chain.length_scale,
        mode_matrix=vec,
        mode_freqs=np.sqrt(omega_sq),
    )


def is_linear_stable(trap: TrapConfig) -> tuple[bool, float]:
    """Whether the linear chain is stable against the zig-zag transition.

    Checks the softer of the two transverse axes.  Returns (stable, margin)
    with margin the lowest squared transverse mode frequency in rad^2/s^2.
    """
    if trap.n_ions == 1:
        return True, min(trap.omega_x, trap.omega_y) ** 2
    chain = solve_equilibrium(trap)
    omega_soft = min(trap.omega_x, trap.omega_y)
    omega_sq, _ = _transverse_eigensystem(trap, chain.positions, omega_soft)
    margin = float(np.min(omega_sq))
    return margin > 0, margin


def solve_chain(trap: TrapConfig) -> ChainSolution:
    """Convenience: equilibrium plus x-axis transverse modes."""
    return transverse_phonon_modes(trap, solve_equilibrium(trap))


def max_stable_axial_frequency(trap_template: TrapConfig, n_ions: int,
                               safety: float = 1.0,
                               rel_tol: float = 1e-4) -> float:
    """Largest omega_z keeping the linear chain stable, found by bisection.

    The exponential decay factor beta of the couplings decreases
    monotonically with omega_z, so the beta-minimising stable chain sits at
    the zig-zag boundary; safety > 1 backs off by that factor.
    """
    omega_soft = min(trap_template.omega_x, trap_template.omega_y)
    lo = 2 * np.pi * 1e4
    hi = 0.999 * omega_soft
    trap = trap_template.with_(n_ions=n_ions, omega_z=lo)
    ok, _ = is_linear_stable(trap)
    if not ok:
        raise NoStablePoint(f"chain unstable even at omega_z={lo:.3e}")
    if is_linear_stable(trap.with_(omega_z=hi))[0]:
        return hi / safety
    while (hi - lo) > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if is_linear_stable(trap.with_(omega_z=mid))[0]:
            lo = mid
        else:
            hi = mid
    return lo / safety
