"""Marked-site state transfer and spatial search in the single-excitation
subspace, with the analytic reduced model and derivative-free tuning of
(gamma, T).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import xy


class DegenerateSpectrum(Warning):
    pass


@dataclass
class ProtocolConfig:
    gamma: float
    sender: int
    receiver: int
    duration: float                 # in units where marker amplitude = 1
    marker_amplitude: float = 1.0   # rad/s, physical scale of the marker

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        if self.gamma <= 0 or self.duration <= 0:
            raise ValueError("gamma and duration must be > 0")


@dataclass
class ProtocolReport:
    fidelity_peak: float
    t_peak: float
    times: np.ndarray
    fidelity_trace: np.ndarray
    scaled_time: float              # gamma * T
    gamma_used: float
    analytic_gamma: float

    def to_dict(self) -> dict:
        return {
            "fidelity_peak": self.fidelity_peak,
            "t_peak": self.t_peak,
            "scaled_time": self.scaled_time,
            "gamma_used": self.gamma_used,
            "analytic_gamma": self.analytic_gamma,
        }


def idealized_couplings(n: int, alpha: float) -> np.ndarray:
    """J_ij = |i - j|^(-alpha), zero diagonal."""
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(d, 1.0)
    j = d ** (-alpha)
    np.fill_diagonal(j, 0.0)
    return j


def search_hamiltonian(h_walk: np.ndarray, gamma: float, marked_sites,
                       h: np.ndarray | None = None) -> np.ndarray:
    """gamma * H plus unit projectors on the marked sites.

    Local z fields h_j sigma_j^z, if given, add 2 h_j to the diagonal (the
    single-excitation sector with the global shift dropped).
    """
    marked = list(marked_sites)
    if len(set(marked)) != len(marked):
        raise ValueError("marked sites must be distinct")
    n = h_walk.shape[0]
    hs = gamma * np.array(h_walk, dtype=float)
    for m in marked:
        if not 0 <= m < n:
            raise ValueError(f"marked site {m} out of range")
        hs[m, m] += 1.0
    if h is not None:
        hs[np.diag_indices(n)] += 2.0 * np.asarray(h)
    return hs


def analytic_gamma(h_walk: np.ndarray, gap_warning: list | None = None) -> float:
    """gamma = 1 / lambda_max so that gamma * lambda_max = 1."""
    w = np.linalg.eigvalsh(h_walk)
    lam = w[-1]
    if len(w) > 1 and (lam - w[-2]) < 1e-12 * abs(lam) and gap_warning is not None:
        gap_warning.append(DegenerateSpectrum("top eigenvalue nearly degenerate"))
    return 1.0 / lam


def transfer_time(n: int, marker_amplitude: float = 1.0) -> float:
    """T = pi sqrt(n/2) in units where the marker amplitude is 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return np.pi * np.sqrt(n / 2.0) / marker_amplitude


def analytic_transfer_fidelity(n: int, t) -> np.ndarray:
    """Reduced 3-level model: F(t) = (b^2/2) sin^2(sqrt(2) b t) + sin^2(b t / sqrt(2)),
    with b = 1/sqrt(n)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    b = 1.0 / np.sqrt(n)
    t = np.asarray(t, dtype=float)
    return (b**2 / 2.0) * np.sin(np.sqrt(2.0) * b * t) ** 2 \
        + np.sin(b * t / np.sqrt(2.0)) ** 2


def reduced_model_matrix(n: int) -> np.ndarray:
    """The 3x3 nearly-degenerate-subspace matrix (identity part dropped)."""
    b = 1.0 / np.sqrt(n)
    c = b * np.sqrt(1.0 - 2.0 * b**2)
    return np.array([
        [b**2, b**2, c],
        [b**2, b**2, c],
        [c, c, -2.0 * b**2],
    ])


def run_transfer(J: np.ndarray, h: np.ndarray | None,
                 config: ProtocolConfig, n_times: int = 600,
                 t_max_factor: float = 1.0) -> ProtocolReport:
    """Evolve |w> under gamma*H + P_w + P_f and record fidelity onto |f>.

    h defaults to None: the effective local fields are assumed compensated.
    The trace covers [0, t_max_factor * duration].
    """
    sector = xy.build_single_excitation(search_hamiltonian(
        J, config.gamma, [config.sender, config.receiver], h=h))
    psi0 = np.zeros(sector.dim, dtype=complex)
    psi0[config.sender] = 1.0
    times = np.linspace(0.0, t_max_factor * config.duration, n_times)
    trace = np.abs(xy.spectral(*sector.eigensystem(), psi0, times,
                               rows=config.receiver)) ** 2
    k = int(np.argmax(trace))
    gamma_seed = analytic_gamma(J)
    return ProtocolReport(
        fidelity_peak=float(trace[k]), t_peak=float(times[k]),
        times=times, fidelity_trace=trace,
        scaled_time=config.gamma * config.duration,
        gamma_used=config.gamma, analytic_gamma=gamma_seed)


def transfer_fidelity_at(J: np.ndarray, gamma: float, t: float,
                         sender: int, receiver: int,
                         h: np.ndarray | None = None,
                         extra_fields: np.ndarray | None = None) -> float:
    """|<f| exp(-i H_s t) |w>|^2 at a single (gamma, t)."""
    hs = search_hamiltonian(J, gamma, [sender, receiver], h=h)
    if extra_fields is not None:
        hs = hs + np.diag(extra_fields)
    psi0 = np.zeros(len(hs))
    psi0[sender] = 1.0
    amp = xy.spectral(*np.linalg.eigh(hs), psi0, [t], rows=receiver)
    return float(np.abs(amp[0]) ** 2)


def run_search(J: np.ndarray, gamma: float, marked: int,
               t_max: float, n_times: int = 600,
               h: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the uniform superposition under gamma*H + |w><w|.

    Returns (times, probability on the marked site).
    """
    n = J.shape[0]
    sector = xy.build_single_excitation(
        search_hamiltonian(J, gamma, [marked], h=h))
    psi0 = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    times = np.linspace(0.0, t_max, n_times)
    amps = xy.spectral(*sector.eigensystem(), psi0, times, rows=marked)
    return times, np.abs(amps) ** 2


@dataclass
class OptimizeResult:
    config: ProtocolConfig
    report: ProtocolReport
    n_evaluations: int
    seed_fidelity: float


def optimize_protocol(J: np.ndarray, h: np.ndarray | None,
                      sender: int, receiver: int,
                      box: float = 0.30, budget: int = 200,
                      rng_seed: int = 0) -> OptimizeResult:
    """Derivative-free maximisation of transfer fidelity over (gamma, T).

    Pattern search with a Latin-hypercube-style scatter seed inside a
    +-box window around the analytic values gamma = 1/lambda_max and
    T = pi sqrt(n/2).  Deterministic for a given rng_seed; the returned
    point is never worse than the analytic seed.
    """
    n = J.shape[0]
    gamma0 = analytic_gamma(J)
    t0 = transfer_time(n)
    evals = [0]

    def objective(g, t):
        evals[0] += 1
        return transfer_fidelity_at(J, g, t, sender, receiver, h=h)

    best = (gamma0, t0, objective(gamma0, t0))
    seed_fid = best[2]

    rng = np.random.default_rng(rng_seed)
    n_scatter = min(24, budget // 4)
    # stratified scatter over the box
    lows = np.linspace(-box, box, n_scatter, endpoint=False)
    g_frac = rng.permutation(lows) + box / n_scatter * rng.random(n_scatter)
    t_frac = rng.permutation(lows) + box / n_scatter * rng.random(n_scatter)
    for gf, tf in zip(g_frac, t_frac):
        g, t = gamma0 * (1 + gf), t0 * (1 + tf)
        f = objective(g, t)
        if f > best[2]:
            best = (g, t, f)

    step_g, step_t = box * gamma0 / 2, box * t0 / 2
    while evals[0] < budget and (step_g / gamma0 > 1e-5 or step_t / t0 > 1e-5):
        g, t, f = best
        improved = False
        for dg, dt in ((step_g, 0), (-step_g, 0), (0, step_t), (0, -step_t)):
            if evals[0] >= budget:
                break
            cand = (g + dg, t + dt)
            if cand[0] <= 0 or cand[1] <= 0:
                continue
            fc = objective(*cand)
            if fc > f:
                best = (cand[0], cand[1], fc)
                improved = True
                break
        if not improved:
            step_g /= 2
            step_t /= 2

    g, t, f = best
    config = ProtocolConfig(gamma=g, sender=sender, receiver=receiver,
                            duration=t)
    report = run_transfer(J, h, config, t_max_factor=1.0)
    # report the fidelity at exactly T as the protocol value
    report = ProtocolReport(
        fidelity_peak=f, t_peak=t, times=report.times,
        fidelity_trace=report.fidelity_trace, scaled_time=g * t,
        gamma_used=g, analytic_gamma=gamma0)
    return OptimizeResult(config=config, report=report,
                          n_evaluations=evals[0], seed_fidelity=seed_fid)
