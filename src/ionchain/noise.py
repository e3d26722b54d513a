"""Monte Carlo static dephasing noise: random longitudinal fields sampled
once per run, ensemble statistics of protocol fidelity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocols, xy


@dataclass(frozen=True)
class NoiseConfig:
    """Static Gaussian dephasing.

    field_variance defaults to 1/t2 with t2 in seconds and fields in rad/s
    (sigma = 10 rad/s at t2 = 10 ms); the literal reading of "variance 1/t2"
    is dimensionally ambiguous, so an explicit override is accepted.
    """

    t2: float = 10e-3               # seconds
    n_samples: int = 500
    rng_seed: int = 0
    field_variance: float | None = None     # rad^2/s^2

    def __post_init__(self):
        if self.t2 <= 0:
            raise ValueError("t2 must be > 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def sigma(self) -> float:
        var = self.field_variance if self.field_variance is not None \
            else 1.0 / self.t2
        return float(np.sqrt(var))


def sample_static_fields(n: int, config: NoiseConfig,
                         sample_index: int) -> np.ndarray:
    """One static field vector, rad/s; deterministic in (seed, sample_index)."""
    rng = np.random.default_rng([config.rng_seed, sample_index])
    return config.sigma * rng.standard_normal(n)


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_trace: np.ndarray
    std_trace: np.ndarray
    mean_at_T: float
    std_at_T: float
    noiseless_at_T: float


def noisy_transfer_ensemble(J: np.ndarray, h: np.ndarray | None,
                            config: protocols.ProtocolConfig,
                            noise: NoiseConfig,
                            n_times: int = 200) -> EnsembleResult:
    """Pointwise mean/std of the transfer fidelity over static-field samples.

    Each sample adds 2*field_j to the protocol diagonal (z-field convention
    h_j sigma_j^z in the single-excitation sector, global shift dropped).
    The protocol Hamiltonian runs in marker units; sampled fields are rad/s
    and are converted with the configured marker amplitude.  Samples are
    diagonalised and propagated in stacks, a chunk at a time.
    """
    hs0 = protocols.search_hamiltonian(
        J, config.gamma, [config.sender, config.receiver], h=h)
    n = J.shape[0]
    times = np.linspace(0.0, config.duration, n_times)
    psi0 = np.zeros(n, dtype=complex)
    psi0[config.sender] = 1.0
    diag = np.diag_indices(n)

    def traces_for(extra_diag):
        # one eigh over the stack of sample Hamiltonians
        hams = np.repeat(hs0[None], len(extra_diag), axis=0)
        hams[:, diag[0], diag[1]] += extra_diag
        return np.abs(xy.spectral(*np.linalg.eigh(hams), psi0, times,
                                  rows=config.receiver)) ** 2

    # a chunk's largest temporaries, its phases e^{-iwt} and its stacked
    # Hamiltonians, stay within 2^14 elements; at 2^16 (1 MB complex) every
    # chunk faulted in fresh pages and the ensemble ran slower
    chunk = max(1, 2**14 // (max(n_times, n) * n))
    traces = np.empty((noise.n_samples, n_times))
    for start in range(0, noise.n_samples, chunk):
        stop = min(start + chunk, noise.n_samples)
        fields = np.array([sample_static_fields(n, noise, k)
                           for k in range(start, stop)])
        traces[start:stop] = traces_for(
            2.0 * (fields / config.marker_amplitude))
    mean = traces.mean(axis=0)
    # two passes over deviations from the first sample: no cancellation for
    # fidelities near 1, and coinciding samples give exactly zero spread
    std = (traces - traces[0]).std(axis=0)
    noiseless = traces_for(np.zeros((1, n)))[0]
    return EnsembleResult(times=times, mean_trace=mean, std_trace=std,
                          mean_at_T=float(mean[-1]), std_at_T=float(std[-1]),
                          noiseless_at_T=float(noiseless[-1]))
