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
    mean_at_T: float
    std_at_T: float
    noiseless_at_T: float


def noisy_transfer_ensemble(J: np.ndarray, h: np.ndarray | None,
                            config: protocols.ProtocolConfig,
                            noise: NoiseConfig) -> EnsembleResult:
    """Mean/std of the transfer fidelity at T over static-field samples.

    Each sample adds 2*field_j to the protocol diagonal (z-field convention
    h_j sigma_j^z in the single-excitation sector, global shift dropped).
    The protocol Hamiltonian runs in marker units; sampled fields are rad/s
    and are converted with the configured marker amplitude.  Samples are
    diagonalised and propagated to T in stacks, a chunk at a time.
    """
    # the noiseless protocol, the same sector run_transfer propagates; each
    # sample perturbs a copy of its matrix
    sector = xy.build_single_excitation(protocols.search_hamiltonian(
        J, config.gamma, [config.sender, config.receiver], h=h))
    n = sector.dim
    psi0 = np.zeros(n, dtype=complex)
    psi0[config.sender] = 1.0
    diag = np.diag_indices(n)

    def fidelity_at_T(w, v):
        # (w, v) may carry a leading stack axis, one eigensystem per sample
        amps = xy.spectral(w, v, psi0, [config.duration],
                           rows=config.receiver)
        return np.abs(amps[..., 0]) ** 2

    # a chunk's stacked Hamiltonians stay within 2^14 float64 elements
    chunk = max(1, 2**14 // (n * n))
    fids = np.empty(noise.n_samples)
    for start in range(0, noise.n_samples, chunk):
        stop = min(start + chunk, noise.n_samples)
        fields = np.array([sample_static_fields(n, noise, k)
                           for k in range(start, stop)])
        # one eigh over the stack of sample Hamiltonians
        hams = np.repeat(sector.H[None], stop - start, axis=0)
        hams[:, diag[0], diag[1]] += 2.0 * (fields / config.marker_amplitude)
        fids[start:stop] = fidelity_at_T(*np.linalg.eigh(hams))
    # two passes over deviations from the first sample: no cancellation for
    # fidelities near 1, and coinciding samples give exactly zero spread
    std = (fids - fids[0]).std()
    noiseless = fidelity_at_T(*sector.eigensystem())
    return EnsembleResult(mean_at_T=float(fids.mean()), std_at_T=float(std),
                          noiseless_at_T=float(noiseless))
