"""Monte Carlo static dephasing noise: random longitudinal fields sampled
once per run, ensemble statistics of protocol fidelity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocols, xy


def check_ensemble_size(n: int, n_samples: int) -> None:
    """Refuse, before anything is allocated or sampled, an ensemble whose
    n x n_samples field block and n x (n_samples + 1) offset block, both
    alive while it propagates, exceed xy.WORK_BYTES together."""
    xy.refuse(f"{n_samples} samples at N = {n} in field and offset blocks",
              8 * n * (2 * n_samples + 1))


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
        if not self.t2 > 0:
            raise ValueError("t2 must be > 0")
        if self.field_variance is not None \
                and not 0 <= self.field_variance < np.inf:
            raise ValueError("field_variance must be finite and >= 0")
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


def static_field_block(n: int, config: NoiseConfig) -> np.ndarray:
    """n x n_samples block whose column k is sample_static_fields(n, config,
    k): drawn once per run at the longest chain, of which a chain of m <= n
    sites reads the first m rows (each sample's standard_normal(m) is a
    prefix of its standard_normal(n))."""
    fields = np.empty((n, config.n_samples))
    for k in range(config.n_samples):
        fields[:, k] = sample_static_fields(n, config, k)
    return fields


@dataclass
class EnsembleResult:
    mean_at_T: float
    std_at_T: float
    noiseless_at_T: float


def noisy_transfer_ensemble(J: np.ndarray, config: protocols.ProtocolConfig,
                            noise: NoiseConfig,
                            fields: np.ndarray | None = None) -> EnsembleResult:
    """Mean/std of the transfer fidelity at T over static-field samples.

    Each sample adds 2*field_j to the protocol diagonal (z-field convention
    h_j sigma_j^z in the single-excitation sector, global shift dropped).
    The protocol Hamiltonian runs in marker units; sampled fields are rad/s
    and are converted with the configured marker amplitude.  All samples
    share the protocol matrix and differ only in their diagonal, so one
    xy.chebyshev call propagates them together to T, with the noiseless
    protocol as a zero-offset column.  fields, a static_field_block of
    noise with at least len(J) rows, supplies the samples; without it the
    block is drawn here.  check_ensemble_size refuses an oversized ensemble
    first.
    """
    check_ensemble_size(len(J), noise.n_samples)
    sector = xy.build_single_excitation(protocols.search_hamiltonian(
        J, config.gamma, [config.sender, config.receiver]))
    n = sector.dim
    psi0 = protocols._site_state(n, config.sender)
    if fields is None:
        fields = static_field_block(n, noise)
    # column 0 stays the noiseless protocol, column k + 1 is sample k
    offsets = np.zeros((n, noise.n_samples + 1))
    np.divide(fields[:n], config.marker_amplitude, out=offsets[:, 1:])
    offsets[:, 1:] *= 2.0
    amps = xy.chebyshev(sector.H, psi0, config.duration, diag=offsets,
                        rows=config.receiver)
    noiseless, fids = np.abs(amps[0]) ** 2, np.abs(amps[1:]) ** 2
    # two passes over deviations from the first sample: no cancellation for
    # fidelities near 1, and coinciding samples give exactly zero spread
    std = (fids - fids[0]).std()
    return EnsembleResult(mean_at_T=float(fids.mean()), std_at_T=float(std),
                          noiseless_at_T=float(noiseless))
