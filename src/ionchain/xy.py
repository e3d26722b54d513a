"""Effective XY Hamiltonian in fixed-excitation sectors.

build_single_excitation takes its matrix as the walk Hamiltonian itself;
build_sector hops with hop_amplitudes(J), the sector matrix elements of the
spin form.  Protocol timing formulas are written against walk matrices.

Every spectral propagation in the package goes through spectral(); the
Krylov branch of evolve() and the spin-phonon Runge-Kutta cross-check are
the only other integrators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy.sparse.linalg import expm_multiply

# above this dimension evolve() switches from dense spectral propagation to
# sparse Krylov stepping
DENSE_LIMIT = 4096


class BasisMismatch(ValueError):
    pass


@dataclass
class XYSector:
    """Fixed-excitation block of the XY Hamiltonian.

    basis holds occupation bitmasks (bit i set = excitation on site i),
    ordered ascending, so a bitmask's row is its searchsorted position.
    """

    n_sites: int
    excitations: int
    basis: np.ndarray          # int64 bitmasks
    H: np.ndarray              # Hermitian, rad/s
    _eig: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, mask: int) -> int:
        i = int(np.searchsorted(self.basis, mask))
        if i >= len(self.basis) or self.basis[i] != mask:
            raise KeyError(f"bitmask {mask:b} not in sector")
        return i

    def eigensystem(self):
        if self._eig is None:
            self._eig = np.linalg.eigh(self.H)
        return self._eig


@dataclass
class StateVector:
    amplitudes: np.ndarray
    sector: XYSector | None = None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def sector_basis(n_sites: int, s: int) -> np.ndarray:
    masks = [sum(1 << i for i in c) for c in combinations(range(n_sites), s)]
    return np.array(sorted(masks), dtype=np.int64)


def site_bits(masks: np.ndarray, n_sites: int) -> np.ndarray:
    """len(masks) x n_sites array of occupation bits, column i = bit i."""
    return (np.asarray(masks, dtype=np.int64)[:, None]
            >> np.arange(n_sites)) & 1


def hop_amplitudes(J: np.ndarray) -> np.ndarray:
    """4 J_ij: the fixed-excitation matrix elements of
    sum_{i != j} J_ij (sx sx + sy sy).

    Each unordered pair appears twice in the sum and sx sx + sy sy hops with
    amplitude 2.
    """
    return 4.0 * np.asarray(J, dtype=float)


def build_single_excitation(J: np.ndarray) -> XYSector:
    """N x N walk Hamiltonian: off-diagonal J_ij as hop amplitudes.

    Any diagonal already present in J (marker projectors, local fields) is
    kept.
    """
    n = J.shape[0]
    return XYSector(n_sites=n, excitations=1, basis=sector_basis(n, 1),
                    H=np.array(J, dtype=float))


def build_sector(J: np.ndarray, h: np.ndarray | None, s: int) -> XYSector:
    """Fixed-excitation block of sum_{i != j} J (sx sx + sy sy) + sum_j h sz.

    hop_amplitudes(J) between bitmasks related by moving one excitation;
    diagonal sum_j h_j * (+1 if occupied else -1).
    """
    n = J.shape[0]
    if not 0 <= s <= n:
        raise ValueError("excitation count out of range")
    hop = hop_amplitudes(J)
    basis = sector_basis(n, s)
    bits = site_bits(basis, n)
    # site by site, in site order, as a sequential dot product adds
    diag = np.zeros(len(basis))
    if h is not None:
        for i in range(n):
            diag += h[i] * (2 * bits[:, i] - 1)
    ham = np.diag(diag)
    for i, j in permutations(range(n), 2):
        # move the excitation on i to the empty site j; each (i, j) writes
        # its own matrix elements, none written twice
        src = np.flatnonzero(bits[:, i] & (1 - bits[:, j]))
        ham[np.searchsorted(basis, basis[src] ^ (1 << i) | (1 << j)),
            src] = hop[i, j]
    return XYSector(n_sites=n, excitations=s, basis=basis, H=ham)


def _times_real(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """z @ m for complex z and real m, as two real matrix products."""
    return z.real @ m + 1j * (z.imag @ m)


def spectral(w: np.ndarray, v: np.ndarray, psi0: np.ndarray, times,
             rows=None) -> np.ndarray:
    """Amplitudes of v e^{-iwt} v^T psi0 over a time grid.

    (w, v) is the eigensystem of a real symmetric H, so the eigenvectors in
    the columns of v are real and both products with v run as real GEMMs.
    Returns a len(times) x len(rows) matrix, all basis states when rows is
    None; an int rows gives the 1-D trace of that one amplitude.  A leading
    stack axis on (w, v), as np.linalg.eigh returns for a stack of
    Hamiltonians, propagates psi0 under each and leads the result too.
    """
    coeffs = _times_real(psi0, v)
    phases = np.exp(-1j * np.asarray(times, dtype=float)[:, None]
                    * w[..., None, :])
    phases *= coeffs[..., None, :]
    single = rows is not None and np.ndim(rows) == 0
    out_rows = v if rows is None else v[..., np.atleast_1d(rows), :]
    amps = _times_real(phases, np.swapaxes(out_rows, -1, -2))
    return amps[..., 0] if single else amps


def evolve(sector: XYSector, psi0: np.ndarray, t: float) -> StateVector:
    """psi(t) = exp(-i H t) psi0, spectral for small dims, Krylov above."""
    if sector.dim <= DENSE_LIMIT:
        amps = spectral(*sector.eigensystem(), psi0, [t])[0]
    else:
        from scipy.sparse import csr_matrix
        amps = expm_multiply(csr_matrix(-1j * t * sector.H), psi0.astype(complex))
    return StateVector(amplitudes=amps, sector=sector)


def evolve_grid(sector: XYSector, psi0: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """States on a time grid, rows psi(t_k)."""
    return spectral(*sector.eigensystem(), psi0, times)


def occupations(psi: np.ndarray, sector: XYSector) -> np.ndarray:
    """Expectation of the excitation number on each site."""
    return np.abs(psi) ** 2 @ site_bits(sector.basis, sector.n_sites)
