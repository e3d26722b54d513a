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
from itertools import combinations

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
    ordered ascending; index maps bitmask -> row.
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
    dim = len(basis)
    ham = np.zeros((dim, dim))
    index = {int(m): k for k, m in enumerate(basis)}
    for k, mask in enumerate(basis):
        mask = int(mask)
        if h is not None:
            occ = np.array([(mask >> i) & 1 for i in range(n)])
            ham[k, k] = float(np.dot(h, 2 * occ - 1))
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            for j in range(n):
                if (mask >> j) & 1:
                    continue
                new = mask ^ (1 << i) | (1 << j)
                ham[index[new], k] += hop[i, j]
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
    None; an int rows gives the 1-D trace of that one amplitude.
    """
    coeffs = _times_real(psi0, v)
    phases = np.exp(-1j * np.outer(times, w))
    out_rows = v if rows is None else v[rows]
    return _times_real(phases * coeffs, out_rows.T)


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
    occ = np.zeros(sector.n_sites)
    probs = np.abs(psi) ** 2
    for k, mask in enumerate(sector.basis):
        mask = int(mask)
        for i in range(sector.n_sites):
            if (mask >> i) & 1:
                occ[i] += probs[k]
    return occ
