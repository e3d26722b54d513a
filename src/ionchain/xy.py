"""Effective XY Hamiltonian in fixed-excitation sectors.

build_single_excitation takes its matrix as the walk Hamiltonian itself;
build_sector hops with hop_amplitudes(J), the sector matrix elements of the
spin form.  Protocol timing formulas are written against walk matrices.

Every spectral propagation in the package goes through spectral().  The
other integrators are chebyshev(), which propagates without an eigensystem
(the noise ensemble and the large-sector branch of evolve()), and the
spin-phonon Runge-Kutta cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

# above this dimension evolve() switches from dense spectral propagation to
# the eigensystem-free Chebyshev series
DENSE_LIMIT = 4096
# Bessel coefficients below this size end the Chebyshev series
CHEBYSHEV_TOL = 1e-17


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


def bessel_j(x: float) -> np.ndarray:
    """J_0(x), ..., J_M(x), with J_m below CHEBYSHEV_TOL for every m > M.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    far past the turning point m ~ x where J_m starts its superexponential
    decay, and normalised with J_0 + 2 sum_k J_{2k} = 1.
    """
    ax = abs(float(x))
    if ax == 0.0:
        return np.ones(1)
    # J_m(x) ~ Ai((m - x) (2/x)^(1/3)) past the turning point: 20 x^(1/3)
    # terms past it, J has fallen far below any double-precision term
    start = int(ax + 20.0 * ax ** (1.0 / 3.0)) + 30
    j = np.zeros(start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / ax) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            # the recurrence grows towards small m; rescale before overflow
            j[k - 1:] *= 1e-250
    j = j[:start + 1] / (j[0] + 2.0 * j[2::2].sum())
    if x < 0:
        j[1::2] *= -1.0
    return j[:np.flatnonzero(np.abs(j) >= CHEBYSHEV_TOL)[-1] + 1]


def gershgorin_interval(h: np.ndarray, diag: np.ndarray) -> tuple:
    """(lo, hi) enclosing the spectrum of h + diag(d) for every column d.

    Gershgorin discs: centres on the diagonal, radii the off-diagonal row
    sums of |h|.
    """
    centres = np.diag(h)[:, None] + diag
    radii = (np.abs(h).sum(axis=1) - np.abs(np.diag(h)))[:, None]
    return float((centres - radii).min()), float((centres + radii).max())


def chebyshev(h0: np.ndarray, psi0: np.ndarray, t: float, diag=None,
              rows=None) -> np.ndarray:
    """Amplitudes of e^{-i(h0 + diag(d)) t} psi0 for each column d of diag.

    Chebyshev series with Bessel coefficients (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)): no eigensystem, only products with the real
    symmetric h0 and elementwise products with the real n x S offset block
    diag, all columns at once, over the spectral interval of
    gershgorin_interval.  A complex psi0 propagates its real and imaginary
    parts as two real columns.  Returns the amplitudes at rows (all basis
    states when None; an int selects one), with a leading axis over the
    columns of diag when diag is given.
    """
    offsets = np.zeros((len(psi0), 1)) if diag is None \
        else np.asarray(diag, dtype=float)
    lo, hi = gershgorin_interval(h0, offsets)
    # h0 + diag(d) = c + a x with the spectrum of x inside [-1, 1]; a
    # one-point interval means h0 + diag(d) = c exactly, and any a works
    c, a = 0.5 * (hi + lo), (0.5 * (hi - lo) or 1.0)
    # e^{-i a t x} = sum_m (2 - delta_m0) (-i)^m J_m(a t) T_m(x)
    coeffs = bessel_j(a * t).astype(complex)
    coeffs *= (-1j) ** np.arange(len(coeffs))
    coeffs[1:] *= 2.0
    parts = [psi0.real, psi0.imag] if np.iscomplexobj(psi0) else [psi0]
    # columns part-major: every offset column for each part of psi0
    n_cols = offsets.shape[1]
    shift = np.tile(offsets - c, len(parts))
    sel = slice(None) if rows is None else np.atleast_1d(rows)

    def x_times(v):
        # (h0 + diag(d) - c) v / a, with no scaled copy of h0
        return (h0 @ v + shift * v) / a

    # T_0 psi0, T_1 psi0, then T_{m+1} = 2 x T_m - T_{m-1}; only the rows
    # read are summed
    prev = np.repeat(np.column_stack(parts).astype(float), n_cols, axis=1)
    cur = x_times(prev)
    acc = coeffs[0] * prev[sel]
    for m, coef in enumerate(coeffs[1:], start=1):
        if m > 1:
            prev, cur = cur, 2.0 * x_times(cur) - prev
        acc += coef * cur[sel]
    acc = acc.reshape(len(acc), len(parts), n_cols)
    amps = acc[:, 0] if len(parts) == 1 else acc[:, 0] + 1j * acc[:, 1]
    amps = np.exp(-1j * c * t) * amps.T
    if diag is None:
        amps = amps[0]
    return amps[..., 0] if rows is not None and np.ndim(rows) == 0 else amps


def evolve(sector: XYSector, psi0: np.ndarray, t: float) -> StateVector:
    """psi(t) = exp(-i H t) psi0: spectral for small dims, Chebyshev above."""
    if sector.dim <= DENSE_LIMIT:
        amps = spectral(*sector.eigensystem(), psi0, [t])[0]
    else:
        amps = chebyshev(sector.H, psi0, t)
    return StateVector(amplitudes=amps, sector=sector)


def evolve_grid(sector: XYSector, psi0: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """States on a time grid, rows psi(t_k)."""
    return spectral(*sector.eigensystem(), psi0, times)


def occupations(psi: np.ndarray, sector: XYSector) -> np.ndarray:
    """Expectation of the excitation number on each site."""
    return np.abs(psi) ** 2 @ site_bits(sector.basis, sector.n_sites)
