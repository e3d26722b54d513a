"""Effective XY Hamiltonian in fixed-excitation sectors.

build_single_excitation takes its matrix as the walk Hamiltonian itself;
build_sector hops with hop_amplitudes(J), the sector matrix elements of the
spin form.  Protocol timing formulas are written against walk matrices.

chebyshev() runs one Chebyshev series, no eigensystem, forward from t = 0
to its longest time: evolve(), evolve_grid() and the noise ensemble.
spectral() propagates every state of one eigensystem over a time grid at a
cost independent of the times: the parts of a spin-phonon block, and the
leakage XY reference through XYSector.eigensystem(), read out on the
orbits of those parts alone.  The protocols read
their one walk amplitude from the eigensystems of the walk's mirror halves,
and the spin-phonon Runge-Kutta cross-check is the third integrator.

A matrix that commutes with a signed row involution R|k> = sign_k
|partner_k>, such as a site reflection, splits into the blocks of R's even
and odd halves: mirror_orbits() labels their orbit bases and mirror_part()
gives a state's components on them.  orbit_matrix() sums a matrix, given
as its elements, over any orthonormal orbit labelling: the walks' mirror
halves from J's upper triangle, and the spin-phonon parts from V's
elements, over the mirror halves or over the orbit sums of psi0's site
permutations.  Each caller adds its diagonal and solves one eigh.

build_sector stores its matrix as a dense array up to CSR_CROSSOVER states,
and as a scipy.sparse CSR array above it: every state has exactly
s (N - s) hop neighbours, so a large sector is mostly zeros.  Only
XYSector.eigensystem() densifies a CSR sector, and the sector keeps no
eigensystem: each call solves its own eigh.  Every size limit is refuse():
work whose arrays exceed WORK_BYTES raises TooLarge before it starts.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

# the most bytes one piece of work may hold: a dense eigh's matrix and
# eigenvectors (dim 4096), a Chebyshev Bessel table, a noise ensemble's
# field and offset blocks
WORK_BYTES = 2**28
# the largest sector build_sector stores as a dense array, C(10, 5): up to
# here a Chebyshev series on the dense H runs about as fast as on the CSR
# one (one BLAS thread), and a dense eigh needs the dense array anyway;
# above it CSR gains fast, 3x at dimension 495 and 4-5x at 1001
CSR_CROSSOVER = 252
# Bessel coefficients below this size end the Chebyshev series
CHEBYSHEV_TOL = 1e-17
# offset columns propagated together by chebyshev(); bounds its working
# blocks to n x CHEBYSHEV_CHUNK per part of psi0
CHEBYSHEV_CHUNK = 1024
# Chebyshev terms folded into the amplitudes per matrix product (even)
CHEBYSHEV_BLOCK = 32


class BasisMismatch(ValueError):
    pass


class TooLarge(RuntimeError):
    """Work whose arrays would exceed WORK_BYTES, refused before it starts."""


def refuse(what: str, nbytes: int | float) -> None:
    """Raise TooLarge, naming what and its bytes, if nbytes > WORK_BYTES."""
    if nbytes > WORK_BYTES:
        # an int prints exactly at any size, a float estimate rounded
        size = nbytes if isinstance(nbytes, int) else f"{nbytes:.0f}"
        raise TooLarge(f"{what} needs {size} bytes > WORK_BYTES = "
                       f"{WORK_BYTES}")


@dataclass
class XYSector:
    """Fixed-excitation block of the XY Hamiltonian.

    basis holds occupation bitmasks (bit i set = excitation on site i),
    ordered ascending, so a bitmask's row is its searchsorted position.
    """

    n_sites: int
    basis: np.ndarray          # int64 bitmasks
    H: object                  # Hermitian, rad/s: ndarray or CSR array

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, mask: int) -> int:
        i = int(np.searchsorted(self.basis, mask))
        if i >= len(self.basis) or self.basis[i] != mask:
            raise KeyError(f"bitmask {mask:b} not in sector")
        return i

    def eigensystem(self):
        """Dense eigh of H, solved on each call; refuses a sector above
        WORK_BYTES before allocating anything."""
        # the dense matrix and the eigenvectors, before any LAPACK workspace
        refuse(f"a dense eigh of sector dim {self.dim}", 16 * self.dim ** 2)
        return np.linalg.eigh(dense(self.H))


def dense(h) -> np.ndarray:
    """h as a dense array: itself if it is one, else its CSR expansion."""
    return h if isinstance(h, np.ndarray) else h.toarray()


@dataclass
class StateVector:
    amplitudes: np.ndarray


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
    return XYSector(n_sites=n, basis=sector_basis(n, 1),
                    H=np.array(J, dtype=float))


def build_sector(J: np.ndarray, h: np.ndarray | None, s: int) -> XYSector:
    """Fixed-excitation block of sum_{i != j} J (sx sx + sy sy) + sum_j h sz.

    hop_amplitudes(J) between bitmasks related by moving one excitation;
    diagonal sum_j h_j * (+1 if occupied else -1).  H is a dense array up to
    CSR_CROSSOVER states; above it, a CSR array with the diagonal and the
    s (n - s) hops of each row stored, in column order.
    """
    n = J.shape[0]
    if not 0 <= s <= n:
        raise ValueError("excitation count out of range")
    hop = hop_amplitudes(J)
    basis = sector_basis(n, s)
    bits = site_bits(basis, n)
    dim = len(basis)
    # site by site, in site order, as a sequential dot product adds
    diag = np.zeros(dim)
    if h is not None:
        for i in range(n):
            diag += h[i] * (2 * bits[:, i] - 1)
    # row k: the diagonal, then its s (n - s) hops; int32 indices while
    # they fit, as scipy's own constructors choose, halve the index traffic
    # of every product with H
    width = s * (n - s) + 1
    index = np.int32 if dim * width <= np.iinfo(np.int32).max else np.int64
    cols = np.empty((dim, width), dtype=index)
    vals = np.empty((dim, width))
    cols[:, 0] = np.arange(dim)
    vals[:, 0] = diag
    # each state's s occupied and n - s empty sites, in site order; a hop
    # moves one excitation from occ[k, a] to emp[k, b], and the element
    # between two states is hop[column's site, row's site]
    occ = np.nonzero(bits)[1].reshape(dim, s)
    emp = np.nonzero(1 - bits)[1].reshape(dim, n - s)
    cols[:, 1:] = np.searchsorted(basis, (
        (basis[:, None, None] ^ (1 << occ)[:, :, None])
        | (1 << emp)[:, None, :]).reshape(dim, -1))
    vals[:, 1:] = hop[emp[:, None, :], occ[:, :, None]].reshape(dim, -1)
    if dim <= CSR_CROSSOVER:
        ham = np.zeros((dim, dim))
        np.put_along_axis(ham, cols, vals, axis=1)
        return XYSector(n_sites=n, basis=basis, H=ham)
    # imported here: scipy.sparse would cost every run of the CLI start-up
    # time, and only sectors above the crossover need it
    from scipy.sparse import csr_array

    order = np.argsort(cols, axis=1)
    ham = csr_array((np.take_along_axis(vals, order, axis=1).ravel(),
                     np.take_along_axis(cols, order, axis=1).ravel(),
                     np.arange(0, dim * width + 1, width, dtype=index)),
                    shape=(dim, dim))
    return XYSector(n_sites=n, basis=basis, H=ham)


def _times_real(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """z @ m for complex z and real m, as two real matrix products."""
    return z.real @ m + 1j * (z.imag @ m)


def spectral(w: np.ndarray, v: np.ndarray, psi0: np.ndarray,
             times, readout: np.ndarray | None = None) -> np.ndarray:
    """States v e^{-iwt} v^T psi0 over a time grid, len(times) x len(psi0).

    (w, v) is the eigensystem of a real symmetric H, so the eigenvectors in
    the columns of v are real and both products with v run as real GEMMs.
    A real readout = M v gives M psi(t) instead, len(times) x len(M), with
    no state formed: the rows of psi(t) that M combines.
    """
    coeffs = _times_real(psi0, v)
    phases = np.exp(-1j * np.asarray(times, dtype=float)[:, None] * w)
    phases *= coeffs
    return _times_real(phases, (v if readout is None else readout).T)


def mirror_orbits(partner: np.ndarray, sign: np.ndarray) -> list:
    """Orbit bases of the even and the odd half of the signed row
    involution R|k> = sign_k |partner_k>, of the halves that hold states.

    Per half (keep, idx, coef): orbit j is |keep_j> for a fixed point
    partner_k = k whose sign is the half's, and for each pair, which come
    first, (|k> + t |partner_k>) / sqrt(2) with keep_j = k < partner_k;
    t = sign_k in the even half and -sign_k in the odd one.  Row k of the
    full basis is coef[k] times orbit idx[k] of the half, with coef[k] = 0
    where the half holds no share of row k.
    """
    partner, sign = np.asarray(partner), np.asarray(sign)
    n = len(partner)
    rows = np.arange(n)
    pairs, fixed = rows[rows < partner], rows[rows == partner]
    p = partner[pairs]
    halves = []
    for parity in (1.0, -1.0):
        keep = np.concatenate([pairs, fixed[sign[fixed] == parity]])
        if len(keep):
            idx, coef = np.zeros(n, dtype=np.intp), np.zeros(n)
            idx[keep] = np.arange(len(keep))
            idx[p] = idx[pairs]
            coef[keep] = 1.0
            coef[pairs] = np.sqrt(0.5)
            coef[p] = parity * sign[pairs] * coef[pairs]
            halves.append((keep, idx, coef))
    return halves


def mirror_part(psi0: np.ndarray, idx: np.ndarray, coef: np.ndarray,
                size: int) -> np.ndarray:
    """psi0 over the size orbits of one half (idx, coef of mirror_orbits):
    component j is <orbit j|psi0>, the sum of coef[k] psi0[k] over the rows
    k with idx[k] = j."""
    part = np.zeros(size, dtype=np.result_type(psi0, coef))
    np.add.at(part, idx, coef * psi0)
    return part


def orbit_matrix(elements: tuple, idx: np.ndarray,
                 coef: np.ndarray) -> np.ndarray:
    """<orbit i| h |orbit j> over the orthonormal orbits of (idx, coef):
    row k is coef[k] times orbit idx[k], the rows of an orbit share |coef|,
    and a row of coef 0 adds nothing.  The real symmetric h is given as
    elements (rows, cols, vals), each value standing at (row, col) and at
    (col, row), a diagonal value halved.  A signed bincount sums them over
    both orbits' members, the transpose adds each at (col, row) too."""
    live, sign = coef != 0, np.sign(coef)
    norm = np.empty(int(idx.max()) + 1)
    norm[idx[live]] = np.abs(coef[live])
    n = len(norm)
    rows, cols, vals = elements
    h = np.bincount(idx[rows] * n + idx[cols],
                    sign[rows] * sign[cols] * vals, n * n).reshape(n, n)
    return (h + h.T) * np.outer(norm, norm)


def bessel_j(x) -> np.ndarray:
    """J_0(x), ..., J_M(x) for every argument x >= 0 in x, with J_m below
    CHEBYSHEV_TOL for every m > M and every argument.

    Returns an (M + 1) x len(x) table for an array x, and its one column
    for a scalar.  Miller's backward recurrence J_{k-1} = (2k/x) J_k -
    J_{k+1}, run on all arguments at once from far past the turning point
    m ~ x of the largest one, where J_m starts its superexponential decay,
    and normalised per argument with J_0 + 2 sum_k J_{2k} = 1.  The
    arguments whose J_{k-1} passes 1e250 are rescaled by 1e-250 before they
    overflow, as a test of every row would do; a row is only tested once
    the scalar bound b_{k-1} = (2k / min x) b_k + b_{k+1} >= |J_{k-1}|
    (at most prod_k (2k / min x + 1)) passes 1e249, and b restarts from the
    tested row's largest entry.  Refuses a recurrence table of more than
    WORK_BYTES before allocating it.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j takes arguments >= 0")
    ax = x.ravel().copy()
    top = float(ax.max(initial=0.0))
    # J_m(x) ~ Ai((m - x) (2/x)^(1/3)) past the turning point: 20 x^(1/3)
    # terms past it, J has fallen far below any double-precision term
    past = top + 20.0 * top ** (1.0 / 3.0)
    # the table holds start + 2 <= past + 32 rows of len(x) doubles
    refuse(f"a Bessel table to a t = {top:.6g} at {len(ax)} times",
           8.0 * (past + 32.0) * len(ax))
    start = int(past) + 30
    # below the tolerance J_1 = x/2 is cut anyway and J_0 rounds to 1; such
    # arguments recur with a stand-in, which also keeps 2k/x finite
    tiny = ax < CHEBYSHEV_TOL
    ax[tiny] = 1.0
    low = float(ax.min(initial=np.inf))
    j = np.zeros((start + 2, len(ax)))
    j[start] = 1.0
    # at step k, b and b_next bound |j| on the rows k and k + 1 for every
    # argument
    b, b_next = 1.0, 0.0
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / ax) * j[k] - j[k + 1]
        b, b_next = 2.0 * k / low * b + b_next, b
        # a factor 10 covers the rounding of the bound and of the rows
        if b > 1e249:
            mag = np.abs(j[k - 1])
            b = float(mag.max())
            if b > 1e250:
                # the recurrence grows towards small m; rescale before
                # overflow
                j[k - 1:, mag > 1e250] *= 1e-250
                b, b_next = np.abs(j[k - 1:k + 1]).max(axis=1).tolist()
    j = j[:start + 1] / (j[0] + 2.0 * j[2::2].sum(axis=0))
    j[:, tiny] = 0.0
    j[0, tiny] = 1.0
    last = np.flatnonzero(np.any(np.abs(j) >= CHEBYSHEV_TOL, axis=1))[-1]
    return j[:last + 1].reshape((last + 1,) + x.shape)


def gershgorin_interval(h, diag: np.ndarray) -> tuple:
    """(lo, hi) enclosing the spectrum of h + diag(d) for every column d.

    Gershgorin discs: centres on the diagonal, radii the off-diagonal row
    sums of |h|.  h is a dense or a scipy.sparse array.
    """
    h_diag = h.diagonal()
    # a sparse sum returns a matrix on older scipy; ravel both to 1-D
    radii = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(h_diag)
    # rounding is monotone, so each row's extreme disc edges come from its
    # extreme offsets: no temporary the size of diag
    lo = (h_diag + diag.min(axis=1)) - radii
    hi = (h_diag + diag.max(axis=1)) + radii
    return float(lo.min()), float(hi.max())


def chebyshev(h0, psi0: np.ndarray, t, diag=None,
              rows=None) -> np.ndarray:
    """Amplitudes of e^{-i(h0 + diag(d)) t} psi0 for each column d of diag,
    at one time t or on a 1-D grid of times.

    Chebyshev series with Bessel coefficients (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)): no eigensystem, only products with the real
    symmetric h0 (a dense or a scipy.sparse array) and elementwise products
    with the real n x S offset block diag, over the spectral interval of
    gershgorin_interval for all columns.  Every time shares the term
    vectors of one series; only their Bessel coefficients differ.  The
    series has about a t_max terms, a the half-width of that interval, and
    bessel_j refuses one whose coefficient table exceeds WORK_BYTES.  Times
    must be >= 0.  The columns run in chunks of CHEBYSHEV_CHUNK; the shared
    interval makes every column's series independent of the chunking.
    Returns the amplitudes at rows (all basis states when None; an int
    selects one), after a time axis when t is a grid, after a leading axis
    over the columns of diag when diag is given.
    """
    times = np.asarray(t, dtype=float)
    if not np.all(times >= 0):
        raise ValueError("times must be >= 0")
    offsets = np.zeros((len(psi0), 1)) if diag is None \
        else np.asarray(diag, dtype=float)
    lo, hi = gershgorin_interval(h0, offsets)
    # h0 + diag(d) = c + a x with the spectrum of x inside [-1, 1]; a
    # one-point interval means h0 + diag(d) = c exactly, and any a works
    c, a = 0.5 * (hi + lo), (0.5 * (hi - lo) or 1.0)
    # e^{-i a t x} = sum_m (2 - delta_m0) (-i)^m J_m(a t) T_m(x), and
    # (-i)^m = +1, -i, -1, +i: the signs go into the real table, the -i of
    # the odd terms into the sum
    g = bessel_j(a * times.ravel())
    g[1:] *= 2.0
    g[2::4] *= -1.0
    g[3::4] *= -1.0
    sel = slice(None) if rows is None else np.atleast_1d(rows)
    chunks = []
    for k in range(0, offsets.shape[1], CHEBYSHEV_CHUNK):
        shift = offsets[:, k:k + CHEBYSHEV_CHUNK] - c
        state = np.repeat(np.asarray(psi0)[:, None], shift.shape[1], axis=1)
        # x = (h0 + diag(shift)) / a is real, so real vectors stay real: the
        # real and the imaginary part of psi0 run as separate real series,
        # the imaginary one only where it is nonzero
        series = 0.0
        for unit, part in zip((1.0, 1j), [state.real, state.imag]):
            if unit == 1.0 or part.any():
                series = series + unit * _real_series(h0, part, shift, a, g,
                                                      sel)
        chunks.append(series.transpose(2, 0, 1))
    amps = np.concatenate(chunks)
    amps *= np.exp(-1j * c * times.ravel())[:, None]
    if times.ndim == 0:
        amps = amps[:, 0]
    if diag is None:
        amps = amps[0]
    return amps[..., 0] if rows is not None and np.ndim(rows) == 0 else amps


def _real_series(h0, v0: np.ndarray, shift: np.ndarray, a: float,
                 g: np.ndarray, sel) -> np.ndarray:
    """sum_m g[m, k] T_m(x) v0 for the real n x S block v0, with the odd
    terms times -i, at rows sel for every column k of g.

    The term vectors are reduced to the rows read and folded into the
    amplitudes CHEBYSHEV_BLOCK terms at a time, by one real GEMM for the
    even and one for the odd terms.
    """
    def x_times(v):
        # (h0 + diag(d) - c) v / a, with no scaled copy of h0
        return (h0 @ v + shift * v) / a

    n_read = len(v0[sel])
    grid = np.zeros((2, g.shape[1], n_read * v0.shape[1]))
    block = np.empty((CHEBYSHEV_BLOCK, grid.shape[2]))
    # T_0 v0, T_1 v0, then T_{m+1} = 2 x T_m - T_{m-1}
    prev, cur = None, np.asarray(v0, dtype=float)
    for m in range(len(g)):
        if m == 1:
            prev, cur = cur, x_times(cur)
        elif m > 1:
            prev, cur = cur, 2.0 * x_times(cur) - prev
        b = m % CHEBYSHEV_BLOCK
        block[b] = cur[sel].ravel()
        if b == CHEBYSHEV_BLOCK - 1 or m == len(g) - 1:
            # CHEBYSHEV_BLOCK is even: every block starts on an even term
            first = m - b
            grid[0] += g[first:m + 1:2].T @ block[0:b + 1:2]
            grid[1] += g[first + 1:m + 1:2].T @ block[1:b + 1:2]
    return (grid[0] - 1j * grid[1]).reshape(len(g[0]), n_read, len(v0[0]))


def evolve(sector: XYSector, psi0: np.ndarray, t: float) -> StateVector:
    """psi(t) = exp(-i H t) psi0 by the Chebyshev series: no eigensystem,
    only products with the sector's H, dense or CSR."""
    return StateVector(amplitudes=chebyshev(sector.H, psi0, t))


def evolve_grid(sector: XYSector, psi0: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """States on a time grid, rows psi(t_k), by one Chebyshev series to the
    longest time: no eigensystem, as evolve()."""
    return chebyshev(sector.H, psi0, times)


def occupations(psi: np.ndarray, sector: XYSector) -> np.ndarray:
    """Expectation of the excitation number on each site."""
    return np.abs(psi) ** 2 @ site_bits(sector.basis, sector.n_sites)
