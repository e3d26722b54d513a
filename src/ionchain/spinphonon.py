"""Full spin-phonon dynamics of the single-sideband interaction Hamiltonian.

The interaction-picture Hamiltonian

    H_I(t) = -sum_{i,m} (Omega eta_im / 2) (e^{-i(w_eff+w_m)t} a_m s_i^-
             + e^{i(w_eff-w_m)t} a_m s_i^+ + h.c.)

is of the form e^{iDt} V e^{-iDt} with the static frame generator
D = w_eff * N_exc + sum_m w_m n_m and the static coupling
V = -sum_{i,m} (Omega eta_im / 2)(a_m + a_m^dag) s_i^x.  The exact
interaction-picture state is therefore e^{iDt} e^{-i(D+V)t} psi(0).

Every term of V changes the spin excitation count and one mode's phonon
number by one each, and D is diagonal, so D + V conserves the parity of the
total quanta (spin excitations + phonons).  The basis is the block of
s_init % 2 alone.  propagate reduces it once more by a symmetry of D + V,
labelled per part by (idx, coef): row k of the block is coef[k] times
orbit idx[k] of an orthonormal orbit basis.  Each part, V summed over its
orbits by xy.orbit_matrix (the walks' reducer too) plus D, is solved by one
dense eigh (symmetry-adapted exact diagonalisation: Sandvik, AIP
Conf. Proc. 1297, 135 (2010)), propagated by xy.spectral and gathered back:

- the orbit sums of the site permutations that fix psi0, when psi0 is one
  basis state and every included Lamb-Dicke column is constant on its
  excited sites and on its empty ones (the COM mode's is uniform): psi0
  never leaves their span, labelled by the excitations on either set of
  sites and the phonon occupations (30 states for N = 10, s = 3 and
  fock_cutoff 4, against a block of 824);
- otherwise the mirror halves of the site reflection (xy.mirror_orbits):
  a symmetric chain makes every Lamb-Dicke column even or odd under it,
  D + V then commutes with it, and the block splits in two.

Trajectories hold the static-frame states e^{-i(D+V)t} psi(0), without the
phase e^{iDt}: the observables read |psi|^2, or overlaps on which D is
constant.  Adaptive Runge-Kutta on H_I(t), taken to the same frame, is the
cross-check, and the one reader of the dense V.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import comb

import numpy as np

from .chain import ChainSolution, TrapConfig
from .couplings import lamb_dicke
from . import xy


# the relative asymmetry up to which a Lamb-Dicke column counts as even or
# odd under the site reflection, or as constant on a set of sites
MIRROR_TOL = 1e-11


class StepUnderflow(RuntimeError):
    pass


@dataclass(frozen=True)
class TruncationPolicy:
    """Which phonon modes are kept and how the product space is truncated.

    total_quanta_cutoff bounds spin excitations + total phonons; if None it
    defaults to s + 2 for initial excitation count s (the interaction changes
    total quanta only by 0 or +-2, so far sectors are perturbatively empty).
    """

    phonon_modes: tuple = (0,)
    fock_cutoff: int = 4
    total_quanta_cutoff: int | None = None

    def __post_init__(self):
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be >= 1")
        if len(set(self.phonon_modes)) != len(self.phonon_modes):
            raise ValueError("included modes must be distinct")

    def quanta_cutoff(self, s: int) -> int:
        return self.total_quanta_cutoff if self.total_quanta_cutoff is not None \
            else s + 2


@dataclass
class ProductBasis:
    """Ordered truncated spin (x) phonon basis of one parity block.

    One entry per state of total quanta (spin excitations + phonons) at
    most qmax and of s_init's parity: the spin bitmask, the phonon
    occupations (dim x n_modes), the spin count and the total quanta,
    ordered by mask, then by occupations, first mode most significant.
    """

    n_sites: int
    policy: TruncationPolicy
    s_init: int
    masks: np.ndarray
    occupations: np.ndarray
    spin_count: np.ndarray
    quanta: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.masks)

    @property
    def qmax(self) -> int:
        return self.policy.quanta_cutoff(self.s_init)

    @staticmethod
    def parity_block_dims(n_sites: int, policy: TruncationPolicy,
                          s_init: int) -> list:
        """States of even and of odd total quanta under the truncation,
        counted per (spin count, phonon total) with math.comb instead of
        enumerating them; build() makes the one of s_init's parity."""
        qmax = policy.quanta_cutoff(s_init)
        phonons = Counter(map(sum, product(range(policy.fock_cutoff + 1),
                                           repeat=len(policy.phonon_modes))))
        dims = [0, 0]
        for s in range(min(n_sites, qmax) + 1):
            for p, count in phonons.items():
                if s + p <= qmax:
                    dims[(s + p) % 2] += comb(n_sites, s) * count
        return dims

    @classmethod
    def build(cls, n_sites: int, policy: TruncationPolicy,
              s_init: int) -> "ProductBasis":
        qmax = policy.quanta_cutoff(s_init)
        n_modes = len(policy.phonon_modes)
        spin_masks = np.sort(np.concatenate(
            [xy.sector_basis(n_sites, s)
             for s in range(min(n_sites, qmax) + 1)]))
        grid = np.array(list(product(range(policy.fock_cutoff + 1),
                                     repeat=n_modes)), dtype=np.int64)
        spin = xy.site_bits(spin_masks, n_sites).sum(axis=1)
        quanta = spin[:, None] + grid.sum(axis=1)
        # row-major over (mask, occupation grid) is the basis order
        rank, code = np.nonzero((quanta <= qmax) & (quanta % 2 == s_init % 2))
        return cls(n_sites=n_sites, policy=policy, s_init=s_init,
                   masks=spin_masks[rank], occupations=grid[code],
                   spin_count=spin[rank], quanta=quanta[rank, code])

    @property
    def phonon_count(self) -> np.ndarray:
        return self.quanta - self.spin_count

    def rows(self, masks, occupations) -> np.ndarray:
        """Rows of the states (masks[k], occupations[k]); KeyError if one is
        not in the basis.  Binary search on an int64 key that ascends in
        basis order: the first row holding the mask, then the mixed-radix
        code of the occupations (unlike raw masks, it cannot overflow)."""
        weights = (self.policy.fock_cutoff + 1) ** np.arange(
            self.occupations.shape[1], -1, -1)
        basis_keys, keys = (
            np.column_stack([np.searchsorted(self.masks, m), occ]) @ weights
            for m, occ in ((self.masks, self.occupations),
                           (masks, occupations)))
        rows = np.minimum(np.searchsorted(basis_keys, keys), self.dim - 1)
        if not (np.array_equal(self.masks[rows], masks)
                and np.array_equal(self.occupations[rows], occupations)):
            raise KeyError("state not in the truncated basis")
        return rows

    def state_index(self, spin_mask: int, phonons: tuple) -> int:
        parity = (bin(spin_mask).count("1") + sum(phonons)) % 2
        if parity != self.s_init % 2:
            raise KeyError(f"state of quanta parity {parity} outside the "
                           f"basis, the parity block {self.s_init % 2} of "
                           f"s_init = {self.s_init}")
        return int(self.rows([spin_mask], [phonons])[0])


@dataclass
class SpinPhononSystem:
    """Static-frame operators for one trap/chain/policy combination.  V is
    kept as its elements; the dense V is built on first use, for the
    Runge-Kutta cross-check."""

    trap: TrapConfig
    basis: ProductBasis
    mode_freqs: np.ndarray     # included modes, rad/s
    eta: np.ndarray            # N x n_modes, the included columns in
                               # phonon_modes order: the leakage fit and
                               # J' shift column 0 by r
    D: np.ndarray              # diagonal of the frame generator
    elements: tuple            # (rows, cols, values) of V: each value
                               # sits at (row, col) and at (col, row), and
                               # no two share a position

    @classmethod
    def build(cls, trap: TrapConfig, chain: ChainSolution,
              policy: TruncationPolicy, s_init: int) -> "SpinPhononSystem":
        """Assemble D and V on the parity block of s_init, with the mode
        frequencies of chain and the Lamb-Dicke factors they give."""
        modes = list(policy.phonon_modes)
        w = chain.mode_freqs[modes]
        eta = lamb_dicke(trap, chain)[:, modes]
        dims = ProductBasis.parity_block_dims(trap.n_ions, policy, s_init)
        block = dims[s_init % 2]
        if block > xy.DENSE_LIMIT:
            # refused before the basis is enumerated
            raise xy.SectorTooLarge(
                f"spin-phonon basis dim {sum(dims)} has a parity block of "
                f"{block} > DENSE_LIMIT = {xy.DENSE_LIMIT}: a dense eigh of a "
                f"part as large as the block needs at least {16 * block ** 2}"
                f" bytes")
        basis = ProductBasis.build(trap.n_ions, policy, s_init)
        d = trap.omega_eff * basis.spin_count + basis.occupations @ w
        half = 0.5 * trap.rabi
        bits = 1 << np.arange(trap.n_ions)
        rows, cols, vals = [np.zeros(0, dtype=np.intp)], \
            [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        for mi in range(len(modes)):
            src = np.flatnonzero(basis.occupations[:, mi])
            amp = np.sqrt(basis.occupations[src, mi])
            lowered = basis.occupations[src]
            lowered[:, mi] -= 1
            # (a_m + a_m^dag) s_i^x matrix elements of all ions at once,
            # ion-major; each (mode, ion) pair has its own elements, none
            # shared; the row has the parity and at most the quanta of src
            rows.append(basis.rows((basis.masks[src] ^ bits[:, None]).ravel(),
                                   np.tile(lowered, (trap.n_ions, 1))))
            cols.append(np.tile(src, trap.n_ions))
            vals.append(((-half * eta[:, mi])[:, None] * amp).ravel())
        return cls(trap=trap, basis=basis, mode_freqs=w, eta=eta, D=d,
                   elements=tuple(map(np.concatenate, (rows, cols, vals))))

    @cached_property
    def V(self) -> np.ndarray:
        """The dense static coupling matrix, from elements on first use by
        the Runge-Kutta cross-check: the spectral path reads elements."""
        rows, cols, vals = self.elements
        v = np.zeros((self.basis.dim, self.basis.dim))
        v[rows, cols] = vals
        v[cols, rows] = vals
        return v

    def reflection(self) -> tuple:
        """(partner, sign) of the site reflection i -> N - 1 - i on the
        basis: (mask, occ) -> (reversed mask, occ) with the sign
        prod_m pi_m^{n_m}, pi_m = +-1 the parity of Lamb-Dicke column m.
        D + V commutes with it when every column is even or odd; if one is
        neither to MIRROR_TOL relative, the identity is returned instead."""
        basis, eta = self.basis, self.eta
        tol = MIRROR_TOL * np.max(np.abs(eta), axis=0)
        even = np.all(np.abs(eta[::-1] - eta) <= tol, axis=0)
        odd = np.all(np.abs(eta[::-1] + eta) <= tol, axis=0)
        if not np.all(even | odd):
            return np.arange(basis.dim), np.ones(basis.dim)
        n = basis.n_sites
        reversed_masks = xy.site_bits(basis.masks, n)[:, ::-1] \
            @ (1 << np.arange(n))
        partner = basis.rows(reversed_masks, basis.occupations)
        return partner, (-1.0) ** basis.occupations[:, ~even].sum(axis=1)

    def orbit_sites(self, psi0: np.ndarray) -> int | None:
        """The spin mask of psi0 when D + V commutes with every permutation
        of its excited sites and with every permutation of its empty ones,
        which then fix psi0; None otherwise.

        psi0 must be one basis state, and every included Lamb-Dicke column
        constant to MIRROR_TOL relative on either set of sites, as the COM
        mode's is on the whole chain: then the permuted sites couple alike
        and D, which reads spin counts and occupations alone, is unchanged.
        """
        nonzero = np.flatnonzero(psi0)
        if len(nonzero) != 1:
            return None
        basis, eta = self.basis, self.eta
        mask = int(basis.masks[nonzero[0]])
        excited = xy.site_bits(np.array([mask]), basis.n_sites)[0] == 1
        tol = MIRROR_TOL * np.max(np.abs(eta), axis=0)
        for sites in (excited, ~excited):
            if sites.any() and np.any(np.ptp(eta[sites], axis=0) > tol):
                return None
        return mask

    def eigensystem(self, psi0: np.ndarray | None = None) -> list:
        """Eigensystems of D + V on the smallest subspace this module knows
        to hold psi0's dynamics, solved on each call: per part
        (w, q, idx, coef), row k of the eigenvectors over the block is
        coef[k] * q[idx[k]].  One part, the orbit sums, when
        orbit_sites(psi0) holds; otherwise, or with no psi0, the mirror
        halves of reflection(), one half when that is the identity."""
        sites = None if psi0 is None else self.orbit_sites(psi0)
        parts = [self._orbit_sums(sites)] if sites is not None else [
            (i, c) for *_, i, c in xy.mirror_orbits(*self.reflection())]
        return [self._reduced(*part) for part in parts]

    def _orbit_sums(self, sites: int) -> tuple:
        """(orbit, 1 / sqrt(|O|)) per row for the orbit sums of the
        permutations of the sites in the mask sites and of the others: a
        row's label (excitations on sites, excitations off them,
        occupations), numbered in ascending order.  All of an orbit is in
        the basis, whose truncation reads spin counts and occupations."""
        basis = self.basis
        on = xy.site_bits(basis.masks & sites, basis.n_sites).sum(axis=1)
        key = on * (basis.n_sites + 1) + basis.spin_count - on
        for occ in basis.occupations.T:
            key = key * (basis.policy.fock_cutoff + 1) + occ
        orbit = np.unique(key, return_inverse=True)[1]
        return orbit, 1.0 / np.sqrt(np.bincount(orbit))[orbit]

    def _reduced(self, idx: np.ndarray, coef: np.ndarray) -> tuple:
        """(w, q, idx, coef): D + V over the orthonormal orbits of (idx,
        coef) from elements, no dense V; each orbit's rows share a value of
        D, and V, which changes spin counts, joins no orbit to itself."""
        h = xy.orbit_matrix(self.elements, idx, coef)
        d = np.empty(len(h))
        d[idx[coef != 0]] = self.D[coef != 0]
        # the eigh is of h - c, c the midpoint of D: its eigenvalues are
        # then accurate relative to the spread of D, not to its largest value
        c = 0.5 * (d.min() + d.max())
        h.flat[::len(h) + 1] += d - c
        w, q = np.linalg.eigh(h)
        return w + c, q, idx, coef

    def initial_state(self, spin_mask: int,
                      phonons: tuple | None = None) -> np.ndarray:
        occ = phonons if phonons is not None \
            else (0,) * len(self.basis.policy.phonon_modes)
        psi = np.zeros(self.basis.dim, dtype=complex)
        psi[self.basis.state_index(spin_mask, occ)] = 1.0
        return psi


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray         # len(times) x dim, static frame
    system: SpinPhononSystem
    # dims of the spaces propagate evolved psi0 in: one per eigensystem on
    # the spectral path, the whole block for the Runge-Kutta one
    propagated_dims: list = field(default_factory=list)


# time rows propagated per xy.spectral call; bounds the chunk x block
# intermediates independently of the output grid length
_CHUNK_ROWS = 256


def propagate(system: SpinPhononSystem, psi0: np.ndarray,
              times: np.ndarray, method: str = "spectral",
              tol: float = 1e-9) -> Trajectory:
    """Evolve psi0 under H_I(t) on the output grid, as the static-frame
    states e^{-i(D+V)t} psi0.

    method="spectral" uses system.eigensystem(psi0), one eigh per part
    of the block's reduction (the orbit sums of psi0's site permutations,
    else the mirror halves), summed from V's elements.  Each part is
    propagated by xy.spectral and gathered back into the block.
    method="rk" integrates H_I(t) by adaptive Runge-Kutta (local error per
    step <= tol) on the whole block with the dense system.V, an
    independent cross-check of the frame transformation.
    """
    times = np.asarray(times, dtype=float)
    if method == "spectral":
        halves = system.eigensystem(psi0)
        parts = [xy.mirror_part(psi0, idx, coef, len(w))
                 for w, _, idx, coef in halves]
        states = np.zeros((len(times), len(psi0)), dtype=complex)
        for start in range(0, len(times), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            for (w, q, idx, coef), part in zip(halves, parts):
                # back to the product basis by one column gather per part
                states[rows] += xy.spectral(w, q, part,
                                            times[rows])[:, idx] * coef
        return Trajectory(times=times, states=states, system=system,
                          propagated_dims=[len(w) for w, *_ in halves])
    if method != "rk":
        raise ValueError(f"unknown method {method!r}")
    # imported here: the cross-check is the package's only use of
    # scipy.integrate, and importing it costs every run start-up time
    from scipy.integrate import solve_ivp

    d, v = system.D, system.V

    def rhs(t, y):
        psi = y.view(complex)
        phase = np.exp(1j * d * t)
        out = -1j * (phase * (v @ (phase.conj() * psi)))
        return out.view(float)

    t_fast = 2 * np.pi / (system.trap.omega_eff + float(np.max(system.mode_freqs)))
    sol = solve_ivp(rhs, (float(times[0]), float(times[-1])),
                    psi0.astype(complex).view(float),
                    t_eval=times, method="DOP853",
                    rtol=tol, atol=tol, max_step=t_fast / 4.0)
    if not sol.success:
        raise StepUnderflow(sol.message)
    # from the interaction frame the integrator runs in to the static one
    states = np.exp(-1j * d * times[:, None]) * sol.y.T.copy().view(complex)
    return Trajectory(times=times, states=states, system=system,
                      propagated_dims=[len(psi0)])


def vacuum_overlap(traj: Trajectory) -> np.ndarray:
    """E(t): population of the all-spins-down subspace, traced over phonons."""
    idx = np.flatnonzero(traj.system.basis.spin_count == 0)
    return np.sum(np.abs(traj.states[:, idx]) ** 2, axis=1)


def phonon_occupation(traj: Trajectory) -> np.ndarray:
    """nbar(t): expected total phonon number."""
    weights = traj.system.basis.phonon_count.astype(float)
    return np.abs(traj.states) ** 2 @ weights


def truncation_diagnostics(traj: Trajectory) -> dict:
    """The block's dimension, those of its mirror halves (the block's
    alone when it does not split) and those propagate evolved psi0 in
    (traj.propagated_dims); the largest population at any time on
    the edge, the states a term of V would couple out of the basis (a mode
    at the Fock cutoff, or the top quanta level: qmax, or qmax - 1 in the
    other parity); and max |1 - ||psi(t)|||."""
    basis = traj.system.basis
    pop = np.abs(traj.states) ** 2
    edge = np.any(basis.occupations == basis.policy.fock_cutoff, axis=1) \
        | (basis.quanta >= basis.qmax - 1)
    halves = xy.mirror_orbits(*traj.system.reflection())
    return {"block_dim": basis.dim,
            "mirror_block_dims": [len(half[0]) for half in halves],
            "propagated_dims": traj.propagated_dims,
            "edge_population_max": float(np.max(pop @ edge)),
            "norm_drift_max": float(np.max(np.abs(1.0 - np.sqrt(
                pop.sum(axis=1)))))}


def model_fidelity(traj: Trajectory, xy_sector: xy.XYSector,
                   psi_xy0: np.ndarray) -> np.ndarray:
    """F(t) = <psi_XY(t)| Tr_ph[rho(t)] |psi_XY(t)>.

    The XY reference is evolved from psi_xy0 in its own sector on the
    trajectory's time grid by xy.spectral on the sector's eigensystem, as
    the block is, so its cost does not grow with the times.  A sector of
    s_init excitations lies inside the block, which build held to
    DENSE_LIMIT; a larger sector raises xy.SectorTooLarge.
    """
    basis = traj.system.basis
    if xy_sector.n_sites != basis.n_sites:
        raise xy.BasisMismatch("site counts differ")
    xy_states = xy.spectral(*xy_sector.eigensystem(), psi_xy0, traj.times)
    ks = np.flatnonzero(np.isin(basis.masks, xy_sector.basis))
    js = np.searchsorted(xy_sector.basis, basis.masks[ks])
    # one overlap per phonon occupation, summed over the group's spin states
    occ = basis.occupations[ks]
    fid = np.zeros(len(traj.times))
    for group in np.unique(occ, axis=0):
        sel = np.all(occ == group, axis=1)
        ov = np.sum(xy_states[:, js[sel]].conj() * traj.states[:, ks[sel]],
                    axis=1)
        fid += np.abs(ov) ** 2
    return fid
