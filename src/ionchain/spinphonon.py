"""Full spin-phonon dynamics of the single-sideband interaction Hamiltonian.

The interaction-picture Hamiltonian

    H_I(t) = -sum_{i,m} (Omega eta_im / 2) (e^{-i(w_eff+w_m)t} a_m s_i^-
             + e^{i(w_eff-w_m)t} a_m s_i^+ + h.c.)

is of the form e^{iDt} V e^{-iDt} with the static frame generator
D = w_eff * N_exc + sum_m w_m n_m and the static coupling
V = -sum_{i,m} (Omega eta_im / 2)(a_m + a_m^dag) s_i^x.  The exact
propagator is therefore psi(t) = e^{iDt} e^{-i(D+V)t} psi(0).

Every term of V changes the spin excitation count by one and one mode's
phonon number by one, and D is diagonal, so the parity of (spin excitations
+ total phonons) is conserved: D + V is block diagonal in it.  The spectral
propagator diagonalises only the parity blocks that psi(0) occupies (each
block once, cached on the system) and leaves the other components exactly
zero.  Within a block the eigenvectors are real, and each chunk of time
rows goes through xy.spectral before the frame phase e^{iDt} is applied.

An adaptive Runge-Kutta integrator of the time-dependent form on the full
basis is kept as an independent cross-check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np
from scipy.integrate import solve_ivp

from .chain import ChainSolution, TrapConfig
from .couplings import lamb_dicke
from . import xy


class StepUnderflow(RuntimeError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file does not match its header or the system."""


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
    """Ordered truncated spin (x) phonon basis.

    states is a list of (spin_mask, phonon_tuple); phonon_tuple has one
    occupation per included mode.  The integer arrays, one entry per state,
    hold the spin excitation count, the phonon occupations (dim x n_modes)
    and the total quanta (spin excitations + phonons).
    """

    n_sites: int
    policy: TruncationPolicy
    states: list
    index: dict
    spin_count: np.ndarray
    occupations: np.ndarray
    quanta: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.states)

    @classmethod
    def build(cls, n_sites: int, policy: TruncationPolicy,
              s_init: int) -> "ProductBasis":
        qmax = policy.quanta_cutoff(s_init)
        n_modes = len(policy.phonon_modes)
        states = []
        fock = range(policy.fock_cutoff + 1)
        for s in range(min(n_sites, qmax) + 1):
            for c in combinations(range(n_sites), s):
                mask = sum(1 << i for i in c)
                for occ in product(fock, repeat=n_modes):
                    if s + sum(occ) <= qmax:
                        states.append((mask, occ))
        states.sort()
        index = {st: k for k, st in enumerate(states)}
        spin_count = np.array([mask.bit_count() for mask, _ in states],
                              dtype=np.int64)
        occupations = np.array([occ for _, occ in states],
                               dtype=np.int64).reshape(len(states), n_modes)
        return cls(n_sites=n_sites, policy=policy, states=states, index=index,
                   spin_count=spin_count, occupations=occupations,
                   quanta=spin_count + occupations.sum(axis=1))

    @property
    def phonon_count(self) -> np.ndarray:
        return self.quanta - self.spin_count

    def parity_block(self, parity: int) -> np.ndarray:
        """Indices of the states whose total quanta have the given parity."""
        return np.flatnonzero(self.quanta % 2 == parity)

    def state_index(self, spin_mask: int, phonons: tuple) -> int:
        return self.index[(spin_mask, tuple(phonons))]


@dataclass
class SpinPhononSystem:
    """Static-frame operators for one trap/chain/policy combination."""

    trap: TrapConfig
    basis: ProductBasis
    mode_freqs: np.ndarray     # included modes, rad/s
    eta: np.ndarray            # N x n_modes, included columns
    D: np.ndarray              # diagonal of the frame generator
    V: np.ndarray              # static coupling matrix
    _eig: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, trap: TrapConfig, chain: ChainSolution,
              policy: TruncationPolicy, s_init: int,
              mode_freq_override: np.ndarray | None = None) -> "SpinPhononSystem":
        """Assemble D and V on the truncated basis.

        mode_freq_override replaces the included mode frequencies (used to
        pin the centre-of-mass frequency to an externally supplied value);
        the Lamb-Dicke factors are recomputed consistently.
        """
        modes = list(policy.phonon_modes)
        if mode_freq_override is not None:
            w = np.asarray(mode_freq_override, dtype=float)
            if len(w) != len(modes):
                raise ValueError("override length must match included modes")
            ch = ChainSolution(positions=chain.positions,
                               length_scale=chain.length_scale,
                               mode_matrix=chain.mode_matrix,
                               mode_freqs=chain.mode_freqs.copy())
            ch.mode_freqs[modes] = w
        else:
            ch = chain
            w = chain.mode_freqs[modes]
        eta = lamb_dicke(trap, ch)[:, modes]
        basis = ProductBasis.build(trap.n_ions, policy, s_init)
        dim = basis.dim
        d = trap.omega_eff * basis.spin_count + basis.occupations @ w
        v = np.zeros((dim, dim))
        half = 0.5 * trap.rabi
        for k, (mask, occ) in enumerate(basis.states):
            for mi in range(len(modes)):
                n = occ[mi]
                if n == 0:
                    continue
                occ_lo = list(occ)
                occ_lo[mi] = n - 1
                amp = np.sqrt(n)
                for i in range(trap.n_ions):
                    flipped = mask ^ (1 << i)
                    st = (flipped, tuple(occ_lo))
                    k2 = basis.index.get(st)
                    if k2 is not None:
                        # (a_m + a_m^dag) s_i^x matrix element
                        el = -half * eta[i, mi] * amp
                        v[k2, k] += el
                        v[k, k2] += el
        return cls(trap=trap, basis=basis, mode_freqs=w, eta=eta, D=d, V=v)

    def eigensystem(self, parity: int):
        """(w, q) of D + V restricted to basis.parity_block(parity).

        w and the real orthonormal eigenvectors q (columns) come from a
        dense eigh of the block, done once per parity and cached.
        """
        if parity not in self._eig:
            idx = self.basis.parity_block(parity)
            h = self.V[np.ix_(idx, idx)]
            h[np.diag_indices_from(h)] += self.D[idx]
            self._eig[parity] = np.linalg.eigh(h)
        return self._eig[parity]

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
    states: np.ndarray         # len(times) x dim
    system: SpinPhononSystem


# time rows propagated per xy.spectral call; bounds the chunk x block
# intermediates independently of the output grid length
_CHUNK_ROWS = 256


def propagate(system: SpinPhononSystem, psi0: np.ndarray,
              times: np.ndarray, method: str = "spectral",
              tol: float = 1e-9) -> Trajectory:
    """Evolve psi0 under H_I(t), sampling on the given output grid.

    method="spectral" uses the exact static-frame propagator, block by
    block over the parities psi0 occupies.  method="rk" integrates the
    time-dependent Schrodinger equation with adaptive Runge-Kutta (local
    error per step <= tol) and exists as an independent cross-check of the
    frame transformation.
    """
    times = np.asarray(times, dtype=float)
    if method == "spectral":
        states = np.zeros((len(times), len(psi0)), dtype=complex)
        for parity in (0, 1):
            idx = system.basis.parity_block(parity)
            if not np.any(psi0[idx]):
                continue
            w, q = system.eigensystem(parity)
            d = system.D[idx]
            for start in range(0, len(times), _CHUNK_ROWS):
                t = times[start:start + _CHUNK_ROWS]
                phi = xy.spectral(w, q, psi0[idx], t)
                phi *= np.exp(1j * d * t[:, None])
                states[start:start + _CHUNK_ROWS, idx] = phi
        return Trajectory(times=times, states=states, system=system)
    if method != "rk":
        raise ValueError(f"unknown method {method!r}")

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
    states = sol.y.T.copy().view(complex)
    return Trajectory(times=times, states=states, system=system)


CHECKPOINT_VERSION = 1


def save_checkpoint(traj: Trajectory, path) -> None:
    """Write a trajectory: one JSON header line, then raw amplitude bytes.

    The block holds times as float64 followed by the state matrix as
    complex128, both little-endian C order.
    """
    states = np.ascontiguousarray(traj.states, dtype=np.complex128)
    header = {
        "version": CHECKPOINT_VERSION,
        "n_times": int(len(traj.times)),
        "dim": int(states.shape[1]),
        "time_dtype": "<f8",
        "state_dtype": "<c16",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(traj.times.astype("<f8").tobytes())
        f.write(states.astype("<c16").tobytes())


def load_checkpoint(path, system: SpinPhononSystem) -> Trajectory:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode())
        data = f.read()
    if header["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header['version']}")
    if (header["time_dtype"], header["state_dtype"]) != ("<f8", "<c16"):
        raise CheckpointError("checkpoint dtypes must be <f8 times and <c16 "
                              "states")
    nt, dim = header["n_times"], header["dim"]
    if dim != system.basis.dim:
        raise CheckpointError("checkpoint dimension does not match system")
    expected = 8 * nt + 16 * nt * dim
    if len(data) != expected:
        raise CheckpointError(
            f"checkpoint {path} holds {len(data)} data bytes, header "
            f"(n_times={nt}, dim={dim}) needs {expected}")
    times = np.frombuffer(data, dtype="<f8", count=nt)
    states = np.frombuffer(data, dtype="<c16", offset=8 * nt).reshape(nt, dim)
    return Trajectory(times=times.copy(), states=states.copy(), system=system)


def vacuum_overlap(traj: Trajectory) -> np.ndarray:
    """E(t): population of the all-spins-down subspace, traced over phonons."""
    idx = np.flatnonzero(traj.system.basis.spin_count == 0)
    return np.sum(np.abs(traj.states[:, idx]) ** 2, axis=1)


def phonon_occupation(traj: Trajectory) -> np.ndarray:
    """nbar(t): expected total phonon number."""
    weights = traj.system.basis.phonon_count.astype(float)
    return np.abs(traj.states) ** 2 @ weights


def model_fidelity(traj: Trajectory, xy_sector: xy.XYSector,
                   psi_xy0: np.ndarray) -> np.ndarray:
    """F(t) = <psi_XY(t)| Tr_ph[rho(t)] |psi_XY(t)>.

    The XY reference is evolved from psi_xy0 in its own sector on the
    trajectory's time grid.
    """
    basis = traj.system.basis
    if xy_sector.n_sites != basis.n_sites:
        raise xy.BasisMismatch("site counts differ")
    xy_states = xy.evolve_grid(xy_sector, psi_xy0, traj.times)
    sector_pos = {int(m): k for k, m in enumerate(xy_sector.basis)}
    # group product-basis states by phonon occupation; overlap per group
    groups: dict[tuple, list] = {}
    for k, (mask, occ) in enumerate(basis.states):
        j = sector_pos.get(mask)
        if j is not None:
            groups.setdefault(occ, []).append((k, j))
    fid = np.zeros(len(traj.times))
    for pairs in groups.values():
        ks = [p[0] for p in pairs]
        js = [p[1] for p in pairs]
        ov = np.sum(xy_states[:, js].conj() * traj.states[:, ks], axis=1)
        fid += np.abs(ov) ** 2
    return fid
