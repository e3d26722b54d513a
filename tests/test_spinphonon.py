import tracemalloc
from dataclasses import replace
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import ionchain as ic
from ionchain import spinphonon as sp
from ionchain import xy


def small_system(n=3, modes=(0,), fock=3, s_init=1, detune_factor=1.02,
                 total_quanta=None):
    trap = ic.reference_trap(n, 2 * np.pi * 0.8e6)
    chain = ic.solve_chain(trap)
    mu = np.sqrt((detune_factor * chain.mode_freqs[0]) ** 2 - trap.rabi ** 2)
    trap = trap.with_(detuning_mu=float(mu))
    policy = sp.TruncationPolicy(phonon_modes=modes, fock_cutoff=fock,
                                 total_quanta_cutoff=total_quanta)
    system = sp.SpinPhononSystem.build(trap, chain, policy, s_init=s_init)
    return trap, chain, system


def reference_states(system, psi0, times):
    """Static-frame states by a per-time-step propagator on a dense eigh of
    the block."""
    w, q = np.linalg.eigh(np.diag(system.D) + system.V)
    coeffs = q.conj().T @ psi0
    return np.array([q @ (np.exp(-1j * w * t) * coeffs) for t in times])


def basis_trajectory(times, states, system, psi0=None):
    """A Trajectory of given product-basis states: the one part of the
    identity labelling, as the Runge-Kutta path keeps its states; psi0 is
    the first state unless given."""
    dim = states.shape[1]
    return sp.Trajectory(times=times, system=system,
                         psi0=states[0] if psi0 is None else psi0,
                         parts=[(states, np.arange(dim), np.ones(dim))])


def random_state(system, seed=0):
    """Normalised random complex superposition over the block."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(system.basis.dim) \
        + 1j * rng.standard_normal(system.basis.dim)
    return psi / np.linalg.norm(psi)


def loop_states(n, policy, s_init, both_parities=False):
    """(mask, occupations) tuples in basis order, enumerated one by one: the
    block of s_init's parity, or with both_parities the whole truncated
    product basis."""
    qmax = policy.quanta_cutoff(s_init)
    fock = range(policy.fock_cutoff + 1)
    states = []
    for s in range(min(n, qmax) + 1):
        for c in combinations(range(n), s):
            mask = sum(1 << i for i in c)
            for occ in product(fock, repeat=len(policy.phonon_modes)):
                q = s + sum(occ)
                if q <= qmax and (both_parities or q % 2 == s_init % 2):
                    states.append((mask, occ))
    return sorted(states)


def quanta_of(state):
    mask, occ = state
    return mask.bit_count() + sum(occ)


def loop_operators(system, states):
    """D and V assembled state by state through a (mask, occupations) ->
    row dict: the reference for the array assembly."""
    trap, eta = system.trap, system.eta
    index = {st: k for k, st in enumerate(states)}
    spin_count = np.array([mask.bit_count() for mask, _ in states])
    occupations = np.array([occ for _, occ in states])
    d = trap.omega_eff * spin_count + occupations @ system.mode_freqs
    v = np.zeros((len(states), len(states)))
    half = 0.5 * trap.rabi
    for k, (mask, occ) in enumerate(states):
        for mi in range(len(occ)):
            n = occ[mi]
            if n == 0:
                continue
            occ_lo = list(occ)
            occ_lo[mi] = n - 1
            amp = np.sqrt(n)
            for i in range(trap.n_ions):
                k2 = index.get((mask ^ (1 << i), tuple(occ_lo)))
                if k2 is not None:
                    el = -half * eta[i, mi] * amp
                    v[k2, k] += el
                    v[k, k2] += el
    return d, v


def loop_model_fidelity(traj, states, sector, psi_xy0):
    """model_fidelity grouping states by dict, one at a time: the
    reference for the array grouping, on the same XY states."""
    xy_states = xy.spectral(*sector.eigensystem(), psi_xy0, traj.times)
    sector_pos = {int(m): k for k, m in enumerate(sector.basis)}
    groups = {}
    for k, (mask, occ) in enumerate(states):
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


class TestTruncationPolicy:
    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            sp.TruncationPolicy(fock_cutoff=0)

    def test_rejects_duplicate_modes(self):
        with pytest.raises(ValueError):
            sp.TruncationPolicy(phonon_modes=(0, 0))

    def test_default_quanta_cutoff(self):
        p = sp.TruncationPolicy()
        assert p.quanta_cutoff(1) == 3
        assert p.quanta_cutoff(5) == 7
        assert sp.TruncationPolicy(total_quanta_cutoff=2).quanta_cutoff(5) == 2


class TestProductBasis:
    def test_enumeration_matches_brute_force(self):
        for n, modes, fock, s_init, total in [
                (4, (0, 1), 2, 1, 3), (5, (0,), 3, 2, None),
                (4, (1, 0, 2), 1, 1, 2), (6, (0, 1), 4, 2, None),
                (10, (0,), 4, 5, None)]:
            policy = sp.TruncationPolicy(phonon_modes=modes, fock_cutoff=fock,
                                         total_quanta_cutoff=total)
            basis = sp.ProductBasis.build(n, policy, s_init=s_init)
            qmax = policy.quanta_cutoff(s_init)
            states = sorted(
                (mask, occ) for mask in range(2 ** n)
                for occ in product(range(fock + 1), repeat=len(modes))
                if bin(mask).count("1") + sum(occ) <= qmax)
            block = [st for st in states if quanta_of(st) % 2 == s_init % 2]
            assert [(int(m), tuple(int(x) for x in o)) for m, o in
                    zip(basis.masks, basis.occupations)] == block
            # both parity blocks, counted without enumerating them
            dims = sp.ProductBasis.parity_block_dims(n, policy, s_init)
            assert dims == [sum(quanta_of(st) % 2 == p for st in states)
                            for p in (0, 1)]
            assert dims[s_init % 2] == basis.dim
            # qmax < n: the all-up mask is outside the basis, and so is the
            # other parity
            zeros = (0,) * len(modes)
            for mask, occ in [(2 ** n - 1, zeros),
                              (0, (fock + 1,) * len(modes)),
                              (1 - s_init % 2, zeros)]:
                with pytest.raises(KeyError):
                    basis.state_index(mask, occ)

    def test_states_respect_cutoffs(self):
        policy = sp.TruncationPolicy(phonon_modes=(0,), fock_cutoff=2)
        basis = sp.ProductBasis.build(5, policy, s_init=2)
        for mask, occ in zip(basis.masks, basis.occupations):
            assert max(occ) <= 2
            assert bin(mask).count("1") + sum(occ) <= 4

    def test_count_arrays_match_states(self):
        policy = sp.TruncationPolicy(phonon_modes=(0, 2), fock_cutoff=2)
        basis = sp.ProductBasis.build(4, policy, s_init=2)
        for k, (mask, occ) in enumerate(zip(basis.masks, basis.occupations)):
            assert basis.spin_count[k] == bin(mask).count("1")
            assert basis.quanta[k] == bin(mask).count("1") + sum(occ)
            assert basis.phonon_count[k] == sum(occ)
        assert np.all(basis.quanta % 2 == 0)

    def test_index_round_trip(self):
        for n, modes, fock, s_init in [(3, (0,), 3, 1), (5, (0, 2), 2, 2),
                                       (10, (0, 1), 4, 1)]:
            policy = sp.TruncationPolicy(phonon_modes=modes, fock_cutoff=fock)
            basis = sp.ProductBasis.build(n, policy, s_init=s_init)
            for k, (mask, occ) in enumerate(zip(basis.masks,
                                                basis.occupations)):
                assert basis.state_index(int(mask), tuple(occ)) == k
            assert np.array_equal(basis.rows(basis.masks, basis.occupations),
                                  np.arange(basis.dim))


class TestSystemBuild:
    def test_refused_above_dense_limit_before_enumeration(self,
                                                          monkeypatch):
        # n = 4, one mode, fock 3, quanta <= 3: parity blocks of 12 even
        # and 20 odd states; the limit applies to the initial state's block
        monkeypatch.setattr(xy, "WORK_BYTES", 16 * 20 ** 2)
        assert small_system(n=4, fock=3)[2].basis.dim == 20
        monkeypatch.setattr(xy, "WORK_BYTES", 16 * 19 ** 2)
        assert small_system(n=4, fock=3, s_init=2,
                            total_quanta=3)[2].basis.dim == 12

        def enumerate_basis(*args):
            raise AssertionError("basis enumerated before the size check")

        monkeypatch.setattr(sp.ProductBasis, "build", enumerate_basis)
        with pytest.raises(xy.TooLarge) as err:
            small_system(n=4, fock=3)
        assert "dim 32" in str(err.value)
        assert "parity block of 20" in str(err.value)
        assert f"needs {16 * 20 ** 2} bytes" in str(err.value)

    def test_coupling_hermitian_and_frame_diagonal_real(self):
        _, _, system = small_system()
        assert np.allclose(system.V, system.V.T)
        assert system.D.dtype == float

    def test_frame_generator_counts_quanta(self):
        trap, _, system = small_system()
        basis = system.basis
        for k, (mask, occ) in enumerate(zip(basis.masks, basis.occupations)):
            expected = trap.omega_eff * bin(mask).count("1") + float(
                np.dot(system.mode_freqs, occ))
            assert system.D[k] == pytest.approx(expected, rel=1e-14)

    def test_coupling_matrix_elements(self):
        # <mask^(1<<i), n-1| V |mask, n> = -(Omega eta_i / 2) sqrt(n)
        trap, _, system = small_system(fock=2)
        basis = system.basis
        k = basis.state_index(0b001, (2,))
        k2 = basis.state_index(0b011, (1,))
        assert system.V[k2, k] == pytest.approx(
            -0.5 * trap.rabi * system.eta[1, 0] * np.sqrt(2), rel=1e-12)

    def test_coupling_changes_quanta_by_one(self):
        _, _, system = small_system()
        basis = system.basis
        for k, l in zip(*np.nonzero(system.V)):
            ds = abs(bin(basis.masks[k]).count("1")
                     - bin(basis.masks[l]).count("1"))
            dp = abs(sum(basis.occupations[k]) - sum(basis.occupations[l]))
            assert ds == 1 and dp == 1

    def test_coupling_conserves_quanta_parity(self):
        # V on the whole two-parity product basis: no element joins the
        # blocks, so the block of the initial state evolves alone
        _, _, system = small_system(modes=(0, 1), fock=2)
        states = loop_states(3, system.basis.policy, 1, both_parities=True)
        _, v = loop_operators(system, states)
        even = np.array([quanta_of(st) % 2 == 0 for st in states])
        assert even.any() and (~even).any()
        assert np.all(v[np.ix_(even, ~even)] == 0.0)

    def test_mode_override_changes_frame_and_eta(self):
        # a chain with the COM frequency pinned, as cmd_leakage builds it
        trap, chain, system = small_system()
        freqs = chain.mode_freqs.copy()
        freqs[0] *= 1.05
        pinned = sp.SpinPhononSystem.build(
            trap, replace(chain, mode_freqs=freqs), system.basis.policy,
            s_init=1)
        assert pinned.mode_freqs[0] == freqs[0]
        assert abs(pinned.eta[0, 0]) < abs(system.eta[0, 0])
        shift = system.basis.occupations[:, 0] * (freqs[0]
                                                  - chain.mode_freqs[0])
        assert pinned.D == pytest.approx(system.D + shift, rel=1e-14)

    def test_initial_state(self):
        _, _, system = small_system()
        psi = system.initial_state(0b010)
        assert np.linalg.norm(psi) == 1.0
        assert psi[system.basis.state_index(0b010, (0,))] == 1.0

    def test_initial_state_takes_a_phonon_array(self):
        _, _, system = small_system(modes=(0, 1), fock=2)
        psi = system.initial_state(0b100, np.array([1, 1]))
        assert psi[system.basis.state_index(0b100, (1, 1))] == 1.0

    def test_other_parity_names_the_block(self):
        # s_init = 1 builds the odd block: the all-down vacuum is even
        _, _, system = small_system()
        with pytest.raises(KeyError, match="quanta parity 0 outside the "
                                           "basis, the parity block 1 of "
                                           "s_init = 1"):
            system.initial_state(0)
        with pytest.raises(KeyError, match="parity block 1 of s_init = 1"):
            system.basis.state_index(0b001, (1,))


# (phonon modes, s_init) of the N = 10 leakage presets' product bases
LEAKAGE_BASES = {"2c": ((0,), 1), "2d": ((0, 1), 1), "3b": ((0,), 2),
                 "3c": ((0,), 5)}


def xy_reference(system, J, psi0):
    """The XY model model_fidelity(traj, J) compares with, built on its
    own for the loop references: the sector of s_init excitations with the
    fields of system's modes, and psi0's phonon-vacuum amplitudes looked
    up mask by mask."""
    basis = system.basis
    sector = xy.build_sector(J, ic.local_fields(system.trap, system.eta,
                                                system.mode_freqs),
                             basis.s_init)
    vacuum = (0,) * len(basis.policy.phonon_modes)
    psi_xy0 = np.array([psi0[basis.state_index(int(mask), vacuum)]
                        for mask in sector.basis])
    return sector, psi_xy0


def bare_couplings(system):
    """J on the included modes at r = 1, as leakage's F_bare uses it."""
    return ic.coupling_matrix(system.trap, system.eta, system.mode_freqs)


@pytest.mark.parametrize("modes, s_init", LEAKAGE_BASES.values(),
                         ids=LEAKAGE_BASES)
def test_array_assembly_matches_state_loops(modes, s_init):
    trap, chain, system = small_system(n=10, modes=modes, fock=4,
                                       s_init=s_init)
    basis = system.basis
    states = loop_states(10, basis.policy, s_init)
    assert [(int(m), tuple(int(x) for x in o))
            for m, o in zip(basis.masks, basis.occupations)] == states
    d, v = loop_operators(system, states)
    assert np.array_equal(system.D, d)
    assert np.array_equal(system.V, v)

    j = ic.coupling_matrix(trap, ic.lamb_dicke(trap, chain),
                           chain.mode_freqs)
    rng = np.random.default_rng(s_init)
    amps = rng.standard_normal((2, 12, basis.dim))
    traj = basis_trajectory(np.linspace(0, 5e-5, 12),
                            amps[0] + 1j * amps[1], system,
                            system.initial_state((1 << s_init) - 1))
    # equal to rounding: model_fidelity reads the XY reference out on the
    # in-sector rows and sums each occupation's overlap by a matrix product
    assert np.allclose(sp.model_fidelity(traj, j),
                       loop_model_fidelity(traj, states, *xy_reference(
                           system, j, traj.psi0)),
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("modes, s_init", LEAKAGE_BASES.values(),
                         ids=LEAKAGE_BASES)
def test_spectral_xy_reference_matches_chebyshev_grid(modes, s_init):
    # the presets' XY sectors, on their included modes, to a t = 100 of
    # the Chebyshev series: many hopping times
    _, _, system = small_system(n=10, modes=modes, s_init=s_init)
    sector, psi_xy0 = xy_reference(
        system, bare_couplings(system),
        system.initial_state((1 << s_init) - 1))
    lo, hi = xy.spectral_interval(sector.H, np.zeros((sector.dim, 1)))
    times = np.linspace(0.0, 100.0 / (0.5 * (hi - lo)), 300)
    spectral = xy.spectral(*sector.eigensystem(), psi_xy0, times)
    assert np.max(np.abs(spectral
                         - xy.evolve_grid(sector, psi_xy0, times))) < 1e-12


class TestPropagation:
    def test_spectral_norm_conserved(self):
        _, _, system = small_system()
        psi0 = system.initial_state(0b001)
        times = np.linspace(0, 2e-5, 40)
        traj = sp.propagate(system, psi0, times)
        norms = np.linalg.norm(traj.states, axis=1)
        assert norms == pytest.approx(np.ones_like(norms), abs=1e-12)

    def test_spectral_matches_runge_kutta(self):
        _, _, system = small_system()
        psi0 = system.initial_state(0b100)
        times = np.linspace(0, 1e-5, 15)
        a = sp.propagate(system, psi0, times, method="spectral")
        b = sp.propagate(system, psi0, times, method="rk", tol=1e-11)
        assert np.max(np.abs(a.states - b.states)) < 1e-7

    def test_spectral_matches_per_step_loop(self):
        _, _, system = small_system(modes=(0, 1), fock=2)
        psi0 = random_state(system)
        times = np.linspace(0, 2e-5, 30)
        traj = sp.propagate(system, psi0, times)
        ref = reference_states(system, psi0, times)
        assert np.max(np.abs(traj.states - ref)) < 1e-12

    def test_chunked_matches_unchunked(self, monkeypatch):
        _, _, system = small_system()
        psi0 = random_state(system, seed=1)
        times = np.linspace(0, 2e-5, 2 * sp._CHUNK_ROWS + 37)
        chunked = sp.propagate(system, psi0, times).states
        monkeypatch.setattr(sp, "_CHUNK_ROWS", len(times))
        whole = sp.propagate(system, psi0, times).states
        assert np.max(np.abs(chunked - whole)) < 1e-14
        assert np.max(np.abs(chunked - reference_states(system, psi0, times))) \
            < 1e-12

    def test_rk_self_convergence(self):
        _, _, system = small_system()
        psi0 = system.initial_state(0b001)
        times = np.array([0.0, 5e-6])
        loose = sp.propagate(system, psi0, times, method="rk", tol=1e-7)
        tight = sp.propagate(system, psi0, times, method="rk", tol=1e-11)
        assert np.max(np.abs(loose.states[-1] - tight.states[-1])) < 1e-6

    def test_unknown_method_rejected(self):
        _, _, system = small_system()
        with pytest.raises(ValueError):
            sp.propagate(system, system.initial_state(1), np.array([0.0]),
                         method="euler")

    def test_zero_coupling_only_accumulates_frame_phase(self):
        trap = ic.reference_trap(2, 2 * np.pi * 0.8e6).with_(rabi_total=0.0)
        chain = ic.solve_chain(trap)
        mu = 1.05 * chain.mode_freqs[0]
        trap = trap.with_(detuning_mu=float(mu))
        policy = sp.TruncationPolicy(phonon_modes=(0,), fock_cutoff=2)
        system = sp.SpinPhononSystem.build(trap, chain, policy, s_init=1)
        psi0 = system.initial_state(0b01)
        traj = sp.propagate(system, psi0, np.linspace(0, 1e-5, 9))
        assert np.abs(traj.states) == pytest.approx(
            np.abs(psi0)[None, :].repeat(9, axis=0), abs=1e-13)


@settings(max_examples=12)
@given(n=st.integers(2, 5), fock=st.integers(1, 3), n_modes=st.integers(1, 2),
       s_init=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_structure_and_norm_properties(n, fock, n_modes, s_init, seed):
    s_init = min(s_init, n)
    _, _, system = small_system(n=n, modes=tuple(range(n_modes)), fock=fock,
                                s_init=s_init)
    h = np.diag(system.D) + system.V
    assert np.array_equal(h, h.conj().T)
    assert np.all(system.basis.quanta % 2 == s_init % 2)
    psi0 = random_state(system, seed)
    traj = sp.propagate(system, psi0, np.linspace(0, 2e-5, 9))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("s_init", [1, 2])
def test_block_matches_full_two_parity_basis(s_init):
    """The one-block path against the design it replaced: the whole
    two-parity product basis, propagated in the interaction frame, here by
    expm."""
    n, mask0 = 3, (1 << s_init) - 1
    trap, chain, system = small_system(n=n, modes=(0, 1), fock=2,
                                       s_init=s_init, total_quanta=3)
    full = loop_states(n, system.basis.policy, s_init, both_parities=True)
    d, v = loop_operators(system, full)
    own = np.array([quanta_of(st) % 2 == s_init % 2 for st in full])
    assert [full[k] for k in np.flatnonzero(own)] == [
        (int(m), tuple(int(x) for x in o))
        for m, o in zip(system.basis.masks, system.basis.occupations)]
    psi_full = np.zeros(len(full), dtype=complex)
    psi_full[full.index((mask0, (0, 0)))] = 1.0
    times = np.linspace(0, 2e-5, 9)
    ref = np.array([np.exp(1j * d * t) * (expm(-1j * (np.diag(d) + v) * t)
                                          @ psi_full) for t in times])
    assert np.all(ref[:, ~own] == 0.0)

    traj = sp.propagate(system, system.initial_state(mask0), times)
    # the block states are static-frame: e^{iDt} takes them to the old one
    framed = np.exp(1j * system.D * times[:, None]) * traj.states
    assert np.max(np.abs(framed - ref[:, own])) < 1e-12

    old = basis_trajectory(times, ref, None)
    pop = np.abs(ref) ** 2
    spins = np.array([mask.bit_count() for mask, _ in full])
    phonons = np.array([sum(occ) for _, occ in full])
    assert np.max(np.abs(sp.vacuum_overlap(traj)
                         - pop[:, spins == 0].sum(axis=1))) < 1e-12
    assert np.max(np.abs(sp.phonon_occupation(traj) - pop @ phonons)) < 1e-12
    j = ic.coupling_matrix(trap, ic.lamb_dicke(trap, chain),
                           chain.mode_freqs)
    assert np.max(np.abs(sp.model_fidelity(traj, j)
                         - loop_model_fidelity(old, full, *xy_reference(
                             system, j, traj.psi0)))) < 1e-12


class TestObservables:
    def test_vacuum_overlap_initial(self):
        # one system per parity: the all-down state is in the even block
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(0b010),
                            np.array([0.0]))
        assert sp.vacuum_overlap(traj)[0] == pytest.approx(0.0)
        _, _, even = small_system(s_init=2)
        traj0 = sp.propagate(even, even.initial_state(0), np.array([0.0]))
        assert sp.vacuum_overlap(traj0)[0] == pytest.approx(1.0)

    def test_phonon_occupation_initial(self):
        _, _, system = small_system(fock=3)
        psi = system.initial_state(0b001, (2,))
        traj = sp.propagate(system, psi, np.array([0.0]))
        assert sp.phonon_occupation(traj)[0] == pytest.approx(2.0)

    def test_population_bookkeeping(self):
        # leaked population + excitation-carrying population = 1
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(0b001),
                            np.linspace(0, 2e-5, 25))
        e = sp.vacuum_overlap(traj)
        occupied = np.zeros_like(e)
        for k, mask in enumerate(system.basis.masks):
            if mask != 0:
                occupied += np.abs(traj.states[:, k]) ** 2
        assert e + occupied == pytest.approx(np.ones_like(e), abs=1e-12)

    def test_model_fidelity_decoupled_limit(self):
        trap = ic.reference_trap(3, 2 * np.pi * 0.8e6).with_(rabi_total=0.0)
        chain = ic.solve_chain(trap)
        trap = trap.with_(detuning_mu=float(1.05 * chain.mode_freqs[0]))
        policy = sp.TruncationPolicy(phonon_modes=(0,), fock_cutoff=2)
        system = sp.SpinPhononSystem.build(trap, chain, policy, s_init=1)
        traj = sp.propagate(system, system.initial_state(0b001),
                            np.linspace(0, 1e-5, 9))
        # no Rabi frequency: no couplings and no AC-Stark fields
        f = sp.model_fidelity(traj, np.zeros((3, 3)))
        assert f == pytest.approx(np.ones_like(f), abs=1e-12)

    def test_model_fidelity_site_count_checked(self):
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(1),
                            np.array([0.0]))
        with pytest.raises(ValueError, match=r"J is \(4, 4\), not \(3, 3\)"):
            sp.model_fidelity(traj, np.zeros((4, 4)))

    def test_model_fidelity_needs_a_phonon_vacuum_component(self):
        # one excitation and two phonons: no XY state to start from
        _, _, system = small_system(fock=3)
        traj = sp.propagate(system, system.initial_state(0b001, (2,)),
                            np.array([0.0]))
        with pytest.raises(ValueError, match="no phonon-vacuum part"):
            sp.model_fidelity(traj, bare_couplings(system))

    def test_model_fidelity_bounded(self):
        trap, chain, system = small_system()
        j = ic.coupling_matrix(trap, ic.lamb_dicke(trap, chain),
                               chain.mode_freqs)
        traj = sp.propagate(system, system.initial_state(0b001),
                            np.linspace(0, 5e-5, 30))
        f = sp.model_fidelity(traj, j)
        assert np.all(f <= 1.0 + 1e-12)
        assert f[0] == pytest.approx(1.0)


class TestTruncationDiagnostics:
    def test_keys_against_state_loops(self):
        _, _, system = small_system(fock=2)
        basis = system.basis
        traj = sp.propagate(system, system.initial_state(0b001),
                            np.linspace(0, 3e-5, 20))
        diag = sp.truncation_diagnostics(traj)
        assert diag["block_dim"] == basis.dim == len(traj.states[0])
        # qmax = 3: the edge is n_0 = 2 or quanta = 3
        edge = [k for k, (mask, occ) in enumerate(zip(basis.masks,
                                                      basis.occupations))
                if occ[0] == 2 or bin(mask).count("1") + occ[0] == 3]
        on_edge = np.sum(np.abs(traj.states[:, edge]) ** 2, axis=1)
        assert on_edge[0] < 1e-20 and on_edge.max() > 1e-12
        assert diag["edge_population_max"] == pytest.approx(on_edge.max(),
                                                            rel=1e-12)
        drift = np.abs(1.0 - np.linalg.norm(traj.states, axis=1))
        assert diag["norm_drift_max"] == pytest.approx(drift.max(), abs=1e-15)
        assert diag["norm_drift_max"] < 1e-13

    def test_edge_is_the_top_level_of_the_block(self):
        # quanta <= 4 in the odd block: its top level, quanta 3, is the edge
        _, _, system = small_system(fock=4, total_quanta=4)
        basis = system.basis
        for k in range(basis.dim):
            states = np.zeros((1, basis.dim), dtype=complex)
            states[0, k] = 1.0
            traj = basis_trajectory(np.zeros(1), states, system)
            assert sp.truncation_diagnostics(traj)["edge_population_max"] \
                == float(basis.quanta[k] == 3 or basis.occupations[k, 0] == 4)


def lopside_eta(monkeypatch):
    """Make the first Lamb-Dicke column 1 % larger on site 0 alone."""
    lamb_dicke = sp.lamb_dicke

    def lopsided(trap, chain):
        eta = lamb_dicke(trap, chain)
        eta[0, 0] *= 1.01
        return eta

    monkeypatch.setattr(sp, "lamb_dicke", lopsided)


class TestMirrorHalves:
    @pytest.mark.parametrize("n, modes, s_init", [
        (3, (0,), 1), (4, (0,), 2), (4, (0, 1), 1), (5, (0, 1), 2)])
    def test_split_matches_full_block_eigh(self, n, modes, s_init):
        _, _, system = small_system(n=n, modes=modes, fock=2, s_init=s_init)
        partner, sign = system.reflection()
        assert not np.array_equal(partner, np.arange(system.basis.dim))
        # the second mode is mirror-odd: odd occupations of it flip sign
        assert np.any(sign < 0) == (len(modes) == 2)
        halves = system.eigensystem()
        dims = [len(w) for w, _, _, _ in halves]
        assert len(dims) == 2 and sum(dims) == system.basis.dim
        # both paths round phases w t of about 2e3 rad at 1e-5 s: each is
        # within ~6e-13 of the exact states
        times = np.linspace(0, 1e-5, 30)
        for psi0 in (random_state(system, seed=n),
                     system.initial_state((1 << s_init) - 1)):
            traj = sp.propagate(system, psi0, times)
            ref = reference_states(system, psi0, times)
            assert np.max(np.abs(traj.states - ref)) < 1e-12
        assert sp.truncation_diagnostics(traj)["mirror_block_dims"] == dims

    def test_eta_of_neither_parity_keeps_the_whole_block(self, monkeypatch):
        lopside_eta(monkeypatch)
        _, _, system = small_system(n=4, modes=(0, 1), fock=2)
        dim = system.basis.dim
        partner, sign = system.reflection()
        assert np.array_equal(partner, np.arange(dim)) and np.all(sign == 1)
        (w, _, idx, coef), = system.eigensystem()
        # every part's eigh is centred on c, the midpoint of its D
        c = 0.5 * (system.D.min() + system.D.max())
        assert np.array_equal(w, np.linalg.eigh(np.diag(system.D - c)
                                                + system.V)[0] + c)
        assert np.array_equal(idx, np.arange(dim)) and np.all(coef == 1.0)
        psi0 = random_state(system, seed=3)
        times = np.linspace(0, 2e-5, 30)
        traj = sp.propagate(system, psi0, times)
        assert np.max(np.abs(traj.states
                             - reference_states(system, psi0, times))) < 1e-12
        assert sp.truncation_diagnostics(traj)["mirror_block_dims"] == [dim]


# every path rounds the phases w t, up to max(D) t of about 1e3 rad at N = 10
# and s = 5, to a few 1e-13
ORBIT_TIMES = np.linspace(0, 4e-6, 9)


def mirror_states(system, psi0, times, halves=None):
    """States from the mirror halves alone (system.eigensystem() unless
    halves are given), gathered as propagate gathers them (times within
    one chunk)."""
    states = np.zeros((len(times), len(psi0)), dtype=complex)
    for w, q, idx, coef in halves or system.eigensystem():
        part = xy.mirror_part(psi0, idx, coef, len(w))
        states += xy.spectral(w, q, part, times)[:, idx] * coef
    return states


class TestOrbitSums:
    # N = 10 with the presets' cutoffs (2a-2c, 3b, the s = 3 benchmark run
    # and 3c), and a short chain
    @pytest.mark.parametrize("n, s_init", [(10, 1), (10, 2), (10, 3),
                                           (10, 5), (4, 2)])
    def test_matches_full_block_and_mirror_halves(self, n, s_init):
        _, _, system = small_system(n=n, fock=4, s_init=s_init)
        psi0 = system.initial_state((1 << s_init) - 1)
        assert system.orbit_sites(psi0) == (1 << s_init) - 1
        traj = sp.propagate(system, psi0, ORBIT_TIMES)
        (w, q, idx, coef), = system.eigensystem(psi0)
        assert traj.propagated_dims == [len(w)] and len(w) < system.basis.dim
        assert np.max(np.abs(traj.states - reference_states(
            system, psi0, ORBIT_TIMES))) < 1e-12
        assert np.max(np.abs(traj.states - mirror_states(
            system, psi0, ORBIT_TIMES))) < 1e-12

    @pytest.mark.parametrize("s_init, orbits", [(1, 10), (2, 19), (3, 30),
                                                (5, 57)])
    def test_orbit_counts_of_the_presets(self, s_init, orbits):
        _, _, system = small_system(n=10, fock=4, s_init=s_init)
        psi0 = system.initial_state((1 << s_init) - 1)
        (w, q, idx, coef), = system.eigensystem(psi0)
        assert len(w) == q.shape[0] == orbits
        # orbit (a on the excited sites, b off them, n phonons) holds
        # comb(s, a) comb(N - s, b) states; coef is its 1 / sqrt(size)
        basis = system.basis
        on = np.array([bin(int(m) & ((1 << s_init) - 1)).count("1")
                       for m in basis.masks])
        size = np.array([comb(s_init, a) * comb(10 - s_init, c - a)
                         for a, c in zip(on, basis.spin_count)])
        assert np.allclose(coef, 1.0 / np.sqrt(size), rtol=1e-15)
        assert np.array_equal(np.bincount(idx), size[np.unique(
            idx, return_index=True)[1]])
        # the orbits are the labels (a, b, occupations)
        labels = {}
        for k, (a, c, occ) in enumerate(zip(on, basis.spin_count,
                                            map(tuple, basis.occupations))):
            labels.setdefault((a, c - a, *occ), set()).add(int(idx[k]))
        assert len(labels) == orbits
        assert all(len(members) == 1 for members in labels.values())
        assert sp.truncation_diagnostics(sp.propagate(
            system, psi0, np.zeros(1)))["propagated_dims"] == [orbits]

    def test_every_site_excited(self):
        # s_init = n_ions: psi0 has no empty sites
        _, _, system = small_system(n=4, fock=3, s_init=4)
        psi0 = system.initial_state(0b1111)
        traj = sp.propagate(system, psi0, ORBIT_TIMES)
        assert traj.propagated_dims[0] < system.basis.dim
        assert np.max(np.abs(traj.states - reference_states(
            system, psi0, ORBIT_TIMES))) < 1e-12

    @pytest.mark.parametrize("modes", [(0,), ()])
    def test_all_zero_coupling(self, modes):
        # a zero Rabi frequency writes zero elements; no modes write none
        trap = ic.reference_trap(4, 2 * np.pi * 0.8e6).with_(rabi_total=0.0)
        chain = ic.solve_chain(trap)
        trap = trap.with_(detuning_mu=float(1.05 * chain.mode_freqs[0]))
        policy = sp.TruncationPolicy(phonon_modes=modes, fock_cutoff=2)
        system = sp.SpinPhononSystem.build(trap, chain, policy, s_init=1)
        psi0 = system.initial_state(0b0001)
        (w, q, _, _), = system.eigensystem(psi0)
        assert w.dtype == q.dtype == np.float64
        states = sp.propagate(system, psi0, ORBIT_TIMES).states
        assert np.max(np.abs(states - reference_states(
            system, psi0, ORBIT_TIMES))) < 1e-12
        assert np.abs(states) == pytest.approx(
            np.abs(psi0)[None, :].repeat(9, axis=0), abs=1e-13)

    def test_one_labelling_per_psi0(self):
        # the orbit sums follow psi0's excited sites; with no psi0 the
        # block splits into its mirror halves
        _, _, system = small_system(n=4, fock=2, s_init=2)
        (_, _, low, _), = system.eigensystem(system.initial_state(0b0011))
        (_, _, high, _), = system.eigensystem(system.initial_state(0b1100))
        assert not np.array_equal(low, high)
        assert len(system.eigensystem()) == 2

    def test_lopsided_site_outside_the_excited_set(self, monkeypatch):
        # eta off on site 0 alone: with psi0 exciting site 0 alone, both
        # site sets stay uniform and the orbit sums still hold the dynamics
        lopside_eta(monkeypatch)
        _, _, system = small_system(n=5, fock=3)
        psi0 = system.initial_state(0b00001)
        traj = sp.propagate(system, psi0, ORBIT_TIMES)
        assert traj.propagated_dims[0] < system.basis.dim
        assert np.max(np.abs(traj.states - reference_states(
            system, psi0, ORBIT_TIMES))) < 1e-12
        assert system.orbit_sites(system.initial_state(0b00010)) is None


class TestMirrorFallback:
    """Inputs the orbit sums do not hold: propagate runs the mirror halves
    bit for bit."""

    def check(self, system, psi0):
        times = np.linspace(0, 2e-5, 30)
        assert system.orbit_sites(psi0) is None
        traj = sp.propagate(system, psi0, times)
        assert np.array_equal(traj.states, mirror_states(system, psi0, times))
        assert traj.propagated_dims == [len(w) for w, *_ in
                                        system.eigensystem()]
        assert np.max(np.abs(traj.states
                             - reference_states(system, psi0, times))) < 1e-12

    def test_two_modes(self):
        _, _, system = small_system(n=5, modes=(0, 1), fock=2)
        self.check(system, system.initial_state(0b00001))

    def test_superposition(self):
        _, _, system = small_system(n=5, fock=3, s_init=2)
        self.check(system, random_state(system, seed=5))

    def test_lopsided_eta(self, monkeypatch):
        lopside_eta(monkeypatch)
        _, _, system = small_system(n=4, fock=2, s_init=2)
        self.check(system, system.initial_state(0b0011))


def second_mode_system():
    """The block of the two-mode preset 2d: N = 10, the COM mode and the
    CLI's second mode, fock_cutoff 4, s = 1."""
    from ionchain.cli import _second_mode
    trap, chain, _ = small_system(n=10)
    second = _second_mode(trap, sp.lamb_dicke(trap, chain), chain.mode_freqs)
    policy = sp.TruncationPolicy(phonon_modes=(0, second), fock_cutoff=4)
    return sp.SpinPhononSystem.build(trap, chain, policy, s_init=1)


def dense_mirror_halves(system):
    """The mirror halves as the dense V gives them: the explicit orbit
    matrix S^T V S of each half, S[k, idx[k]] = coef[k], plus D, each
    solved by eigh."""
    halves = []
    for keep, idx, coef in xy.mirror_orbits(*system.reflection()):
        s = np.zeros((len(idx), len(keep)))
        s[np.arange(len(idx)), idx] = coef
        halves.append((*np.linalg.eigh(s.T @ system.V @ s
                                       + np.diag(system.D[keep])), idx, coef))
    return halves


class TestOneReduction:
    """The mirror halves and the orbit sums come from one reducer of V's
    elements; the spectral path never builds the dense V."""

    @pytest.mark.parametrize("case", ["com", "two_modes", "superposition"])
    def test_spectral_path_builds_no_dense_v(self, case):
        if case == "com":
            _, _, system = small_system(n=5, fock=3, s_init=2)
            psi0 = system.initial_state(0b00011)
        elif case == "two_modes":
            _, _, system = small_system(n=5, modes=(0, 1), fock=2)
            psi0 = system.initial_state(0b00001)
        else:
            _, _, system = small_system(n=5, fock=3, s_init=2)
            psi0 = random_state(system, seed=7)
        traj = sp.propagate(system, psi0, ORBIT_TIMES)
        sp.truncation_diagnostics(traj)
        assert "V" not in vars(system)
        assert (system.orbit_sites(psi0) is None) == (case != "com")

    @pytest.mark.parametrize("build", [
        lambda: small_system(n=3, fock=2)[2],
        lambda: small_system(n=4, fock=2, s_init=2)[2],
        lambda: small_system(n=4, modes=(0, 1), fock=2)[2],
        lambda: small_system(n=5, modes=(0, 1), fock=2, s_init=2)[2],
        second_mode_system], ids=["3-1", "4-2", "4-2modes", "5-2modes", "2d"])
    def test_halves_match_the_dense_gather(self, build):
        system = build()
        halves = system.eigensystem()
        assert "V" not in vars(system)
        dense = dense_mirror_halves(system)
        assert [len(w) for w, *_ in halves] == [len(w) for w, *_ in dense]
        for (w, _, idx, coef), (w_ref, _, idx_ref, coef_ref) in zip(halves,
                                                                    dense):
            assert np.array_equal(idx, idx_ref)
            assert np.array_equal(coef, coef_ref)
            # relative to the largest: the uncentred dense eigh is accurate
            # to rounding of max |D|, not of each eigenvalue (one is ~50)
            assert np.max(np.abs(w - w_ref)) < 1e-12 * np.max(np.abs(w_ref))
        # as in TestMirrorHalves: each path rounds phases w t of about
        # 2e3 rad at 1e-5 s to ~6e-13 of the exact states
        times = np.linspace(0, 1e-5, 30)
        for psi0 in (random_state(system, seed=2),
                     system.initial_state((1 << system.basis.s_init) - 1)):
            assert np.max(np.abs(mirror_states(system, psi0, times)
                                 - mirror_states(system, psi0, times,
                                                 dense))) < 1e-12

    def test_the_presets_block_splits_in_equal_halves(self):
        system = second_mode_system()
        assert system.basis.dim == 256
        assert [len(w) for w, *_ in system.eigensystem()] == [128, 128]


def basis_readers(traj, sector, psi_xy0):
    """The leakage observables read from the expanded product-basis states
    traj.states, row by row of the block, as every reader read them before
    the parts' amplitudes were kept instead."""
    basis = traj.system.basis
    pop = np.abs(traj.states) ** 2
    edge = np.any(basis.occupations == basis.policy.fock_cutoff, axis=1) \
        | (basis.quanta >= basis.qmax - 1)
    states = [(int(m), tuple(int(x) for x in o))
              for m, o in zip(basis.masks, basis.occupations)]
    return {"vacuum": pop[:, basis.spin_count == 0].sum(axis=1),
            "nbar": pop @ basis.phonon_count,
            "edge": pop @ edge,
            "norm": np.sqrt(pop.sum(axis=1)),
            "fidelity": loop_model_fidelity(traj, states, sector, psi_xy0)}


class TestReducedReaders:
    """Every reader works on the parts' amplitudes; each labelling agrees
    with the product-basis reference on the expanded states."""

    def check(self, trap, system, traj):
        j = bare_couplings(system)
        ref = basis_readers(traj, *xy_reference(system, j, traj.psi0))
        diag = sp.truncation_diagnostics(traj)
        assert np.max(np.abs(sp.vacuum_overlap(traj) - ref["vacuum"])) < 1e-12
        assert np.max(np.abs(sp.phonon_occupation(traj) - ref["nbar"])) \
            < 1e-12
        assert np.max(np.abs(sp.model_fidelity(traj, j)
                             - ref["fidelity"])) < 1e-12
        assert abs(diag["edge_population_max"] - ref["edge"].max()) < 1e-12
        assert abs(diag["norm_drift_max"]
                   - np.max(np.abs(1.0 - ref["norm"]))) < 1e-12
        assert diag["propagated_dims"] == [a.shape[1] for a, *_ in traj.parts]

    def test_orbit_sums(self):
        trap, _, system = small_system(n=10, fock=4, s_init=3)
        traj = sp.propagate(system, system.initial_state(0b111),
                            np.linspace(0, 4e-5, 40))
        (amps, _, coef), = traj.parts
        assert amps.shape == (40, 30) and np.all(coef > 0)
        self.check(trap, system, traj)

    @pytest.mark.parametrize("case", ["two_modes", "superposition"])
    def test_mirror_halves(self, case):
        if case == "two_modes":
            trap, _, system = small_system(n=5, modes=(0, 1), fock=2)
            psi0 = system.initial_state(0b00001)
        else:
            trap, _, system = small_system(n=5, fock=3, s_init=2)
            psi0 = random_state(system, seed=11)
        traj = sp.propagate(system, psi0, np.linspace(0, 2e-5, 40))
        assert len(traj.parts) == 2
        assert any(np.any(coef < 0) for *_, coef in traj.parts)
        self.check(trap, system, traj)

    def test_identity_of_runge_kutta(self):
        trap, _, system = small_system(n=4, fock=2, s_init=2)
        traj = sp.propagate(system, system.initial_state(0b0011),
                            np.linspace(0, 1e-5, 15), method="rk")
        (amps, idx, coef), = traj.parts
        dim = system.basis.dim
        assert amps.shape == (15, dim)
        assert np.array_equal(idx, np.arange(dim)) and np.all(coef == 1.0)
        self.check(trap, system, traj)


def test_spectral_path_allocates_no_trajectory():
    # the block of preset 3c (N = 10, s = 5, 57 orbit sums) on 1000 times:
    # propagate and every reader stay below one len(times) x block array
    _, _, system = small_system(n=10, fock=4, s_init=5)
    j = bare_couplings(system)
    psi0 = system.initial_state(0b11111)
    times = np.linspace(0, 2e-4, 1000)
    trajectory_bytes = 16 * len(times) * system.basis.dim
    tracemalloc.start()
    try:
        traj = sp.propagate(system, psi0, times)
        sp.vacuum_overlap(traj)
        sp.phonon_occupation(traj)
        sp.truncation_diagnostics(traj)
        sp.model_fidelity(traj, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.propagated_dims == [57]
    assert peak < trajectory_bytes
