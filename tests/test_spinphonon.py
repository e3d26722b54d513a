import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    """Per-time-step propagator on a dense eigh of the whole product basis."""
    w, q = np.linalg.eigh(np.diag(system.D) + system.V)
    coeffs = q.conj().T @ psi0
    return np.array([np.exp(1j * system.D * t)
                     * (q @ (np.exp(-1j * w * t) * coeffs)) for t in times])


def cross_parity_block(system):
    even = system.basis.quanta % 2 == 0
    return system.V[np.ix_(even, ~even)]


def mixed_parity_state(system, seed=0):
    """Normalised random superposition with weight in both parity blocks."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(system.basis.dim) \
        + 1j * rng.standard_normal(system.basis.dim)
    return psi / np.linalg.norm(psi)


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
        policy = sp.TruncationPolicy(phonon_modes=(0, 1), fock_cutoff=2,
                                     total_quanta_cutoff=3)
        basis = sp.ProductBasis.build(4, policy, s_init=1)
        count = 0
        for mask in range(16):
            s = bin(mask).count("1")
            for n0 in range(3):
                for n1 in range(3):
                    if s + n0 + n1 <= 3:
                        count += 1
                        assert (mask, (n0, n1)) in basis.index
        assert basis.dim == count

    def test_states_respect_cutoffs(self):
        policy = sp.TruncationPolicy(phonon_modes=(0,), fock_cutoff=2)
        basis = sp.ProductBasis.build(5, policy, s_init=2)
        for mask, occ in basis.states:
            assert max(occ) <= 2
            assert bin(mask).count("1") + sum(occ) <= 4

    def test_count_arrays_match_states(self):
        policy = sp.TruncationPolicy(phonon_modes=(0, 2), fock_cutoff=2)
        basis = sp.ProductBasis.build(4, policy, s_init=2)
        for k, (mask, occ) in enumerate(basis.states):
            assert basis.spin_count[k] == bin(mask).count("1")
            assert tuple(basis.occupations[k]) == occ
            assert basis.quanta[k] == bin(mask).count("1") + sum(occ)
            assert basis.phonon_count[k] == sum(occ)
        even = basis.parity_block(0)
        odd = basis.parity_block(1)
        assert np.array_equal(np.sort(np.concatenate([even, odd])),
                              np.arange(basis.dim))

    def test_index_round_trip(self):
        policy = sp.TruncationPolicy(phonon_modes=(0,), fock_cutoff=3)
        basis = sp.ProductBasis.build(3, policy, s_init=1)
        for k, (mask, occ) in enumerate(basis.states):
            assert basis.state_index(mask, occ) == k


class TestSystemBuild:
    def test_coupling_hermitian_and_frame_diagonal_real(self):
        _, _, system = small_system()
        assert np.allclose(system.V, system.V.T)
        assert system.D.dtype == float

    def test_frame_generator_counts_quanta(self):
        trap, _, system = small_system()
        for k, (mask, occ) in enumerate(system.basis.states):
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
        for k, (mk, ok) in enumerate(system.basis.states):
            for l, (ml, ol) in enumerate(system.basis.states):
                if system.V[k, l] != 0.0:
                    ds = abs(bin(mk).count("1") - bin(ml).count("1"))
                    dp = abs(sum(ok) - sum(ol))
                    assert ds == 1 and dp == 1

    def test_coupling_conserves_quanta_parity(self):
        _, _, system = small_system(modes=(0, 1), fock=2)
        assert np.all(cross_parity_block(system) == 0.0)

    def test_interaction_hamiltonian_is_rotated_coupling(self):
        _, _, system = small_system()
        assert system.interaction_hamiltonian(0.0) == pytest.approx(system.V)
        t = 3.7e-7
        h = system.interaction_hamiltonian(t)
        assert h == pytest.approx(h.conj().T)
        scale = np.max(np.abs(system.V))
        assert np.abs(h) == pytest.approx(np.abs(system.V),
                                          abs=1e-12 * scale)

    def test_mode_override_changes_frame_and_eta(self):
        trap, chain, system = small_system()
        policy = system.basis.policy
        w_new = np.array([chain.mode_freqs[0] * 1.05])
        pinned = sp.SpinPhononSystem.build(trap, chain, policy, s_init=1,
                                           mode_freq_override=w_new)
        assert pinned.mode_freqs[0] == pytest.approx(w_new[0])
        assert abs(pinned.eta[0, 0]) < abs(system.eta[0, 0])
        # the original chain solution is untouched
        assert chain.mode_freqs[0] != pytest.approx(w_new[0])

    def test_mode_override_length_checked(self):
        trap, chain, system = small_system()
        with pytest.raises(ValueError):
            sp.SpinPhononSystem.build(trap, chain, system.basis.policy,
                                      s_init=1,
                                      mode_freq_override=np.array([1.0, 2.0]))

    def test_initial_state(self):
        _, _, system = small_system()
        psi = system.initial_state(0b010)
        assert np.linalg.norm(psi) == 1.0
        assert psi[system.basis.state_index(0b010, (0,))] == 1.0


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

    def test_spectral_matches_full_basis_loop(self):
        _, _, system = small_system(modes=(0, 1), fock=2)
        psi0 = mixed_parity_state(system)
        times = np.linspace(0, 2e-5, 30)
        traj = sp.propagate(system, psi0, times)
        ref = reference_states(system, psi0, times)
        assert np.max(np.abs(traj.states - ref)) < 1e-12

    def test_other_parity_stays_exactly_zero(self):
        _, _, system = small_system(modes=(0, 1), fock=2)
        for parity, mask in ((1, 0b001), (0, 0b011)):
            psi0 = system.initial_state(mask)
            assert system.basis.quanta[np.flatnonzero(psi0)[0]] % 2 == parity
            traj = sp.propagate(system, psi0, np.linspace(0, 2e-5, 12))
            own = system.basis.parity_block(parity)
            other = system.basis.parity_block(1 - parity)
            assert np.all(traj.states[:, other] == 0.0)
            # the state has spread within its own block
            assert np.count_nonzero(traj.states[-1, own]) > 1

    def test_chunked_matches_unchunked(self, monkeypatch):
        _, _, system = small_system()
        psi0 = mixed_parity_state(system, seed=1)
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


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(n=st.integers(2, 5), fock=st.integers(1, 3), n_modes=st.integers(1, 2),
       s_init=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_structure_and_norm_properties(n, fock, n_modes, s_init, seed):
    _, _, system = small_system(n=n, modes=tuple(range(n_modes)), fock=fock,
                                s_init=min(s_init, n))
    h = np.diag(system.D) + system.V
    assert np.array_equal(h, h.conj().T)
    assert np.all(cross_parity_block(system) == 0.0)
    psi0 = mixed_parity_state(system, seed)
    traj = sp.propagate(system, psi0, np.linspace(0, 2e-5, 9))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        _, _, system = small_system()
        psi0 = system.initial_state(0b001)
        traj = sp.propagate(system, psi0, np.linspace(0, 1e-5, 11))
        path = tmp_path / "traj.bin"
        sp.save_checkpoint(traj, path)
        back = sp.load_checkpoint(path, system)
        assert back.times == pytest.approx(traj.times)
        assert np.array_equal(back.states, traj.states)

    def test_dimension_mismatch_rejected(self, tmp_path):
        _, _, system = small_system()
        _, _, bigger = small_system(n=4)
        traj = sp.propagate(system, system.initial_state(1),
                            np.array([0.0, 1e-6]))
        path = tmp_path / "traj.bin"
        sp.save_checkpoint(traj, path)
        with pytest.raises(ValueError):
            sp.load_checkpoint(path, bigger)

    @pytest.mark.parametrize("excess", [-16, 8])
    def test_byte_count_checked(self, tmp_path, excess):
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(1),
                            np.array([0.0, 1e-6]))
        path = tmp_path / "traj.bin"
        sp.save_checkpoint(traj, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:excess] if excess < 0 else raw + b"\0" * excess)
        expected = 8 * 2 + 16 * 2 * system.basis.dim
        with pytest.raises(sp.CheckpointError,
                           match=f"holds {expected + excess} data bytes.*"
                                 f"needs {expected}"):
            sp.load_checkpoint(path, system)

    def test_version_checked(self, tmp_path):
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(1),
                            np.array([0.0, 1e-6]))
        path = tmp_path / "traj.bin"
        sp.save_checkpoint(traj, path)
        raw = path.read_bytes()
        head, rest = raw.split(b"\n", 1)
        bad = head.replace(b'"version": 1', b'"version": 99')
        path.write_bytes(bad + b"\n" + rest)
        with pytest.raises(ValueError):
            sp.load_checkpoint(path, system)


class TestObservables:
    def test_vacuum_overlap_initial(self):
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(0b010),
                            np.array([0.0]))
        assert sp.vacuum_overlap(traj)[0] == pytest.approx(0.0)
        traj0 = sp.propagate(system, system.initial_state(0),
                             np.array([0.0]))
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
        for k, (mask, _) in enumerate(system.basis.states):
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
        sector = xy.build_sector(np.zeros((3, 3)), None, 1)
        psi_xy0 = np.zeros(3, dtype=complex)
        psi_xy0[sector.index_of(0b001)] = 1.0
        f = sp.model_fidelity(traj, sector, psi_xy0)
        assert f == pytest.approx(np.ones_like(f), abs=1e-12)

    def test_model_fidelity_site_count_checked(self):
        _, _, system = small_system()
        traj = sp.propagate(system, system.initial_state(1),
                            np.array([0.0]))
        sector = xy.build_sector(np.zeros((4, 4)), None, 1)
        with pytest.raises(xy.BasisMismatch):
            sp.model_fidelity(traj, sector, np.zeros(4, dtype=complex))

    def test_model_fidelity_bounded(self):
        trap, chain, system = small_system()
        j = ic.coupling_matrix(trap, ic.lamb_dicke(trap, chain),
                               chain.mode_freqs)
        h = ic.local_fields(trap, ic.lamb_dicke(trap, chain),
                            chain.mode_freqs)
        sector = xy.build_sector(j, h, 1)
        psi_xy0 = np.zeros(3, dtype=complex)
        psi_xy0[sector.index_of(0b001)] = 1.0
        traj = sp.propagate(system, system.initial_state(0b001),
                            np.linspace(0, 5e-5, 30))
        f = sp.model_fidelity(traj, sector, psi_xy0)
        assert np.all(f <= 1.0 + 1e-12)
        assert f[0] == pytest.approx(1.0)
