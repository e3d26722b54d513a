from math import comb

import numpy as np
import pytest
from scipy.linalg import expm

import ionchain as ic
from ionchain import xy

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_couplings(n, seed):
    rng = np.random.default_rng(seed)
    j = rng.normal(size=(n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    h = rng.normal(size=n)
    return j, h


def kron_site_op(op, site, n):
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def full_xy_hamiltonian(j, h):
    """Ordered-pair sum over sigma-x sigma-x + sigma-y sigma-y plus fields,
    in the 2^n product basis with qubit 0 as the most significant bit."""
    n = j.shape[0]
    dim = 2 ** n
    ham = np.zeros((dim, dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            ham += j[a, b] * (kron_site_op(SX, a, n) @ kron_site_op(SX, b, n)
                              + kron_site_op(SY, a, n) @ kron_site_op(SY, b, n))
        ham += h[a] * kron_site_op(SZ, a, n)
    return ham


def embed_sector_state(psi, sector, n):
    """Lift a sector state to the 2^n product space (spin-up = excitation)."""
    full = np.zeros(2 ** n, dtype=complex)
    for k, mask in enumerate(sector.basis):
        mask = int(mask)
        # product-basis index with qubit 0 most significant; spin-up is the
        # first basis vector, so an excited site contributes a 0 bit
        idx = sum((1 - ((mask >> i) & 1)) << (n - 1 - i) for i in range(n))
        full[idx] = psi[k]
    return full


class TestBasis:
    @pytest.mark.parametrize("n,s", [(4, 1), (6, 2), (6, 3), (5, 0), (5, 5)])
    def test_counts(self, n, s):
        basis = xy.sector_basis(n, s)
        assert len(basis) == comb(n, s)
        assert np.all(np.diff(basis) > 0) or len(basis) <= 1
        for mask in basis:
            assert bin(int(mask)).count("1") == s

    def test_index_of(self):
        sec = xy.build_sector(np.zeros((5, 5)), None, 2)
        for k, mask in enumerate(sec.basis):
            assert sec.index_of(int(mask)) == k
        with pytest.raises(KeyError):
            sec.index_of(1)  # one excitation, not in the s=2 sector

    def test_sector_bounds(self):
        with pytest.raises(ValueError):
            xy.build_sector(np.zeros((4, 4)), None, 5)


class TestBuildSector:
    @pytest.mark.parametrize("n,s", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
    def test_matches_pauli_construction(self, n, s):
        j, h = random_couplings(n, seed=7 * n + s)
        sec = xy.build_sector(j, h, s)
        full = full_xy_hamiltonian(j, h)
        # compare matrix elements between embedded sector basis states
        for k, mk in enumerate(sec.basis):
            ek = embed_sector_state(np.eye(sec.dim)[k], sec, n)
            for l, ml in enumerate(sec.basis):
                el = embed_sector_state(np.eye(sec.dim)[l], sec, n)
                assert sec.H[k, l] == pytest.approx(
                    np.real_if_close(ek.conj() @ full @ el), abs=1e-10)

    def test_full_space_block_diagonal(self):
        # the Pauli Hamiltonian has no matrix elements between sectors
        n = 4
        j, h = random_couplings(n, seed=3)
        full = full_xy_hamiltonian(j, h)
        for s in range(n + 1):
            sec = xy.build_sector(j, h, s)
            basis_full = np.column_stack(
                [embed_sector_state(np.eye(sec.dim)[k], sec, n)
                 for k in range(sec.dim)])
            proj = basis_full @ basis_full.conj().T
            coupling = (np.eye(2 ** n) - proj) @ full @ basis_full
            assert np.max(np.abs(coupling)) < 1e-12

    def test_hermitian(self):
        j, h = random_couplings(6, seed=11)
        sec = xy.build_sector(j, h, 2)
        assert np.allclose(sec.H, sec.H.T)

    def test_field_diagonal(self):
        h = np.array([0.3, -0.7, 1.1])
        sec = xy.build_sector(np.zeros((3, 3)), h, 1)
        # basis masks 1, 2, 4 -> site 0, 1, 2 occupied
        expected = [h[0] - h[1] - h[2],
                    -h[0] + h[1] - h[2],
                    -h[0] - h[1] + h[2]]
        assert np.diag(sec.H) == pytest.approx(expected)


    def test_single_excitation_hops_with_hop_amplitudes(self):
        j, _ = random_couplings(5, seed=41)
        sec = xy.build_sector(j, None, 1)
        assert np.array_equal(sec.H, xy.hop_amplitudes(j))


class TestSingleExcitation:
    def test_off_diagonal_is_j(self):
        j, _ = random_couplings(5, seed=2)
        sec = xy.build_single_excitation(j)
        assert np.array_equal(sec.H, j)

    def test_existing_diagonal_preserved(self):
        j, _ = random_couplings(5, seed=5)
        marked = j.copy()
        marked[2, 2] = 9.0
        sec = xy.build_single_excitation(marked)
        assert sec.H[2, 2] == 9.0

    def test_basis_is_single_excitation(self):
        sec = xy.build_single_excitation(np.zeros((4, 4)))
        assert list(sec.basis) == [1, 2, 4, 8]


def random_real_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    return 0.5 * (a + a.T)


class TestSpectral:
    def test_all_rows_match_expm(self):
        ham = random_real_symmetric(7, seed=43)
        rng = np.random.default_rng(1)
        psi0 = rng.normal(size=7) + 1j * rng.normal(size=7)
        times = np.array([0.0, 0.4, 2.5])
        out = xy.spectral(*np.linalg.eigh(ham), psi0, times)
        assert out.shape == (3, 7)
        for k, t in enumerate(times):
            assert out[k] == pytest.approx(expm(-1j * ham * t) @ psi0,
                                           abs=1e-12)

    def test_int_row_gives_one_trace(self):
        ham = random_real_symmetric(6, seed=47)
        psi0 = np.zeros(6)
        psi0[0] = 1.0
        times = np.linspace(0.0, 3.0, 5)
        out = xy.spectral(*np.linalg.eigh(ham), psi0, times, rows=4)
        assert out.shape == (5,)
        ref = [(expm(-1j * ham * t) @ psi0)[4] for t in times]
        assert out == pytest.approx(ref, abs=1e-12)

    def test_row_subset_at_single_time(self):
        ham = random_real_symmetric(6, seed=53)
        rng = np.random.default_rng(2)
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = xy.spectral(*np.linalg.eigh(ham), psi0, [1.7], rows=[5, 1])
        assert out.shape == (1, 2)
        ref = expm(-1j * ham * 1.7) @ psi0
        assert out[0] == pytest.approx(ref[[5, 1]], abs=1e-12)


class TestEvolution:
    def test_matches_expm(self):
        j, h = random_couplings(6, seed=13)
        sec = xy.build_sector(j, h, 2)
        psi0 = np.zeros(sec.dim, dtype=complex)
        psi0[0] = 1.0
        for t in (0.1, 1.3):
            ref = expm(-1j * sec.H * t) @ psi0
            out = xy.evolve(sec, psi0, t)
            assert out.amplitudes == pytest.approx(ref, abs=1e-10)

    def test_krylov_branch_matches_dense(self, monkeypatch):
        j, h = random_couplings(6, seed=17)
        sec_dense = xy.build_sector(j, h, 3)
        psi0 = np.zeros(sec_dense.dim, dtype=complex)
        psi0[4] = 1.0
        ref = xy.evolve(sec_dense, psi0, 0.8).amplitudes
        monkeypatch.setattr(xy, "DENSE_LIMIT", 1)
        sec_sparse = xy.build_sector(j, h, 3)
        out = xy.evolve(sec_sparse, psi0, 0.8).amplitudes
        assert out == pytest.approx(ref, abs=1e-9)

    def test_unitary(self):
        j, h = random_couplings(7, seed=19)
        sec = xy.build_sector(j, h, 3)
        rng = np.random.default_rng(0)
        psi0 = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        psi0 /= np.linalg.norm(psi0)
        out = xy.evolve(sec, psi0, 5.0)
        assert out.norm == pytest.approx(1.0, abs=1e-12)

    def test_evolve_grid_consistent(self):
        j, h = random_couplings(5, seed=23)
        sec = xy.build_sector(j, h, 2)
        psi0 = np.zeros(sec.dim, dtype=complex)
        psi0[1] = 1.0
        times = np.linspace(0.0, 2.0, 7)
        grid = xy.evolve_grid(sec, psi0, times)
        for k, t in enumerate(times):
            assert grid[k] == pytest.approx(
                xy.evolve(sec, psi0, t).amplitudes, abs=1e-11)

    def test_zero_time_identity(self):
        j, h = random_couplings(4, seed=29)
        sec = xy.build_sector(j, h, 1)
        psi0 = np.eye(sec.dim, dtype=complex)[2]
        assert xy.evolve(sec, psi0, 0.0).amplitudes == pytest.approx(psi0)


class TestObservables:
    def test_occupations_sum_to_excitation_count(self):
        j, h = random_couplings(6, seed=37)
        sec = xy.build_sector(j, h, 2)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        psi /= np.linalg.norm(psi)
        occ = xy.occupations(psi, sec)
        assert np.sum(occ) == pytest.approx(2.0, abs=1e-12)
        assert np.all(occ >= 0)

    def test_occupations_conserved_total(self):
        j, h = random_couplings(5, seed=41)
        sec = xy.build_sector(j, h, 2)
        psi0 = np.zeros(sec.dim, dtype=complex)
        psi0[3] = 1.0
        psi_t = xy.evolve(sec, psi0, 2.7).amplitudes
        assert np.sum(xy.occupations(psi_t, sec)) == pytest.approx(2.0,
                                                                   abs=1e-12)
