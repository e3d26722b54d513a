import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_array

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


def no_eigensystem():
    """A patch that fails the test if XYSector.eigensystem runs inside it."""
    return mock.patch.object(xy.XYSector, "eigensystem", side_effect=(
        AssertionError("XYSector.eigensystem ran")))


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


def loop_sector(j, h, s):
    """Sector matrix filled one bitmask at a time through a mask -> row
    dict: the reference for the array assembly."""
    n = j.shape[0]
    hop = xy.hop_amplitudes(j)
    basis = xy.sector_basis(n, s)
    ham = np.zeros((len(basis), len(basis)))
    index = {int(m): k for k, m in enumerate(basis)}
    for k, mask in enumerate(basis):
        mask = int(mask)
        if h is not None:
            occ = np.array([(mask >> i) & 1 for i in range(n)])
            ham[k, k] = float(np.dot(h, 2 * occ - 1))
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            for jj in range(n):
                if (mask >> jj) & 1:
                    continue
                new = mask ^ (1 << i) | (1 << jj)
                ham[index[new], k] += hop[i, jj]
    return ham


def loop_occupations(psi, sector):
    """Site occupations summed one basis state at a time: the reference."""
    occ = np.zeros(sector.n_sites)
    probs = np.abs(psi) ** 2
    for k, mask in enumerate(sector.basis):
        for i in range(sector.n_sites):
            if (int(mask) >> i) & 1:
                occ[i] += probs[k]
    return occ


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
        ham = xy.dense(sec.H)
        full = full_xy_hamiltonian(j, h)
        # compare matrix elements between embedded sector basis states
        for k, mk in enumerate(sec.basis):
            ek = embed_sector_state(np.eye(sec.dim)[k], sec, n)
            for l, ml in enumerate(sec.basis):
                el = embed_sector_state(np.eye(sec.dim)[l], sec, n)
                assert ham[k, l] == pytest.approx(
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
        ham = xy.dense(xy.build_sector(j, h, 2).H)
        assert np.allclose(ham, ham.T)

    def test_field_diagonal(self):
        h = np.array([0.3, -0.7, 1.1])
        sec = xy.build_sector(np.zeros((3, 3)), h, 1)
        # basis masks 1, 2, 4 -> site 0, 1, 2 occupied
        expected = [h[0] - h[1] - h[2],
                    -h[0] + h[1] - h[2],
                    -h[0] - h[1] + h[2]]
        assert np.diag(xy.dense(sec.H)) == pytest.approx(expected)


    def test_single_excitation_hops_with_hop_amplitudes(self):
        j, _ = random_couplings(5, seed=41)
        sec = xy.build_sector(j, None, 1)
        assert np.array_equal(xy.dense(sec.H), xy.hop_amplitudes(j))

    def test_dense_at_the_crossover(self, monkeypatch):
        # C(10, 5) = 252, the largest leakage sector: an ndarray holding
        # the matrix the CSR form holds, to the bit
        j, h = random_couplings(10, seed=43)
        sec = xy.build_sector(j, h, 5)
        assert sec.dim == xy.CSR_CROSSOVER
        assert isinstance(sec.H, np.ndarray)
        monkeypatch.setattr(xy, "CSR_CROSSOVER", sec.dim - 1)
        csr = xy.build_sector(j, h, 5).H
        assert not isinstance(csr, np.ndarray)
        assert np.array_equal(csr.toarray(), sec.H)

    def test_csr_just_above_the_crossover(self):
        # C(23, 2) = 253; no fields, whose loop reference sums a dot
        # product in another order at this n
        j, _ = random_couplings(23, seed=47)
        sec = xy.build_sector(j, None, 2)
        assert sec.dim == xy.CSR_CROSSOVER + 1
        assert isinstance(sec.H, csr_array)
        assert np.array_equal(sec.H.toarray(), loop_sector(j, None, 2))

    @pytest.mark.parametrize("n, s", [(23, 2), (14, 5)])
    def test_csr_layout_above_the_crossover(self, n, s):
        # int32 indices, the diagonal and the s (n - s) hops of each row
        # stored, in ascending column order
        j, h = random_couplings(n, seed=n + s)
        ham = xy.build_sector(j, h, s).H
        assert ham.shape[0] > xy.CSR_CROSSOVER
        assert ham.indices.dtype == ham.indptr.dtype == np.int32
        width = s * (n - s) + 1
        assert np.array_equal(ham.indptr,
                              np.arange(0, ham.shape[0] * width + 1, width))
        cols = ham.indices.reshape(-1, width)
        assert np.all(np.diff(cols, axis=1) > 0)
        assert np.all(np.any(cols == np.arange(len(cols))[:, None], axis=1))


@pytest.mark.parametrize("n, s", [(6, 0), (6, 6), (5, 1), (8, 4), (14, 5),
                                  (14, 7)])
@pytest.mark.parametrize("fields", [True, False])
def test_array_assembly_matches_mask_loop(n, s, fields):
    j, h = random_couplings(n, seed=n + s)
    sec = xy.build_sector(j, h if fields else None, s)
    assert np.array_equal(xy.dense(sec.H),
                          loop_sector(j, h if fields else None, s))
    # each element keeps its orientation hop[i, j] even where J is not
    # exactly symmetric, as a J computed in floating point may not be
    skew = j + np.triu(j, 1)
    assert np.array_equal(
        xy.dense(xy.build_sector(skew, h if fields else None, s).H),
        loop_sector(skew, h if fields else None, s))
    rng = np.random.default_rng(s)
    psi = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
    psi /= np.linalg.norm(psi)
    # one matrix product sums the probabilities in another order: each
    # site's sum of at most dim terms of total <= 1 moves by <= dim * eps
    assert np.max(np.abs(xy.occupations(psi, sec)
                         - loop_occupations(psi, sec))) \
        <= sec.dim * np.finfo(float).eps


@settings(max_examples=30)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**16), fields=st.booleans())
def test_sectors_are_blocks_of_full_hamiltonian(n, seed, fields):
    """Every fixed-excitation block of the 2^n Pauli Hamiltonian, with rows
    in ascending bitmask order, is the sector matrix."""
    j, h = random_couplings(n, seed)
    full = full_xy_hamiltonian(j, h if fields else np.zeros(n))
    for s in range(n + 1):
        masks = [m for m in range(2 ** n) if bin(m).count("1") == s]
        # product index: qubit 0 most significant, excitation = 0 bit
        idx = [sum((1 - ((m >> i) & 1)) << (n - 1 - i) for i in range(n))
               for m in masks]
        sec = xy.build_sector(j, h if fields else None, s)
        assert list(sec.basis) == masks
        assert np.max(np.abs(xy.dense(sec.H) - full[np.ix_(idx, idx)])) \
            < 1e-12


def test_bitmask_basis_holds_63_sites():
    assert xy.sector_basis(63, 1)[-1] == 1 << 62
    with pytest.raises(ValueError, match="at most 63 sites, got 64"):
        xy.sector_basis(64, 1)


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

    def test_walk_enumerates_no_bitmasks(self):
        # row i is site i: a walk past the 63-site width of an int64
        # bitmask builds as any other
        sec = xy.build_single_excitation(np.zeros((64, 64)))
        assert sec.basis is None and sec.dim == 64


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
        out = xy.spectral(*np.linalg.eigh(ham), psi0, times)[:, 4]
        assert out.shape == (5,)
        ref = [(expm(-1j * ham * t) @ psi0)[4] for t in times]
        assert out == pytest.approx(ref, abs=1e-12)

    def test_row_subset_at_single_time(self):
        ham = random_real_symmetric(6, seed=53)
        rng = np.random.default_rng(2)
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = xy.spectral(*np.linalg.eigh(ham), psi0, [1.7])[:, [5, 1]]
        assert out.shape == (1, 2)
        ref = expm(-1j * ham * 1.7) @ psi0
        assert out[0] == pytest.approx(ref[[5, 1]], abs=1e-12)


def signed_involution(n, n_pairs, fixed_sign, rng):
    """(partner, sign) pairing n_pairs random row pairs; the other rows are
    fixed points of sign fixed_sign, or of random signs when it is 0."""
    perm = rng.permutation(n)
    first, second = perm[:n_pairs], perm[n_pairs:2 * n_pairs]
    partner = np.arange(n)
    partner[first], partner[second] = second, first
    sign = rng.choice([-1.0, 1.0], size=n) if fixed_sign == 0 \
        else np.full(n, float(fixed_sign))
    sign[second] = sign[first]
    return partner, sign


def full_basis_eigenvectors(halves):
    return np.concatenate([coef[:, None] * q[idx]
                           for _, q, idx, coef in halves], axis=1)


def orbit_basis(idx, coef):
    """S with S[k, idx[k]] = coef[k]: the orbits of a labelling as
    columns over the full basis."""
    s = np.zeros((len(idx), int(idx.max()) + 1))
    s[np.arange(len(idx)), idx] = coef
    return s


def upper_elements(h):
    """h's upper triangle as xy.orbit_matrix elements: each value stands
    at (row, col) and at (col, row), so the diagonal is halved."""
    rows, cols = np.triu_indices(len(h))
    return rows, cols, np.where(rows == cols, 0.5, 1.0) * h[rows, cols]


def orbit_eigensystems(h, orbits, diag):
    """Per half (w, q, idx, coef): the eigh of h summed over the half's
    orbits by xy.orbit_matrix, plus diag, after checking that sum against
    the explicit orbit-matrix reference S^T h S."""
    halves = []
    for keep, idx, coef in orbits:
        s = orbit_basis(idx, coef)
        block = xy.orbit_matrix(upper_elements(h), idx, coef)
        assert np.max(np.abs(block - s.T @ h @ s)) \
            <= 1e-14 * max(np.abs(h).max(), 1.0)
        halves.append((*np.linalg.eigh(block + np.diag(diag[keep])), idx,
                       coef))
    return halves


@settings(max_examples=60)
@given(n=st.integers(1, 40), pair_share=st.floats(0.0, 1.0),
       fixed_sign=st.sampled_from([0, 1, -1]), split_diag=st.booleans(),
       seed=st.integers(0, 2**16))
# fixed points of both signs; fixed points alone, all odd: no even half
@example(n=9, pair_share=0.5, fixed_sign=0, split_diag=True, seed=1)
@example(n=5, pair_share=0.0, fixed_sign=-1, split_diag=False, seed=2)
def test_mirror_halves_match_full_eigh(n, pair_share, fixed_sign,
                                       split_diag, seed):
    rng = np.random.default_rng(seed)
    partner, sign = signed_involution(n, int(pair_share * (n // 2)),
                                      fixed_sign, rng)
    r = np.zeros((n, n))
    r[partner, np.arange(n)] = sign
    a = random_real_symmetric(n, seed)
    # commutes with r exactly: r a r only permutes a and flips signs; it
    # couples mirror partners, and keeps its diagonal unless split_diag
    h = 0.5 * (a + r @ a @ r)
    diag = np.zeros(n)
    if split_diag:
        diag, h = np.diag(h).copy(), h - np.diag(np.diag(h))
    orbits = xy.mirror_orbits(partner, sign)
    halves = orbit_eigensystems(h, orbits, diag)
    full = h + np.diag(diag)
    scale = np.linalg.norm(full, 2)

    dims = [len(w) for w, _, _, _ in halves]
    assert sum(dims) == n and min(dims) > 0
    assert dims == [len(half[0]) for half in orbits]
    w = np.concatenate([w for w, _, _, _ in halves])
    assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(full))) \
        <= 1e-12 * scale
    v = full_basis_eigenvectors(halves)
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
    assert np.max(np.abs(full @ v - v * w)) <= 1e-12 * scale


class TestMirrorEigensystems:
    def test_halves_are_reflection_eigenspaces(self):
        rng = np.random.default_rng(5)
        partner, sign = signed_involution(9, 3, 0, rng)
        r = np.zeros((9, 9))
        r[partner, np.arange(9)] = sign
        a = random_real_symmetric(9, 5)
        orbits = xy.mirror_orbits(partner, sign)
        halves = orbit_eigensystems(0.5 * (a + r @ a @ r), orbits,
                                    np.zeros(9))
        for (_, q, idx, coef), parity in zip(halves, (1.0, -1.0)):
            v = coef[:, None] * q[idx]
            assert np.max(np.abs(r @ v - parity * v)) < 1e-15

    @pytest.mark.parametrize("fixed_sign", [1.0, -1.0])
    def test_fixed_points_go_to_the_half_of_their_sign(self, fixed_sign):
        # one pair (1, 3) and the fixed points 0, 2, 4
        partner = np.array([0, 3, 2, 1, 4])
        sign = np.full(5, fixed_sign)
        (even, i_even, c_even), (odd, i_odd, c_odd) = \
            xy.mirror_orbits(partner, sign)
        big, small = (even, odd) if fixed_sign > 0 else (odd, even)
        assert big.tolist() == [1, 0, 2, 4] and small.tolist() == [1]
        # the pair (1, 3) leads each half, (|1> + t |3>) / sqrt(2) with
        # t = +-sign
        assert i_even[1] == i_even[3] == i_odd[1] == i_odd[3] == 0
        r = np.sqrt(0.5)
        assert c_even[[1, 3]].tolist() == [r, fixed_sign * r]
        assert c_odd[[1, 3]].tolist() == [r, -fixed_sign * r]
        # the small half holds no share of the fixed points
        assert np.all((c_odd if fixed_sign > 0 else c_even)[[0, 2, 4]] == 0)
        # fixed points alone, all of one sign: the other half is empty
        (only, _, _), = xy.mirror_orbits(np.arange(3), sign[:3])
        assert only.tolist() == [0, 1, 2]

    def test_identity_involution_is_the_full_eigh(self):
        h = random_real_symmetric(6, 11)
        orbits = xy.mirror_orbits(np.arange(6), np.ones(6))
        (_, idx, coef), = orbits
        # one value per position, each summed once: h itself, bit for bit
        assert np.array_equal(xy.orbit_matrix(upper_elements(h), idx, coef),
                              h)
        (w, q, idx, coef), = orbit_eigensystems(h, orbits, np.zeros(6))
        ref = np.linalg.eigh(h)
        assert np.array_equal(w, ref[0]) and np.array_equal(q, ref[1])
        assert np.array_equal(idx, np.arange(6))
        assert np.array_equal(coef, np.ones(6))


class TestOrbitMatrix:
    """xy.orbit_matrix against the explicit S^T h S on labellings the
    spin-phonon block never passes: couplings inside one orbit and a
    diagonal of h."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_walk_halves_with_partner_couplings_and_a_diagonal(self, n):
        # a dense mirror-symmetric walk: every site couples to its mirror
        # partner, an element inside one pair orbit, and J has a diagonal
        a = random_real_symmetric(n, 17)
        j = 0.5 * (a + a[::-1, ::-1])
        assert np.all(np.diag(j) != 0)
        rows = np.arange(n)
        for _, idx, coef in xy.mirror_orbits(rows[::-1], np.ones(n)):
            s = orbit_basis(idx, coef)
            block = xy.orbit_matrix(upper_elements(j), idx, coef)
            assert np.array_equal(block, block.T)
            assert np.max(np.abs(block - s.T @ j @ s)) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orbit_sums_of_a_dense_random_matrix(self, seed):
        # any partition of the rows into orbits of signed equal weights,
        # with no symmetry of h: orbit_matrix is still S^T h S
        rng = np.random.default_rng(seed)
        n = 12
        h = random_real_symmetric(n, seed)
        idx = rng.permutation(np.arange(n) % 5)
        coef = rng.choice([-1.0, 1.0], n) / np.sqrt(np.bincount(idx))[idx]
        s = orbit_basis(idx, coef)
        assert np.max(np.abs(s.T @ s - np.eye(5))) < 1e-15
        block = xy.orbit_matrix(upper_elements(h), idx, coef)
        assert np.max(np.abs(block - s.T @ h @ s)) < 1e-14


class TestBessel:
    @pytest.mark.parametrize("x", [0.0, 0.5, 5.0, 30.0, 80.0])
    def test_miller_matches_scipy(self, x):
        from scipy.special import jv
        j = xy.bessel_j(x)
        m = np.arange(len(j))
        assert np.max(np.abs(j - jv(m, x))) < 1e-14
        # the series stops where the coefficients have fallen below the
        # tolerance for good
        assert abs(j[-1]) >= xy.CHEBYSHEV_TOL
        assert np.all(np.abs(jv(np.arange(len(j), len(j) + 40), x))
                      < xy.CHEBYSHEV_TOL)

    def test_table_matches_scipy_per_argument(self):
        # one recurrence for every argument, zero and tiny ones included
        from scipy.special import jv
        x = np.array([0.0, 1e-3, 0.5, 5.0, 30.0, 162.0, 1e-20])
        j = xy.bessel_j(x)
        m = np.arange(len(j))
        assert j.shape == (len(j), len(x))
        assert np.max(np.abs(j - jv(m[:, None], x))) < 1e-14
        # the table ends where every argument's coefficients have fallen
        # below the tolerance for good
        assert np.max(np.abs(j[-1])) >= xy.CHEBYSHEV_TOL
        tail = np.arange(len(j), len(j) + 40)[:, None]
        assert np.all(np.abs(jv(tail, x)) < xy.CHEBYSHEV_TOL)

    @pytest.mark.parametrize("x", [0.0, 1e-18, 1e-3, 0.5, 8.0, 30.0, 1e3])
    def test_one_argument_matches_the_table(self, x):
        # 1e-3 rescales its rows on the way down
        assert np.array_equal(xy.bessel_j(x), xy.bessel_j([x, x])[:, 0])

    @pytest.mark.parametrize("x", [-7.3, [0.5, -1e-30]])
    def test_negative_argument_rejected(self, x):
        with pytest.raises(ValueError):
            xy.bessel_j(x)

    @pytest.mark.parametrize("x, rescaled", [
        ([1e-12, 30.0, 162.0], True), ([1e-6, 162.0], True),
        ([1e-3, 30.0], True), (1e-12, True),
        (np.linspace(0.0, 162.0, 200), True),
        (24.0, False), (80.0, False), ([24.0, 80.0], False)])
    def test_matches_looped_reference(self, x, rescaled):
        table, rescales = per_step_bessel_j(x)
        assert rescales == rescaled
        assert np.array_equal(xy.bessel_j(x), table)


def per_step_bessel_j(x):
    """bessel_j by a Python loop over the recurrence, each row tested for
    overflow as _miller_table tests it: an independent reference for the
    table, and whether any row was rescaled."""
    x = np.asarray(x, dtype=float)
    ax = x.ravel().copy()
    top = float(ax.max(initial=0.0))
    start = int(top + 20.0 * top ** (1.0 / 3.0)) + 30
    tiny = ax < xy.CHEBYSHEV_TOL
    ax[tiny] = 1.0
    j = np.zeros((start + 2, len(ax)))
    j[start] = 1.0
    rescaled = False
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / ax) * j[k] - j[k + 1]
        big = np.abs(j[k - 1]) > 1e250
        if big.any():
            j[k - 1:, big] *= 1e-250
            rescaled = True
    # summed row by row, as numpy sums the columns of a table of two or
    # more (one column alone it would sum pairwise)
    total = j[2].copy()
    for row in j[4::2]:
        total += row
    j = j[:start + 1] / (j[0] + 2.0 * total)
    j[:, tiny] = 0.0
    j[0, tiny] = 1.0
    last = np.flatnonzero(np.any(np.abs(j) >= xy.CHEBYSHEV_TOL, axis=1))[-1]
    return j[:last + 1].reshape((last + 1,) + x.shape), rescaled


def gershgorin(h, offsets):
    """The union of h + diag(d)'s Gershgorin discs over the columns d of
    offsets, each end rounded as spectral_interval rounds it."""
    radii = np.abs(h).sum(axis=1) - np.abs(h.diagonal())
    return (float(((h.diagonal() + offsets.min(axis=1)) - radii).min()),
            float(((h.diagonal() + offsets.max(axis=1)) + radii).max()))


class TestSpectralInterval:
    @settings(max_examples=90)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**16),
           kind=st.sampled_from(["random", "shifted", "identity"]),
           offsets=st.sampled_from(["both signs", "zero", "uniform",
                                    "cancelling"]),
           scale=st.floats(1e-3, 1e3))
    def test_encloses_every_spectrum_within_the_discs(self, n, seed, kind,
                                                       offsets, scale):
        # "uniform" offsets shift the spectrum as a whole, where Weyl's
        # bound is tight and rounding decides; "cancelling" ones take back
        # h's diagonal, so the eigenvalues of h + diag(d) are far smaller
        # than those of h
        rng = np.random.default_rng(seed)
        ham = scale * {"random": random_real_symmetric(n, seed),
                       "shifted": random_real_symmetric(n, seed)
                       + 1e3 * np.eye(n),
                       "identity": rng.normal() * np.eye(n)}[kind]
        diag = {"both signs": scale * rng.normal(size=(n, 4)),
                "zero": np.zeros((n, 4)),
                "uniform": scale * np.ones((n, 1)) * rng.normal(size=4),
                "cancelling": 1e-3 * scale * rng.normal(size=(n, 4))
                - ham.diagonal()[:, None]}[offsets]
        lo, hi = xy.spectral_interval(ham, diag)
        for d in diag.T:
            w = np.linalg.eigvalsh(ham + np.diag(d))
            assert lo <= w[0] and w[-1] <= hi
        g_lo, g_hi = gershgorin(ham, diag)
        assert g_lo <= lo <= hi <= g_hi


class TestChebyshev:
    def test_interval_encloses_every_spectrum(self):
        ham = random_real_symmetric(9, seed=61)
        offsets = np.random.default_rng(4).normal(size=(9, 5))
        for h0 in (ham, csr_array(ham)):
            lo, hi = xy.spectral_interval(h0, offsets)
            for d in offsets.T:
                w = np.linalg.eigvalsh(ham + np.diag(d))
                assert lo <= w[0] and w[-1] <= hi
        # a CSR matrix keeps the discs
        assert xy.spectral_interval(csr_array(ham), offsets) \
            == pytest.approx(gershgorin(ham, offsets), rel=1e-15)

    @pytest.mark.parametrize("t", [0.0, 0.7, 4.0])
    def test_complex_state_matches_spectral(self, t):
        ham = random_real_symmetric(12, seed=67)
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=12) + 1j * rng.normal(size=12)
        out = xy.chebyshev(ham, psi0, t)
        ref = xy.spectral(*np.linalg.eigh(ham), psi0, [t])[0]
        assert out.shape == (12,)
        assert np.max(np.abs(out - ref)) < 1e-13

    def test_offset_columns_match_per_column_eigh(self):
        ham = random_real_symmetric(10, seed=71)
        offsets = 0.3 * np.random.default_rng(6).normal(size=(10, 7))
        psi0 = np.eye(10)[2]
        for h0 in (ham, csr_array(ham)):
            out = xy.chebyshev(h0, psi0, 3.0, diag=offsets, rows=[8, 1])
            assert out.shape == (7, 2)
            for k, d in enumerate(offsets.T):
                ref = xy.spectral(*np.linalg.eigh(ham + np.diag(d)), psi0,
                                  [3.0])[0, [8, 1]]
                assert np.max(np.abs(out[k] - ref)) < 1e-13

    @pytest.mark.parametrize("rows", [[8, 1], 8])
    def test_offset_columns_on_a_time_grid(self, rows):
        ham = random_real_symmetric(10, seed=83)
        offsets = 0.3 * np.random.default_rng(10).normal(size=(10, 4))
        psi0 = np.eye(10)[2]
        times = np.array([3.0, 0.0, 1.1, 3.0, 0.4])
        out = xy.chebyshev(csr_array(ham), psi0, times, diag=offsets,
                           rows=rows)
        assert out.shape == (4, 5) + np.shape(rows)
        for k, d in enumerate(offsets.T):
            ref = xy.spectral(*np.linalg.eigh(ham + np.diag(d)), psi0,
                              times)[:, rows]
            assert np.max(np.abs(out[k] - ref)) < 1e-13

    @pytest.mark.parametrize("rows", [None, 4, [8, 1]])
    def test_column_chunks_match_one_block(self, monkeypatch, rows):
        ham = random_real_symmetric(10, seed=79)
        offsets = 0.3 * np.random.default_rng(8).normal(size=(10, 7))
        rng = np.random.default_rng(9)
        psi0 = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi0 /= np.linalg.norm(psi0)
        whole = xy.chebyshev(ham, psi0, 3.0, diag=offsets, rows=rows)
        # chunks of 3, 3 and a short last chunk of 1
        monkeypatch.setattr(xy, "CHEBYSHEV_CHUNK", 3)
        chunked = xy.chebyshev(ham, psi0, 3.0, diag=offsets, rows=rows)
        assert chunked.shape == whole.shape
        assert np.max(np.abs(chunked - whole)) < 1e-15

    @pytest.mark.parametrize("n_times", [1, 1000])
    def test_oversized_bessel_table_refused(self, n_times):
        # a t = 1e9 at one time, or 1e6 over a grid of 1000 times: tables of
        # 8 GB, refused before the recurrence allocates them
        ham = random_real_symmetric(8, seed=91)
        psi0 = np.eye(8)[3]
        lo, hi = xy.spectral_interval(ham, np.zeros((8, 1)))
        t_max = 1e9 / n_times / (0.5 * (hi - lo))
        times = t_max if n_times == 1 else np.linspace(0.0, t_max, n_times)
        tracemalloc.start()
        try:
            with pytest.raises(xy.TooLarge, match="Bessel table"):
                xy.chebyshev(ham, psi0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_multiple_of_identity(self):
        # a one-point spectral interval: the phase alone
        psi0 = np.array([0.6, 0.8j, 0.0])
        out = xy.chebyshev(2.0 * np.eye(3), psi0, 1.5)
        assert out == pytest.approx(np.exp(-3j) * psi0, abs=1e-15)

    @pytest.mark.parametrize("tol", [1e-5, 1e-9])
    def test_dropping_last_term_within_bessel_tail(self, monkeypatch, tol):
        # a loose tolerance puts the dropped term far above rounding; the
        # amplitude moves by at most 2 sum_{m >= M} |J_m(a t)|, so F = |amp|^2
        # by at most twice that plus its square
        from scipy.special import jv
        ham = random_real_symmetric(14, seed=73)
        offsets = 0.5 * np.random.default_rng(7).normal(size=(14, 6))
        psi0 = np.eye(14)[0]
        t = 2.0
        monkeypatch.setattr(xy, "CHEBYSHEV_TOL", tol)
        full = np.abs(xy.chebyshev(ham, psi0, t, diag=offsets, rows=13)) ** 2
        lo, hi = xy.spectral_interval(ham, offsets)
        coeffs = xy.bessel_j(0.5 * (hi - lo) * t)
        last = len(coeffs) - 1
        tail = 2.0 * np.sum(np.abs(jv(np.arange(last, last + 60),
                                      0.5 * (hi - lo) * t)))
        bessel = xy.bessel_j
        monkeypatch.setattr(xy, "bessel_j", lambda x: bessel(x)[:-1])
        short = np.abs(xy.chebyshev(ham, psi0, t, diag=offsets,
                                    rows=13)) ** 2
        moved = np.max(np.abs(full - short))
        assert 0.0 < moved <= 2.0 * tail + tail ** 2


class TestEvolution:
    def test_matches_expm(self):
        j, h = random_couplings(6, seed=13)
        sec = xy.build_sector(j, h, 2)
        psi0 = np.zeros(sec.dim, dtype=complex)
        psi0[0] = 1.0
        for t in (0.1, 1.3):
            ref = expm(-1j * xy.dense(sec.H) * t) @ psi0
            out = xy.evolve(sec, psi0, t)
            assert out.amplitudes == pytest.approx(ref, abs=1e-10)

    def test_large_sector_evolves_without_eigensystem(self):
        # dim 12870: a dense H alone would take 1.3 GB, the CSR one 11 MB
        j, h = random_couplings(16, seed=17)
        t = 10.0 / np.max(np.abs(j))
        times = np.array([t, 0.0, 0.3 * t])
        tracemalloc.start()
        try:
            sec = xy.build_sector(j, h, 8)
            assert 16 * sec.dim ** 2 > xy.WORK_BYTES
            psi0 = np.zeros(sec.dim, dtype=complex)
            psi0[sec.index_of(0b0101010101010101)] = 1.0
            with no_eigensystem():
                grid = xy.evolve_grid(sec, psi0, times)
                single = [xy.evolve(sec, psi0, tk).amplitudes
                          for tk in times]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no dim x dim array anywhere: not in the assembly and not in the
        # series
        assert peak < 1e8
        for k in range(len(times)):
            assert np.max(np.abs(grid[k] - single[k])) < 1e-12
        assert abs(np.linalg.norm(grid[0]) - 1.0) < 1e-12
        # the dense eigensystem is still refused before any allocation
        with pytest.raises(xy.TooLarge) as err:
            sec.eigensystem()
        assert "12870" in str(err.value)
        assert str(16 * 12870 ** 2) in str(err.value)

    def test_unitary(self):
        j, h = random_couplings(7, seed=19)
        sec = xy.build_sector(j, h, 3)
        rng = np.random.default_rng(0)
        psi0 = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        psi0 /= np.linalg.norm(psi0)
        out = xy.evolve(sec, psi0, 5.0)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0,
                                                              abs=1e-12)

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

    def test_negative_time_rejected(self):
        # the series runs forward from t = 0 only
        j, h = random_couplings(4, seed=29)
        sec = xy.build_sector(j, h, 2)
        psi0 = np.eye(sec.dim)[0]
        for run in (lambda: xy.chebyshev(sec.H, psi0, -2.5),
                    lambda: xy.chebyshev(sec.H, psi0, [0.0, 2.0, -1e-300]),
                    lambda: xy.evolve(sec, psi0, -2.5),
                    lambda: xy.evolve_grid(sec, psi0, np.array([0.0, -2.5]))):
            with pytest.raises(ValueError, match="times must be >= 0"):
                run()


@settings(max_examples=20)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**16), fields=st.booleans())
def test_evolve_matches_eigh_spectral(n, seed, fields):
    """The Chebyshev evolve on the built sector, dense at these sizes,
    against a dense eigh and spectral(), in every sector, from t = 0 to ten
    hopping times."""
    j, h = random_couplings(n, seed)
    rng = np.random.default_rng(seed)
    j_max = np.max(np.abs(j))
    for s in range(n + 1):
        sec = xy.build_sector(j, h if fields else None, s)
        psi0 = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        psi0 /= np.linalg.norm(psi0)
        for t in (0.0, 0.1, 1.3, 10.0 / j_max):
            # evolve builds no eigensystem
            with no_eigensystem():
                out = xy.evolve(sec, psi0, t).amplitudes
            ref = xy.spectral(*np.linalg.eigh(xy.dense(sec.H)), psi0, [t])[0]
            assert np.max(np.abs(out - ref)) < 1e-12


@settings(max_examples=20)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**16), fields=st.booleans())
def test_evolve_grid_matches_eigh_spectral(n, seed, fields):
    """The Chebyshev grid on the built sector, dense at these sizes, against
    a dense eigh and spectral(), in every sector, on an unsorted non-uniform
    grid with t = 0 and a repeated time."""
    j, h = random_couplings(n, seed)
    rng = np.random.default_rng(seed)
    t_max = 10.0 / np.max(np.abs(j))
    times = rng.permutation(np.concatenate(
        [[0.0, 0.4 * t_max, 0.4 * t_max, t_max],
         t_max * rng.random(4) ** 2]))
    for s in range(n + 1):
        sec = xy.build_sector(j, h if fields else None, s)
        psi0 = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        psi0 /= np.linalg.norm(psi0)
        with no_eigensystem():
            out = xy.evolve_grid(sec, psi0, times)
        ref = xy.spectral(*np.linalg.eigh(xy.dense(sec.H)), psi0, times)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-12


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
