import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from ionchain import protocols as pr
from ionchain import xy


def normalized_walk(n, alpha):
    j = pr.idealized_couplings(n, alpha)
    return j / np.linalg.eigvalsh(j)[-1]


def asymmetric_walk(n, alpha):
    """normalized_walk with its first bond 10 % stronger: couplings that
    break the mirror symmetry."""
    j = normalized_walk(n, alpha)
    j[0, 1] = j[1, 0] = 1.1 * j[0, 1]
    return j


class TestIdealizedCouplings:
    def test_values(self):
        j = pr.idealized_couplings(5, 0.7)
        assert j[0, 3] == pytest.approx(3.0 ** -0.7)
        assert j[1, 2] == pytest.approx(1.0)
        assert np.all(np.diag(j) == 0.0)
        assert j == pytest.approx(j.T)

    def test_alpha_zero_is_complete_graph(self):
        j = pr.idealized_couplings(4, 0.0)
        assert j == pytest.approx(np.ones((4, 4)) - np.eye(4))


class TestSearchHamiltonian:
    def test_projectors_added(self):
        j = pr.idealized_couplings(5, 0.5)
        hs = pr.search_hamiltonian(j, 0.3, [1, 4])
        assert hs - np.diag(np.diag(hs)) == pytest.approx(0.3 * j)
        assert np.diag(hs) == pytest.approx([0, 1, 0, 0, 1])

    def test_duplicate_marked_rejected(self):
        with pytest.raises(ValueError):
            pr.search_hamiltonian(np.zeros((3, 3)), 1.0, [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pr.search_hamiltonian(np.zeros((3, 3)), 1.0, [3])


class TestAnalyticGamma:
    def test_inverse_top_eigenvalue(self):
        j = pr.idealized_couplings(9, 0.4)
        g = pr.analytic_gamma(j)
        assert g * np.linalg.eigvalsh(j)[-1] == pytest.approx(1.0, rel=1e-12)


class TestAnalyticModel:
    def test_transfer_time_formula(self):
        assert pr.transfer_time(8) == pytest.approx(np.pi * 2.0)
        with pytest.raises(ValueError):
            pr.transfer_time(1)

    def test_fidelity_is_one_at_transfer_time(self):
        for n in (8, 20, 52, 400):
            t = pr.transfer_time(n)
            assert pr.analytic_transfer_fidelity(n, t) == \
                pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            pr.analytic_transfer_fidelity(2, 1.0)

    def test_fidelity_starts_at_zero(self):
        assert pr.analytic_transfer_fidelity(16, 0.0) == 0.0

    def test_reduced_model_completes_transfer(self):
        # exp(-i M T) maps the sender basis vector onto the receiver at
        # T = pi sqrt(n/2), exactly, for every n
        for n in (10, 36, 100):
            m = pr.reduced_model_matrix(n)
            assert m == pytest.approx(m.T)
            u = expm(-1j * m * pr.transfer_time(n))
            assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_reduced_model_swap_symmetry(self):
        # sender and receiver play symmetric roles
        m = pr.reduced_model_matrix(24)
        u = expm(-1j * m * 1.7)
        assert u[1, 0] == pytest.approx(u[0, 1], abs=1e-12)


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            pr.ProtocolConfig(gamma=1.0, sender=2, receiver=2, duration=1.0)
        with pytest.raises(ValueError):
            pr.ProtocolConfig(gamma=0.0, sender=0, receiver=1, duration=1.0)
        with pytest.raises(ValueError):
            pr.ProtocolConfig(gamma=1.0, sender=0, receiver=1, duration=-1.0)


class TestRunTransfer:
    def test_high_fidelity_at_analytic_point(self):
        n = 16
        j = normalized_walk(n, 0.2)
        cfg = pr.ProtocolConfig(gamma=pr.analytic_gamma(j), sender=0,
                                receiver=n - 1,
                                duration=pr.transfer_time(n))
        times, fid = pr.run_transfer(j, cfg, n_times=400)
        k = int(np.argmax(fid))
        assert fid[k] > 0.97
        assert times[k] == pytest.approx(cfg.duration, rel=0.1)

    def test_trace_matches_single_point_evaluator(self):
        n = 10
        j = normalized_walk(n, 0.4)
        cfg = pr.ProtocolConfig(gamma=0.9, sender=0, receiver=n - 1,
                                duration=pr.transfer_time(n))
        times, fid = pr.run_transfer(j, cfg, n_times=50)
        for k in (0, 17, 49):
            direct = pr.transfer_fidelity_at(j, 0.9, times[k], 0, n - 1)
            assert fid[k] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_trace_matches_expm(self, monkeypatch, asymmetric):
        # mirrored: two half eigh; couplings that break the mirror
        # symmetry: the identity's one half, a full eigh
        n = 9
        j = asymmetric_walk(n, 0.3) if asymmetric else normalized_walk(n, 0.3)
        cfg = pr.ProtocolConfig(gamma=0.85, sender=1, receiver=n - 2,
                                duration=pr.transfer_time(n))
        (times, fid), sizes = eigh_sizes(monkeypatch, pr.run_transfer, j, cfg,
                                         n_times=31, t_max_factor=1.5)
        assert sizes == ([n] if asymmetric else [(n + 1) // 2, n // 2])
        hs = pr.search_hamiltonian(j, 0.85, [1, n - 2])
        ref = [abs(expm(-1j * hs * t)[n - 2, 1]) ** 2 for t in times]
        assert times[-1] == pytest.approx(1.5 * cfg.duration, rel=1e-15)
        assert np.max(np.abs(fid - ref)) < 1e-12

    def test_single_point_matches_expm(self):
        n = 7
        j = normalized_walk(n, 0.5)
        extra = np.linspace(-0.1, 0.1, n)
        hs = pr.search_hamiltonian(j, 0.8, [0, n - 1]) + np.diag(extra)
        ref = abs(expm(-1j * hs * 2.3)[n - 1, 0]) ** 2
        f = pr.transfer_fidelity_at(j, 0.8, 2.3, 0, n - 1,
                                    extra_fields=extra)
        assert f == pytest.approx(ref, abs=1e-12)


class TestRunSearch:
    def test_probability_peaks_near_transfer_time(self):
        n = 20
        j = normalized_walk(n, 0.2)
        t_max = 2 * pr.transfer_time(n)
        times, prob = pr.run_search(j, pr.analytic_gamma(j), n // 2, t_max,
                                    n_times=800)
        assert np.max(prob) > 0.9
        # O(sqrt(N)) runtime: a high peak appears within ~1.5 pi sqrt(n/2)
        early = prob[times <= 1.5 * pr.transfer_time(n)]
        assert np.max(early) > 0.85

    def test_initial_probability_uniform(self):
        n = 15
        j = normalized_walk(n, 0.6)
        _, prob = pr.run_search(j, 1.0, 3, 1.0, n_times=5)
        assert prob[0] == pytest.approx(1.0 / n, rel=1e-12)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_trace_matches_expm(self, asymmetric):
        # an off-centre mark, on mirrored couplings or on couplings that
        # break the mirror symmetry: the identity's one half either way
        n = 11
        j = asymmetric_walk(n, 0.4) if asymmetric else normalized_walk(n, 0.4)
        times, prob = pr.run_search(j, 0.9, 4, 3 * pr.transfer_time(n),
                                    n_times=37)
        hs = pr.search_hamiltonian(j, 0.9, [4])
        psi0 = np.full(n, 1.0 / np.sqrt(n))
        ref = [abs((expm(-1j * hs * t) @ psi0)[4]) ** 2 for t in times]
        assert np.max(np.abs(prob - ref)) < 1e-12


def full_transfer_weights(hs, sender, receiver):
    """Walk weights from one full eigh: the path the mirror split replaces."""
    w, v = np.linalg.eigh(hs)
    return w, v[receiver] * v[sender]


def eigh_sizes(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) and the sizes of the eigh calls it made, each
    on a single matrix."""
    out, calls, _ = solver_sizes(monkeypatch, fn, *args, **kwargs)
    assert all(depth == 1 for _, depth in calls)
    return out, [size for size, _ in calls]


def solver_sizes(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) and, per call to eigh and to eigvalsh, the
    (size, stack depth) of the matrices it passed: depth 1 for a single
    matrix, the count of matrices for a stack."""
    calls = {"eigh": [], "eigvalsh": []}

    def counting(name, solver):
        def solve(a, *a_args, **a_kwargs):
            a = np.asarray(a)
            calls[name].append((a.shape[-1], int(np.prod(a.shape[:-2]))))
            return solver(a, *a_args, **a_kwargs)
        return solve

    for name in calls:
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    out = fn(*args, **kwargs)
    monkeypatch.undo()
    return out, calls["eigh"], calls["eigvalsh"]


class TestMirrorTransferWeights:
    def weights(self, j, gamma, sender, receiver, diag):
        split = pr._walk_split(j, diag, pr._site_state(len(j), sender))
        return pr._walk_weights(split, gamma, diag, receiver)

    @pytest.mark.parametrize("n", [7, 8, 11, 12])
    def test_split_matches_full_eigh(self, monkeypatch, n):
        j = normalized_walk(n, 0.4)
        diag = pr._search_diagonal(n, [0, n - 1])
        half = (n + 1) // 2
        (w, p), eigh, eigvalsh = solver_sizes(monkeypatch, self.weights, j,
                                              0.9, 0, n - 1, diag)
        # each half's block without its first orbit, then each half; two
        # halves of one size as one stack
        assert eigh == []
        assert eigvalsh == ([(half - 1, 1), (n // 2 - 1, 1), (half, 1),
                             (n // 2, 1)] if n % 2 else
                            [(half - 1, 2), (half, 2)])
        w_full, p_full = full_transfer_weights(
            pr.search_hamiltonian(j, 0.9, [0, n - 1]), 0, n - 1)
        assert np.max(np.abs(np.sort(w) - w_full)) < 1e-14
        # p = [v_e[0]^2 / 2, -v_o[0]^2 / 2]
        assert np.all(p[:half] > 0) and np.all(p[half:] < 0)
        times = np.linspace(0.0, 3 * pr.transfer_time(n), 50)
        assert np.max(np.abs(pr._walk_probability((w, p), times)
                             - pr._walk_probability((w_full, p_full), times))) \
            < 1e-13

    @pytest.mark.parametrize("case", ["pair", "couplings", "extra"])
    def test_fallback_is_the_full_eigh(self, monkeypatch, case):
        n = 10
        j = normalized_walk(n, 0.4)
        receiver, extra = n - 1, None
        if case == "pair":
            receiver = n - 2
        elif case == "couplings":
            j = j.copy()
            j[0, 1] = j[1, 0] = j[0, 1] * (1 + 1e-9)
        else:
            extra = 0.01 * np.random.default_rng(0).standard_normal(n)
        f, sizes = eigh_sizes(monkeypatch, pr.transfer_fidelity_at, j, 0.9,
                              2.3, 0, receiver, extra_fields=extra)
        assert sizes == [n]
        hs = pr.search_hamiltonian(j, 0.9, [0, receiver])
        if extra is not None:
            hs = hs + np.diag(extra)
        assert f == float(pr._walk_probability(
            full_transfer_weights(hs, 0, receiver), 2.3))

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("row", ["end", "inner"])
    def test_coupling_diagonal_and_partner_couplings(self, monkeypatch, n,
                                                     row):
        # J with a mirror-symmetric diagonal of its own, besides the
        # markers; every site also couples to its mirror partner, inside
        # one pair orbit.  Row n - 1 reads the trailing stacks, row 1 the
        # halves' full eigh
        v = np.random.default_rng(n).standard_normal(n)
        j = normalized_walk(n, 0.4) + np.diag(0.2 * (v + v[::-1]))
        diag = pr._search_diagonal(n, [0, n - 1])
        receiver = n - 1 if row == "end" else 1
        split = pr._walk_split(j, diag, pr._site_state(n, 0))
        assert split[3] is not None
        (w, p), eigh, _ = solver_sizes(monkeypatch, pr._walk_weights, split,
                                       0.9, diag, receiver)
        assert eigh == ([] if row == "end"
                        else [((n + 1) // 2, 1), (n // 2, 1)])
        hs = 0.9 * j + np.diag(diag)
        times = np.linspace(0.0, 3 * pr.transfer_time(n), 41)
        assert np.max(np.abs(
            walk_amplitude((w, p), times)
            - walk_amplitude(full_transfer_weights(hs, 0, receiver),
                             times))) < 1e-13


def walk_amplitude(weights, times):
    w, p = weights
    return p @ np.exp(-1j * np.multiply.outer(w, times))


class TestGaussWeights:
    """The eigenvalue-only weights of a 0 -> n - 1 transfer walk."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 52, 200])
    def test_amplitudes_match_full_eigh(self, monkeypatch, n):
        times = np.linspace(0.0, 3 * pr.transfer_time(n), 41)
        diag = pr._search_diagonal(n, [0, n - 1])

        def errors():
            for alpha in (0.05, 0.4, 3.0):
                j = normalized_walk(n, alpha)
                split = pr._walk_split(j, diag, pr._site_state(n, 0))
                assert split[3] is not None
                for gamma in (0.5, 1.0, 1.7):
                    ref = full_transfer_weights(
                        pr.search_hamiltonian(j, gamma, [0, n - 1]), 0, n - 1)
                    yield np.max(np.abs(
                        walk_amplitude(pr._walk_weights(split, gamma, diag,
                                                        n - 1), times)
                        - walk_amplitude(ref, times)))

        out, eigh, _ = solver_sizes(monkeypatch, lambda: list(errors()))
        assert eigh == [(n, 1)] * 9
        assert max(out) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 52, 200])
    def test_stack_matches_single_gammas(self, monkeypatch, n):
        # one stacked eigvalsh per half size (or, for a receiver that is
        # not mirrored, one eigh per gamma) gives each gamma's weights bit
        # for bit as when it is solved alone
        gammas = [0.5, 1.0, 1.7, -0.8, 1.0 + 2e-16]
        for receiver in range(max(1, n - 2), n):
            diag = pr._search_diagonal(n, [0, receiver])
            for alpha in (0.05, 0.4, 3.0):
                split = pr._walk_split(normalized_walk(n, alpha), diag,
                                       pr._site_state(n, 0))
                (w, p), eigh, _ = solver_sizes(
                    monkeypatch, pr._walk_weights, split, np.array(gammas),
                    diag, receiver)
                assert w.shape == p.shape == (len(gammas), n)
                assert eigh == ([] if receiver == n - 1
                                else [(n, 1)] * len(gammas))
                for gamma, w_row, p_row in zip(gammas, w, p):
                    w1, p1 = pr._walk_weights(split, gamma, diag, receiver)
                    assert w1.shape == p1.shape == (n,)
                    assert np.array_equal(w_row, w1)
                    assert np.array_equal(p_row, p1)

    @pytest.mark.parametrize("n, rows", [(60, 4), (300, 1)])
    def test_large_walk_stack_is_chunked(self, monkeypatch, n, rows):
        # one gamma's two scaled halves take 16 (n / 2)^2 bytes: 14.4 kB at
        # n = 60, so the tuner's 24 scatter gammas are solved four at a
        # time; 360 kB at n = 300, so one at a time, not as one 8.6 MB
        # stack with products' temporaries as large again
        j = normalized_walk(n, 0.4)
        tracemalloc.start()
        try:
            out, eigh, eigvalsh = solver_sizes(
                monkeypatch, pr.optimize_protocol, j, 0, n - 1, budget=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eigh == []
        assert rows == max(1, pr._STACK_BYTES // (16 * (n // 2) ** 2))
        # the split's trailing halves, the seed, then the scatter
        assert eigvalsh[:2] == [(n // 2 - 1, 2), (n // 2, 2)]
        stacks = 24 // rows
        assert eigvalsh[2:2 + stacks] == [(n // 2, 2 * rows)] * stacks
        assert peak < 4 << 20
        (g, t, f), n_evals, seed_fid, n_gammas = uncached_search(
            j, 0, n - 1, budget=100)
        assert (out.config.gamma, out.config.duration, out.fidelity,
                out.n_evaluations, out.seed_fidelity, out.n_gamma_solves) \
            == (g, t, f, n_evals, seed_fid, n_gammas)

    def test_negative_gamma_matches_expm(self):
        n = 9
        j = normalized_walk(n, 0.4)
        hs = pr.search_hamiltonian(j, -0.8, [0, n - 1])
        f = pr.transfer_fidelity_at(j, -0.8, 2.3, 0, n - 1)
        assert f == pytest.approx(abs(expm(-1j * hs * 2.3)[n - 1, 0]) ** 2,
                                  abs=1e-13)

    def test_decoupled_mirror_pairs(self):
        # two mirror pairs with no couplings: each half holds two exactly
        # degenerate eigenvalues, shared with its trailing block, that
        # site 0 cannot see
        n = 10
        j = normalized_walk(n, 0.4)
        for site in (2, 3):
            j[[site, n - 1 - site]] = 0.0
            j[:, [site, n - 1 - site]] = 0.0
        diag = pr._search_diagonal(n, [0, n - 1])
        split = pr._walk_split(j, diag, pr._site_state(n, 0))
        gammas = [0.9, 1.3, -0.7]
        w_stack, p_stack = pr._walk_weights(split, np.array(gammas), diag,
                                            n - 1)
        for gamma, w_row, p_row in zip(gammas, w_stack, p_stack):
            w, p = pr._walk_weights(split, gamma, diag, n - 1)
            # the four merged eigenvalues keep their slots, at weight 0
            assert np.all(np.isfinite(p)) and len(w) == n
            assert np.count_nonzero(p == 0.0) == 4
            # every row of the stack merges, each one by itself
            assert np.array_equal(w_row, w) and np.array_equal(p_row, p)
            hs = pr.search_hamiltonian(j, gamma, [0, n - 1])
            for t in (0.5, 2.3, 7.0, 20.0):
                ref = expm(-1j * hs * t)[n - 1, 0]
                assert abs(walk_amplitude((w, p), t) - ref) < 1e-13
                assert pr.transfer_fidelity_at(j, gamma, t, 0, n - 1) \
                    == pytest.approx(abs(ref) ** 2, abs=1e-13)

    def test_merge_rows_among_clean_rows(self):
        # a stack whose second row meets its trailing spectrum: the clean
        # rows keep their stacked products, the merge row gives the one
        # eigenvalue site 0 cannot see a weight of exactly 0
        n = 7
        b = normalized_walk(n, 0.4)
        decoupled = b.copy()
        decoupled[3] = decoupled[:, 3] = 0.0
        x = np.stack([np.linalg.eigvalsh(h) for h in (b, decoupled, 2 * b)])
        nu = np.stack([np.linalg.eigvalsh(h[1:, 1:])
                       for h in (b, decoupled, 2 * b)])
        g = pr._gauss_weights(x, nu, pr._partners(n))
        assert g.shape == (3, n)
        assert np.count_nonzero(g == 0.0, axis=1).tolist() == [0, 1, 0]
        for s in range(3):
            assert np.array_equal(pr._gauss_weights(x[s], nu[s],
                                                    pr._partners(n)), g[s])
        for h, gs in zip((b, decoupled, 2 * b), g):
            v0 = np.linalg.eigh(h)[1][0]
            assert np.max(np.abs(gs - v0 ** 2)) < 1e-13
            # a merged slot belongs to an eigenvector site 0 cannot see
            assert np.all(np.abs(v0[gs == 0]) < 1e-13)


def full_walk_probability(hs, row, psi0, times):
    """The walk amplitude's probability from one full eigh of hs: the
    reference for a walk that runs as the identity's one half."""
    w, v = np.linalg.eigh(hs)
    return pr._walk_probability((w, v[row] * (psi0 @ v)), times)


class TestWalkEntryPoints:
    @pytest.mark.parametrize("n", [9, 11])
    def test_search_centre_of_odd_chain_splits(self, monkeypatch, n):
        # an odd chain marked at its centre is mirror-symmetric; the
        # uniform state lies in the even half
        j = normalized_walk(n, 0.4)
        t_max = 3 * pr.transfer_time(n)
        (times, prob), sizes = eigh_sizes(monkeypatch, pr.run_search, j, 0.9,
                                          n // 2, t_max, n_times=37)
        assert sizes == [(n + 1) // 2, n // 2]
        hs = pr.search_hamiltonian(j, 0.9, [n // 2])
        psi0 = np.full(n, 1.0 / np.sqrt(n))
        ref = [abs((expm(-1j * hs * t) @ psi0)[n // 2]) ** 2 for t in times]
        assert np.max(np.abs(prob - ref)) < 1e-12

    @pytest.mark.parametrize("case", ["search_even", "search_off_centre",
                                      "search_couplings", "transfer_pair",
                                      "transfer_couplings"])
    def test_identity_fallback_is_the_full_eigh(self, monkeypatch, case):
        n = 10 if case == "search_even" else 9
        j = asymmetric_walk(n, 0.3) if "couplings" in case \
            else normalized_walk(n, 0.3)
        if case.startswith("search"):
            marked = 2 if case == "search_off_centre" else n // 2
            psi0 = np.full(n, 1.0 / np.sqrt(n))
            (times, prob), sizes = eigh_sizes(
                monkeypatch, pr.run_search, j, 0.9, marked,
                2 * pr.transfer_time(n), n_times=41)
            hs, row = pr.search_hamiltonian(j, 0.9, [marked]), marked
        else:
            receiver = n - 2 if case == "transfer_pair" else n - 1
            cfg = pr.ProtocolConfig(gamma=0.9, sender=0, receiver=receiver,
                                    duration=pr.transfer_time(n))
            (times, prob), sizes = eigh_sizes(
                monkeypatch, pr.run_transfer, j, cfg, n_times=41)
            hs, row = pr.search_hamiltonian(j, 0.9, [0, receiver]), receiver
            psi0 = pr._site_state(n, 0)
        assert sizes == [n]
        assert np.array_equal(prob, full_walk_probability(hs, row, psi0,
                                                          times))

    @pytest.mark.parametrize("entry", ["transfer_fidelity_at",
                                       "optimize_protocol", "run_transfer",
                                       "run_search"])
    def test_oversized_walk_refused_before_any_eigensolver(self, monkeypatch,
                                                           entry):
        n = 8
        j = normalized_walk(n, 0.3)
        calls = []

        def no_solver(a, *args, **kwargs):
            calls.append(len(a))
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(xy, "WORK_BYTES", 16 * (n - 1) ** 2)
        monkeypatch.setattr(np.linalg, "eigh", no_solver)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
        cfg = pr.ProtocolConfig(gamma=0.9, sender=0, receiver=n - 1,
                                duration=pr.transfer_time(n))
        run = {"transfer_fidelity_at":
               lambda: pr.transfer_fidelity_at(j, 0.9, 2.3, 0, n - 1),
               "optimize_protocol":
               lambda: pr.optimize_protocol(j, 0, n - 1, budget=8),
               "run_transfer": lambda: pr.run_transfer(j, cfg),
               "run_search": lambda: pr.run_search(j, 0.9, 3, 5.0)}[entry]
        with pytest.raises(xy.TooLarge,
                           match=f"a dense eigh of a {n}-site walk needs"):
            run()
        assert calls == []


def uncached_search(j, sender, receiver, box=0.30, budget=200, rng_seed=0):
    """optimize_protocol's search with a fresh eigh at every evaluation:
    (best, evaluations, seed fidelity, distinct gammas evaluated).  j is
    normalised to lambda_max = 1, so the analytic gamma is 1."""
    n = j.shape[0]
    gamma0, t0 = 1.0, pr.transfer_time(n)
    evals = [0]
    gammas = set()

    def objective(g, t):
        evals[0] += 1
        gammas.add(g)
        return pr.transfer_fidelity_at(j, g, t, sender, receiver)

    best = (gamma0, t0, objective(gamma0, t0))
    seed_fid = best[2]
    rng = np.random.default_rng(rng_seed)
    n_scatter = min(24, budget // 4)
    lows = np.linspace(-box, box, n_scatter, endpoint=False)
    g_frac = rng.permutation(lows) + box / n_scatter * rng.random(n_scatter)
    t_frac = rng.permutation(lows) + box / n_scatter * rng.random(n_scatter)
    for gf, tf in zip(g_frac, t_frac):
        g, t = gamma0 * (1 + gf), t0 * (1 + tf)
        f = objective(g, t)
        if f > best[2]:
            best = (g, t, f)
    step_g, step_t = box * gamma0 / 2, box * t0 / 2
    while evals[0] < budget and (step_g / gamma0 > 1e-5
                                 or step_t / t0 > 1e-5):
        g, t, f = best
        improved = False
        for dg, dt in ((step_g, 0), (-step_g, 0), (0, step_t), (0, -step_t)):
            if evals[0] >= budget:
                break
            cand = (g + dg, t + dt)
            if cand[0] <= 0 or cand[1] <= 0:
                continue
            fc = objective(*cand)
            if fc > f:
                best = (cand[0], cand[1], fc)
                improved = True
                break
        if not improved:
            step_g /= 2
            step_t /= 2
    return best, evals[0], seed_fid, len(gammas)


class TestOptimizeProtocol:
    def test_one_eigh_per_distinct_gamma(self, monkeypatch):
        n = 12
        j = normalized_walk(n, 0.3)
        gammas, depths = [], []
        walk_weights = pr._walk_weights

        def recording_weights(split, stack, *args):
            gammas.extend(np.atleast_1d(stack))
            depths.append(np.size(stack))
            return walk_weights(split, stack, *args)

        monkeypatch.setattr(pr, "_walk_weights", recording_weights)
        out, eigh, eigvalsh = solver_sizes(monkeypatch, pr.optimize_protocol,
                                           j, 0, n - 1, budget=120)
        # the halves without their first orbit once, and no solve of the
        # whole walk; then the seed's gamma alone, the 24 scatter gammas as
        # one stack and each pattern move's gamma alone, every one solved
        # once as its two mirror halves (one stack at even n), eigenvalues
        # only
        assert len(set(gammas)) == len(gammas) == out.n_gamma_solves
        assert depths == [1, 24] + [1] * (len(gammas) - 25)
        assert eigh == []
        assert eigvalsh == [(n // 2 - 1, 2)] \
            + [(n // 2, 2 * depth) for depth in depths]
        assert out.config.gamma in gammas
        assert out.n_evaluations > len(gammas)

        (g, t, f), n_evals, seed_fid, _ = uncached_search(j, 0, n - 1,
                                                          budget=120)
        assert (out.config.gamma, out.config.duration) == (g, t)
        assert out.fidelity == f
        assert out.n_evaluations == n_evals
        assert out.seed_fidelity == seed_fid

    # odd n: two trailing groups, mirror halves of two sizes
    @pytest.mark.parametrize("n", [8, 9, 12, 31, 52, 10])
    def test_matches_uncached_search(self, n):
        j = normalized_walk(n, 0.4)
        if n == 10:
            # two decoupled mirror pairs: every scatter row merges
            j[[2, 3, 6, 7]] = j[:, [2, 3, 6, 7]] = 0.0
        self.check_matches_uncached_search(j, 0, n - 1)

    @pytest.mark.parametrize("case", ["asymmetric", "inner_pair"])
    @pytest.mark.parametrize("n", [9, 12])
    def test_eigh_path_matches_uncached_search(self, monkeypatch, case, n):
        # without trailing data each gamma is an eigh: of the whole walk
        # where the couplings break the mirror symmetry, of the two mirror
        # halves for a transfer between mirror sites off the end pair
        j, sender, receiver = normalized_walk(n, 0.4), 1, n - 2
        if case == "asymmetric":
            j, sender, receiver = asymmetric_walk(n, 0.4), 0, n - 1
        _, eigh, _ = solver_sizes(monkeypatch, pr.optimize_protocol, j,
                                  sender, receiver, budget=40)
        assert set(eigh) == ({(n, 1)} if case == "asymmetric" else
                             {((n + 1) // 2, 1), (n // 2, 1)})
        self.check_matches_uncached_search(j, sender, receiver)

    @staticmethod
    def check_matches_uncached_search(j, sender, receiver):
        for seed in range(4):
            out = pr.optimize_protocol(j, sender, receiver, rng_seed=seed)
            (g, t, f), n_evals, seed_fid, n_gammas = uncached_search(
                j, sender, receiver, rng_seed=seed)
            assert out.config == pr.ProtocolConfig(gamma=g, sender=sender,
                                                   receiver=receiver,
                                                   duration=t)
            assert (out.fidelity, out.n_evaluations, out.seed_fidelity,
                    out.n_gamma_solves) == (f, n_evals, seed_fid, n_gammas)

    def test_deterministic_and_never_worse_than_seed(self):
        n = 14
        j = normalized_walk(n, 0.4)
        a = pr.optimize_protocol(j, 0, n - 1, budget=60)
        b = pr.optimize_protocol(j, 0, n - 1, budget=60)
        assert a.fidelity == b.fidelity
        assert a.config.gamma == b.config.gamma
        assert a.fidelity >= a.seed_fidelity
        assert a.n_evaluations <= 60

    @pytest.mark.parametrize("budget", [4, 9])
    def test_small_scatter_draws_same_stream(self, budget):
        n = 10
        j = normalized_walk(n, 0.3)
        out = pr.optimize_protocol(j, 0, n - 1, budget=budget)
        (g, t, f), n_evals, _, _ = uncached_search(j, 0, n - 1,
                                                   budget=budget)
        assert (out.config.gamma, out.config.duration, out.fidelity) \
            == (g, t, f)
        assert out.n_evaluations == n_evals <= budget

    @pytest.mark.parametrize("budget", [1, 3])
    def test_small_budget_skips_scatter(self, budget):
        n = 10
        j = normalized_walk(n, 0.3)
        out = pr.optimize_protocol(j, 0, n - 1, budget=budget)
        assert out.n_evaluations <= budget
        assert out.fidelity >= out.seed_fidelity
        assert out.fidelity == pr.transfer_fidelity_at(
            j, out.config.gamma, out.config.duration, 0, n - 1)

    @pytest.mark.parametrize("box", [5.0, -0.5, 0.0, 1.0, np.nan, np.inf])
    def test_box_outside_unit_interval_rejected(self, box):
        j = normalized_walk(6, 0.3)
        with pytest.raises(ValueError, match="box"):
            pr.optimize_protocol(j, 0, 5, box=box)

    def test_recovers_detuned_seed(self):
        # start the search from couplings whose analytic gamma is right but
        # verify optimisation beats a deliberately perturbed evaluation
        n = 12
        j = normalized_walk(n, 0.2)
        out = pr.optimize_protocol(j, 0, n - 1, budget=150)
        cfg = out.config
        detuned = pr.transfer_fidelity_at(j, cfg.gamma * 1.2,
                                          cfg.duration, 0, n - 1)
        assert out.fidelity > detuned
        assert out.fidelity > 0.97
