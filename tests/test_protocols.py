import numpy as np
import pytest
from scipy.linalg import expm

from ionchain import protocols as pr
from ionchain import xy


def normalized_walk(n, alpha):
    j = pr.idealized_couplings(n, alpha)
    return j / np.linalg.eigvalsh(j)[-1]


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

    def test_z_fields_add_twice_h_to_diagonal(self):
        j = pr.idealized_couplings(5, 0.5)
        h = np.array([0.1, -0.2, 0.3, 0.0, 0.5])
        hs = pr.search_hamiltonian(j, 0.3, [1, 4], h=h)
        bare = pr.search_hamiltonian(j, 0.3, [1, 4])
        assert np.array_equal(hs - np.diag(np.diag(hs)),
                              bare - np.diag(np.diag(bare)))
        assert np.diag(hs) == pytest.approx(np.diag(bare) + 2.0 * h)

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

    def test_degenerate_top_warns(self):
        warnings = []
        pr.analytic_gamma(np.diag([2.0, 2.0, 1.0]), gap_warning=warnings)
        assert len(warnings) == 1
        assert isinstance(warnings[0], pr.DegenerateSpectrum)

    def test_clean_gap_no_warning(self):
        warnings = []
        pr.analytic_gamma(pr.idealized_couplings(7, 0.5),
                          gap_warning=warnings)
        assert warnings == []


class TestAnalyticModel:
    def test_transfer_time_formula(self):
        assert pr.transfer_time(8) == pytest.approx(np.pi * 2.0)
        assert pr.transfer_time(8, marker_amplitude=2.0) == \
            pytest.approx(np.pi)
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
        rep = pr.run_transfer(j, None, cfg, n_times=400)
        assert rep.fidelity_peak > 0.97
        assert rep.t_peak == pytest.approx(cfg.duration, rel=0.1)
        assert rep.scaled_time == pytest.approx(cfg.gamma * cfg.duration)

    def test_trace_matches_single_point_evaluator(self):
        n = 10
        j = normalized_walk(n, 0.4)
        h = 0.01 * np.arange(n, dtype=float)
        cfg = pr.ProtocolConfig(gamma=0.9, sender=0, receiver=n - 1,
                                duration=pr.transfer_time(n))
        rep = pr.run_transfer(j, h, cfg, n_times=50)
        for k in (0, 17, 49):
            direct = pr.transfer_fidelity_at(j, 0.9, rep.times[k],
                                             0, n - 1, h=h)
            assert rep.fidelity_trace[k] == pytest.approx(direct, abs=1e-10)

    def test_single_point_matches_expm(self):
        n = 7
        j = normalized_walk(n, 0.5)
        h = 0.02 * np.arange(n, dtype=float)
        extra = np.linspace(-0.1, 0.1, n)
        hs = pr.search_hamiltonian(j, 0.8, [0, n - 1], h=h) + np.diag(extra)
        ref = abs(expm(-1j * hs * 2.3)[n - 1, 0]) ** 2
        f = pr.transfer_fidelity_at(j, 0.8, 2.3, 0, n - 1, h=h,
                                    extra_fields=extra)
        assert f == pytest.approx(ref, abs=1e-12)

    def test_fields_change_outcome(self):
        n = 12
        j = normalized_walk(n, 0.3)
        cfg = pr.ProtocolConfig(gamma=pr.analytic_gamma(j), sender=0,
                                receiver=n - 1,
                                duration=pr.transfer_time(n))
        clean = pr.run_transfer(j, None, cfg)
        noisy = pr.run_transfer(j, 0.2 * np.arange(n, dtype=float), cfg)
        assert noisy.fidelity_peak < clean.fidelity_peak


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


class TestOptimizeProtocol:
    def test_deterministic_and_never_worse_than_seed(self):
        n = 14
        j = normalized_walk(n, 0.4)
        a = pr.optimize_protocol(j, None, 0, n - 1, budget=60)
        b = pr.optimize_protocol(j, None, 0, n - 1, budget=60)
        assert a.report.fidelity_peak == b.report.fidelity_peak
        assert a.config.gamma == b.config.gamma
        assert a.report.fidelity_peak >= a.seed_fidelity
        assert a.n_evaluations <= 60

    def test_recovers_detuned_seed(self):
        # start the search from couplings whose analytic gamma is right but
        # verify optimisation beats a deliberately perturbed evaluation
        n = 12
        j = normalized_walk(n, 0.2)
        out = pr.optimize_protocol(j, None, 0, n - 1, budget=150)
        cfg = out.config
        detuned = pr.transfer_fidelity_at(j, cfg.gamma * 1.2,
                                          cfg.duration, 0, n - 1)
        assert out.report.fidelity_peak > detuned
        assert out.report.fidelity_peak > 0.97
