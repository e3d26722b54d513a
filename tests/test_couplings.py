import numpy as np
import pytest

import ionchain as ic
from ionchain.constants import HBAR
from ionchain.couplings import (DegenerateFit, FitConvention, ResonantDetuning,
                                fit_alpha_beta)


@pytest.fixture(scope="module")
def working_point():
    t = ic.reference_trap(10, 2 * np.pi * 1.0e6)
    sol = ic.solve_chain(t)
    res = ic.detuning_for_alpha(t, sol, 0.5)
    return t.with_(detuning_mu=res.mu), sol


class TestLambDicke:
    def test_matches_direct_formula(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        i, m = 3, 4
        expected = trap.delta_k * sol.mode_matrix[i, m] * np.sqrt(
            HBAR / (2 * trap.ion_mass * sol.mode_freqs[m]))
        assert eta[i, m] == pytest.approx(expected, rel=1e-12)

    def test_com_column_uniform(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        assert np.ptp(eta[:, 0]) < 1e-12 * abs(eta[0, 0])

    def test_magnitude_scale(self, working_point):
        # eta ~ delta_k * sqrt(hbar / 2 M w) / sqrt(N): a few percent
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        assert 0.01 < abs(eta[0, 0]) < 0.1


class TestCouplingMatrix:
    def test_against_triple_loop(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        j = ic.coupling_matrix(trap, eta, sol.mode_freqs)
        n = trap.n_ions
        brute = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                for m in range(n):
                    brute[a, b] += (trap.rabi**2 * eta[a, m] * eta[b, m]
                                    * sol.mode_freqs[m]
                                    / (8 * (trap.omega_eff**2
                                            - sol.mode_freqs[m]**2)))
        assert j == pytest.approx(brute, rel=1e-12)

    def test_symmetric_zero_diagonal(self, working_point):
        trap, sol = working_point
        j = ic.coupling_matrix(trap, ic.lamb_dicke(trap, sol), sol.mode_freqs)
        assert j == pytest.approx(j.T)
        assert np.all(np.diag(j) == 0.0)

    def test_mode_subset_sums_partial_terms(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        full = ic.coupling_matrix(trap, eta, sol.mode_freqs)
        parts = sum(ic.coupling_matrix(trap, eta, sol.mode_freqs,
                                       mode_subset=[m])
                    for m in range(trap.n_ions))
        assert parts == pytest.approx(full, rel=1e-10)

    def test_empty_mode_subset_gives_zeros(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        n = trap.n_ions
        j = ic.coupling_matrix(trap, eta, sol.mode_freqs, mode_subset=[])
        h = ic.local_fields(trap, eta, sol.mode_freqs, mode_subset=[])
        assert np.array_equal(j, np.zeros((n, n)))
        assert np.array_equal(h, np.zeros(n))

    def test_resonant_detuning_guard(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        wc = sol.mode_freqs[0]
        near = trap.with_(detuning_mu=np.sqrt(
            (wc * (1 + 1e-7))**2 - trap.rabi**2))
        with pytest.raises(ResonantDetuning):
            ic.coupling_matrix(near, eta, sol.mode_freqs)


class TestLocalFields:
    def test_against_loop(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        h = ic.local_fields(trap, eta, sol.mode_freqs, n_init=2)
        n = trap.n_ions
        brute = np.zeros(n)
        for a in range(n):
            for m in range(n):
                brute[a] += (trap.rabi**2 * eta[a, m]**2 * trap.omega_eff
                             * (2 * 2 + 1)
                             / (4 * (trap.omega_eff**2
                                     - sol.mode_freqs[m]**2)))
        assert h == pytest.approx(brute, rel=1e-12)

    def test_thermal_scaling(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        h0 = ic.local_fields(trap, eta, sol.mode_freqs, n_init=0)
        h3 = ic.local_fields(trap, eta, sol.mode_freqs, n_init=3)
        assert h3 == pytest.approx(7.0 * h0, rel=1e-12)


class TestFit:
    def synthetic(self, n, alpha, beta=0.0, scale=2.5):
        idx = np.arange(n)
        r = np.abs(idx[:, None] - idx[None, :]).astype(float)
        np.fill_diagonal(r, 1.0)
        j = scale * r ** (-alpha) * np.exp(-beta * r)
        np.fill_diagonal(j, 0.0)
        return j

    def test_recovers_pure_power_law(self):
        fit = fit_alpha_beta(self.synthetic(12, 0.73))
        assert fit.alpha == pytest.approx(0.73, abs=1e-10)
        assert fit.beta == 0.0
        assert fit.residual < 1e-10

    def test_recovers_alpha_and_beta(self):
        fit = fit_alpha_beta(self.synthetic(12, 0.4, beta=0.05),
                             fit_beta=True)
        assert fit.alpha == pytest.approx(0.4, abs=1e-9)
        assert fit.beta == pytest.approx(0.05, abs=1e-9)

    def test_all_conventions_on_power_law(self):
        j = self.synthetic(11, 0.9)
        for conv in FitConvention:
            positions = np.linspace(-5.0, 5.0, 11) if \
                conv == FitConvention.END_ION_AXIAL else None
            fit = fit_alpha_beta(j, convention=conv, positions=positions)
            assert fit.alpha == pytest.approx(0.9, abs=1e-8), conv

    def test_axial_convention_needs_positions(self):
        with pytest.raises(ValueError):
            fit_alpha_beta(self.synthetic(6, 0.5),
                           convention=FitConvention.END_ION_AXIAL)

    def test_negative_entries_counted(self):
        j = self.synthetic(8, 0.5)
        j[0, 3] = -j[0, 3]
        j[3, 0] = -j[3, 0]
        fit = fit_alpha_beta(j)
        assert fit.n_negative == 1

    def test_degenerate_small_chain(self):
        with pytest.raises(DegenerateFit):
            fit_alpha_beta(self.synthetic(2, 0.5))


class TestDetuningSelection:
    def test_min_detuning_definition(self, working_point):
        trap, sol = working_point
        mu_min = ic.min_detuning(trap, sol)
        eta_com = abs(ic.lamb_dicke(trap, sol)[0, 0])
        omega_eff = np.hypot(trap.rabi, mu_min)
        assert omega_eff == pytest.approx(
            3 * trap.rabi * eta_com + sol.mode_freqs[0], rel=1e-12)

    def test_alpha_monotone_in_mu(self, working_point):
        trap, sol = working_point
        mu_min = ic.min_detuning(trap, sol)
        alphas = []
        for mu in np.geomspace(mu_min, 10 * sol.mode_freqs[0], 8):
            t = trap.with_(detuning_mu=float(mu))
            j = ic.coupling_matrix(t, ic.lamb_dicke(t, sol), sol.mode_freqs)
            alphas.append(fit_alpha_beta(j).alpha)
        assert np.all(np.diff(alphas) > 0)

    @pytest.mark.parametrize("target", [0.2, 0.5, 1.0])
    def test_hits_target_alpha(self, working_point, target):
        trap, sol = working_point
        res = ic.detuning_for_alpha(trap, sol, target)
        assert not res.target_unreachable
        assert res.alpha_achieved == pytest.approx(target, abs=1e-3)

    def test_clamps_at_minimum_detuning(self, working_point):
        trap, sol = working_point
        res = ic.detuning_for_alpha(trap, sol, 1e-4)
        assert res.target_unreachable
        assert res.mu == pytest.approx(ic.min_detuning(trap, sol))

    def test_rejects_nonpositive_target(self, working_point):
        trap, sol = working_point
        with pytest.raises(ValueError):
            ic.detuning_for_alpha(trap, sol, 0.0)


class TestBuildModel:
    def test_model_consistent_with_parts(self, working_point):
        trap, sol = working_point
        model = ic.build_coupling_model(trap, sol, n_init=1)
        eta = ic.lamb_dicke(trap, sol)
        assert model.J == pytest.approx(
            ic.coupling_matrix(trap, eta, sol.mode_freqs))
        assert model.h == pytest.approx(
            ic.local_fields(trap, eta, sol.mode_freqs, n_init=1))
        assert model.omega_eff == pytest.approx(trap.omega_eff)

    def test_to_dict_keys(self, working_point):
        trap, sol = working_point
        d = ic.build_coupling_model(trap, sol).to_dict()
        assert set(d) == {"eta", "J_rad_s", "h_rad_s", "omega_eff_rad_s",
                          "alpha_fit", "beta_fit", "fit_convention"}

    def test_beta_objective_decreases_with_axial_confinement(self):
        # stronger axial confinement compresses the chain and reduces the
        # exponential decay correction of the couplings, which is why
        # max_stable_axial_frequency picks the zig-zag boundary
        betas = []
        for wz_mhz in (0.2, 1.2):
            t = ic.reference_trap(6, 2 * np.pi * wz_mhz * 1e6)
            sol = ic.solve_chain(t)
            t = t.with_(detuning_mu=ic.detuning_for_alpha(t, sol, 0.5).mu)
            j = ic.coupling_matrix(t, ic.lamb_dicke(t, sol), sol.mode_freqs)
            betas.append(fit_alpha_beta(j, fit_beta=True).beta)
        assert betas[1] < betas[0]
