import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ionchain as ic
from ionchain.chain import max_stable_axial_frequency
from ionchain.constants import HBAR
from ionchain.couplings import (RESONANCE_TOL, DegenerateFit, FitConvention,
                                ResonantDetuning, _check_resonance,
                                _fit_pairs, _power_law_alpha, _power_law_fit,
                                _resonant, fit_alpha_beta)


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
        parts = sum(ic.coupling_matrix(trap, eta[:, [m]],
                                       sol.mode_freqs[[m]])
                    for m in range(trap.n_ions))
        assert parts == pytest.approx(full, rel=1e-10)

    def test_empty_mode_subset_gives_zeros(self, working_point):
        trap, sol = working_point
        eta = ic.lamb_dicke(trap, sol)
        n = trap.n_ions
        # the single-mode J' adds this no-column part
        j = ic.coupling_matrix(trap, eta[:, :0], sol.mode_freqs[:0])
        h = ic.local_fields(trap, eta[:, :0], sol.mode_freqs[:0])
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

    @pytest.mark.parametrize("conv", list(FitConvention))
    def test_power_law_matches_lstsq(self, working_point, conv):
        # the closed-form beta = 0 fit against numpy's least squares on the
        # same pairs, for a physical J that no power law fits exactly
        trap, sol = working_point
        j = ic.coupling_matrix(trap, ic.lamb_dicke(trap, sol), sol.mode_freqs)
        j[0, 3] = j[3, 0] = 0.0
        fit = fit_alpha_beta(j, convention=conv, positions=sol.positions_m)
        i, k, r = _fit_pairs(len(j), conv, sol.positions_m)
        keep = j[i, k] != 0
        a = np.column_stack([np.ones(keep.sum()), -np.log(r[keep])])
        y = np.log(np.abs(j[i, k][keep]))
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert fit.alpha == pytest.approx(coef[1], rel=1e-13)
        assert fit.residual == pytest.approx(
            np.sqrt(np.mean((a @ coef - y) ** 2)), rel=1e-10)


class TestDetuningStep:
    """_power_law_alpha, the fit of each detuning_for_alpha step, against
    _power_law_fit on the same pairs."""

    @pytest.mark.parametrize("conv", list(FitConvention))
    def test_matches_power_law_fit_bitwise(self, working_point, conv):
        _, sol = working_point
        _, _, r = _fit_pairs(len(sol.positions_m), conv, sol.positions_m)
        alpha = _power_law_alpha(r)
        rng = np.random.default_rng(7)
        for _ in range(50):
            vals = rng.standard_normal(len(r)) * 10.0 ** rng.uniform(-6, 6)
            assert alpha(vals) == _power_law_fit(r, vals)[0]

    @pytest.mark.parametrize("dropped", [[0], [2, 5], [1, 3, 4, 6, 7, 8]])
    def test_zero_or_nan_pairs_as_power_law_fit(self, dropped):
        # a 0 and a NaN are the pairs _power_law_fit leaves out
        r = np.arange(1.0, 10.0)
        vals = np.random.default_rng(3).standard_normal(len(r))
        for gap in (0.0, np.nan):
            vals[dropped] = gap
            assert _power_law_alpha(r)(vals) == _power_law_fit(r, vals)[0]

    @pytest.mark.parametrize("r, vals", [
        # zeros leave one distance, or none
        (np.arange(1.0, 5.0), np.array([0.0, 0.0, 0.0, 0.3])),
        (np.arange(1.0, 5.0), np.zeros(4)),
        # one distance to begin with
        (np.ones(4), np.array([0.1, 0.2, 0.3, 0.4]))])
    def test_degenerate_as_power_law_fit(self, r, vals):
        alpha = _power_law_alpha(r)
        with pytest.raises(DegenerateFit) as raised:
            _power_law_fit(r, vals)
        with pytest.raises(DegenerateFit, match=str(raised.value)):
            alpha(vals)


def full_matrix_bisection(trap, sol, target, conv, tol=1e-3, factor=20.0):
    """(mu, alpha, steps) of the detuning bisection with the whole J and a
    least-squares fit at every step: the path detuning_for_alpha replaces."""
    steps = []

    def alpha_at(mu):
        steps.append(mu)
        t = trap.with_(detuning_mu=mu)
        j = ic.coupling_matrix(t, ic.lamb_dicke(t, sol), sol.mode_freqs)
        i, k, r = _fit_pairs(len(j), conv, sol.positions_m)
        a = np.column_stack([np.ones_like(r), -np.log(r)])
        coef, *_ = np.linalg.lstsq(a, np.log(np.abs(j[i, k])), rcond=None)
        return coef[1]

    mu_lo, mu_hi = ic.min_detuning(trap, sol), factor * sol.mode_freqs[0]
    a_lo = alpha_at(mu_lo)
    if a_lo >= target:
        return mu_lo, a_lo, len(steps)
    a_hi = alpha_at(mu_hi)
    if a_hi <= target:
        return mu_hi, a_hi, len(steps)
    while True:
        mu = 0.5 * (mu_lo + mu_hi)
        a = alpha_at(mu)
        if abs(a - target) < tol or (mu_hi - mu_lo) < 1e-6 * mu_lo:
            return mu, a, len(steps)
        if a < target:
            mu_lo = mu
        else:
            mu_hi = mu


class TestDetuningSelection:
    def test_min_detuning_definition(self, working_point):
        trap, sol = working_point
        mu_min = ic.min_detuning(trap, sol)
        eta_com = abs(ic.lamb_dicke(trap, sol)[0, 0])
        omega_eff = np.hypot(trap.rabi, mu_min)
        assert omega_eff == pytest.approx(
            3 * trap.rabi * eta_com + sol.mode_freqs[0], rel=1e-12)

    @pytest.mark.parametrize("n", [150, 200, 250, 300, 400])
    def test_min_detuning_outside_resonance_guard(self, n):
        # 3 Omega eta_com / omega_com falls as 1/N^1.5 and crosses the guard
        # near N = 250 at the reference trap
        template = ic.reference_trap(n, 2 * np.pi * 1e6)
        trap = template.with_(omega_z=max_stable_axial_frequency(template, n))
        sol = ic.solve_chain(trap)
        mu = ic.min_detuning(trap, sol)
        omega_eff = np.hypot(trap.rabi, mu)
        _check_resonance(omega_eff, sol.mode_freqs)
        eta_com = abs(ic.lamb_dicke(trap, sol)[0, 0])
        target = 3 * trap.rabi * eta_com + sol.mode_freqs[0]
        bare = float(np.sqrt(max(target**2 - trap.rabi**2, 0.0)))
        inside = _resonant(np.hypot(trap.rabi, bare), sol.mode_freqs).any()
        assert inside == (n > 200)
        if inside:
            # the guard's edge, up to rounding
            margin = omega_eff / sol.mode_freqs[0] - 1.0
            assert RESONANCE_TOL <= margin < RESONANCE_TOL + 1e-15
        else:
            assert mu == bare

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

    @pytest.mark.parametrize("conv", list(FitConvention))
    def test_matches_full_matrix_bisection(self, working_point, conv):
        trap, sol = working_point
        for target in (0.3, 0.6, 1.0, 5.0):
            mu, alpha, steps = full_matrix_bisection(trap, sol, target, conv)
            res = ic.detuning_for_alpha(trap, sol, target, convention=conv)
            assert res.mu == mu
            assert res.steps == steps
            # at mu_max = 20 omega_com the far pairs' J is a sum over modes
            # that nearly cancels, so its rounding depends on the order of
            # summation
            assert res.alpha_achieved == pytest.approx(
                alpha, rel=1e-10 if target == 5.0 else 1e-13)

    def test_min_detuning_clamps_at_zero(self, working_point):
        # Omega alone above 3 Omega eta_com + omega_com: every mu meets
        # the bound
        trap, sol = working_point
        strong = trap.with_(rabi_total=2 * np.pi * 400e6)
        assert ic.min_detuning(strong, sol) == 0.0
        res = ic.detuning_for_alpha(strong, sol, 0.5)
        assert (res.mu, res.target_unreachable, res.steps) == (0.0, True, 1)

    def test_bracket_from_zero_detuning_ends(self, working_point):
        # a target just above alpha(0) with no alpha tolerance: the bracket
        # [0, mu_max] halves down to 1e-6 of omega_com, not of mu_lo
        trap, sol = working_point
        strong = trap.with_(rabi_total=2 * np.pi * 400e6)
        a0 = ic.detuning_for_alpha(strong, sol, 0.5).alpha_achieved
        res = ic.detuning_for_alpha(strong, sol, a0 + 1e-9, tol=0.0)
        assert not res.target_unreachable
        assert 0.0 < res.mu < 1e-2 * sol.mode_freqs[0]
        # each step checks the bracket before halving it: 26 midpoints
        # take 20 omega_com below 1e-6 omega_com
        assert res.steps == 2 + 26


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


@settings(max_examples=25)
@given(n=st.integers(3, 20), alpha=st.floats(0.1, 1.4))
def test_mirror_symmetry(n, alpha):
    """The chain is symmetric under i -> N - 1 - i: J_ij = J_{N-1-i,N-1-j},
    and every Lamb-Dicke column is even or odd under the flip, to rounding
    (the precondition for splitting the spin-phonon blocks by mirror
    parity)."""
    template = ic.reference_trap(n, 2 * np.pi * 0.5e6)
    trap = template.with_(omega_z=max_stable_axial_frequency(template, n,
                                                             safety=1.05))
    sol = ic.solve_chain(trap)
    trap = trap.with_(detuning_mu=ic.detuning_for_alpha(trap, sol, alpha).mu)
    eta = ic.lamb_dicke(trap, sol)
    j = ic.coupling_matrix(trap, eta, sol.mode_freqs)
    assert np.max(np.abs(j - j[::-1, ::-1])) < 1e-11 * np.max(np.abs(j))
    for col in eta.T:
        flip = min(np.max(np.abs(col - col[::-1])),
                   np.max(np.abs(col + col[::-1])))
        assert flip < 1e-11 * np.max(np.abs(col))
