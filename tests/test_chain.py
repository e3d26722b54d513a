import numpy as np
import pytest
from scipy.optimize import minimize

import ionchain as ic
from ionchain.chain import (NoStablePoint, NonConvergence, UnstableChain,
                            _potential, max_stable_axial_frequency)
from ionchain.constants import AMU, E_CHARGE, EPSILON_0


def trap(n, wz_mhz, wx_mhz=6.0, wy_mhz=5.0):
    return ic.reference_trap(n, 2 * np.pi * wz_mhz * 1e6).with_(
        omega_x=2 * np.pi * wx_mhz * 1e6, omega_y=2 * np.pi * wy_mhz * 1e6)


class TestTrapConfig:
    def test_per_ion_rabi(self):
        t = trap(10, 1.0)
        assert t.rabi == pytest.approx(t.rabi_total / 10)

    def test_omega_eff(self):
        t = trap(4, 1.0).with_(detuning_mu=3.0e7)
        assert t.omega_eff == pytest.approx(np.hypot(t.rabi, 3.0e7))

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            trap(4, -1.0)

    def test_rejects_axial_above_transverse(self):
        with pytest.raises(ValueError):
            trap(4, 7.0)

    def test_rejects_zero_ions(self):
        with pytest.raises(ValueError):
            trap(0, 1.0)

    def test_with_returns_new_instance(self):
        t = trap(4, 1.0)
        t2 = t.with_(detuning_mu=1.0)
        assert t.detuning_mu == 0.0 and t2.detuning_mu == 1.0


class TestLengthScale:
    def test_value_against_direct_formula(self):
        t = trap(2, 1.0)
        wz = 2 * np.pi * 1e6
        expected = (E_CHARGE**2
                    / (4 * np.pi * EPSILON_0 * 171 * AMU * wz**2)) ** (1 / 3)
        assert ic.length_scale(t) == pytest.approx(expected, rel=1e-12)

    def test_scales_as_omega_to_minus_two_thirds(self):
        l1 = ic.length_scale(trap(2, 0.5))
        l2 = ic.length_scale(trap(2, 2.0))
        assert l1 / l2 == pytest.approx(4 ** (2 / 3), rel=1e-10)


class TestEquilibrium:
    def test_two_ions_analytic(self):
        # u = +-(1/4)^(1/3) balances trap and Coulomb force exactly
        sol = ic.solve_equilibrium(trap(2, 1.0))
        expected = 0.25 ** (1 / 3)
        assert sol.positions == pytest.approx([-expected, expected], abs=1e-10)

    def test_three_ions_analytic(self):
        sol = ic.solve_equilibrium(trap(3, 1.0))
        expected = 1.25 ** (1 / 3)
        assert sol.positions[0] == pytest.approx(-expected, abs=1e-9)
        assert sol.positions[1] == pytest.approx(0.0, abs=1e-12)
        assert sol.positions[2] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_against_brute_force_minimizer(self, n):
        sol = ic.solve_equilibrium(trap(n, 1.0))
        x0 = np.linspace(-1, 1, n) * 0.6 * n**0.56
        res = minimize(_potential, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14,
                                "maxiter": 40000, "maxfev": 40000})
        brute = np.sort(res.x)
        assert np.max(np.abs(sol.positions - brute)) < 1e-6

    def test_positions_sorted_and_symmetric(self):
        sol = ic.solve_equilibrium(trap(9, 1.0))
        assert np.all(np.diff(sol.positions) > 0)
        assert sol.positions == pytest.approx(-sol.positions[::-1], abs=1e-12)

    def test_single_ion_at_origin(self):
        sol = ic.solve_equilibrium(trap(1, 1.0))
        assert sol.positions == pytest.approx([0.0])

    def test_positions_m_uses_length_scale(self):
        t = trap(3, 0.7)
        sol = ic.solve_equilibrium(t)
        assert sol.positions_m == pytest.approx(
            sol.positions * ic.length_scale(t))

    def test_nonconvergence_reports_residual(self):
        with pytest.raises(NonConvergence):
            ic.solve_equilibrium(trap(30, 1.0), max_iter=1)


class TestTransverseModes:
    def test_com_mode_is_transverse_frequency(self):
        for n in (2, 8, 10, 24):
            t = trap(n, 0.1)
            sol = ic.solve_chain(t)
            assert abs(sol.mode_freqs[0] - t.omega_x) < 1e-9 * t.omega_x
            com = sol.mode_matrix[:, 0]
            assert com == pytest.approx(np.full(n, 1 / np.sqrt(n)), abs=1e-9)

    def test_frequencies_sorted_descending(self):
        sol = ic.solve_chain(trap(7, 0.8))
        assert np.all(np.diff(sol.mode_freqs) < 0)

    def test_modes_orthonormal(self):
        sol = ic.solve_chain(trap(6, 0.9))
        b = sol.mode_matrix
        assert b.T @ b == pytest.approx(np.eye(6), abs=1e-12)

    def test_eigensystem_solves_hessian(self):
        # K b_m = (w_m / w_z)^2 b_m with the analytic transverse Hessian
        t = trap(5, 0.9)
        sol = ic.solve_chain(t)
        u = sol.positions
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, np.inf)
        inv3 = 1.0 / np.abs(d) ** 3
        k = inv3.copy()
        np.fill_diagonal(k, (t.omega_x / t.omega_z) ** 2
                         - np.sum(inv3, axis=1))
        for m in range(5):
            lhs = k @ sol.mode_matrix[:, m]
            rhs = (sol.mode_freqs[m] / t.omega_z) ** 2 * sol.mode_matrix[:, m]
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_axis_selects_trap_frequency(self):
        t = trap(4, 0.5)
        eq = ic.solve_equilibrium(t)
        sx = ic.transverse_phonon_modes(t, eq, axis="x")
        sy = ic.transverse_phonon_modes(t, eq, axis="y")
        assert sx.mode_freqs[0] == pytest.approx(t.omega_x, rel=1e-12)
        assert sy.mode_freqs[0] == pytest.approx(t.omega_y, rel=1e-12)

    def test_rejects_non_equilibrium_positions(self):
        t = trap(4, 0.5)
        eq = ic.solve_equilibrium(t)
        bad = ic.ChainSolution(positions=eq.positions * 1.5,
                               length_scale=eq.length_scale)
        with pytest.raises(ValueError):
            ic.transverse_phonon_modes(t, bad)

    def test_unstable_chain_raises(self):
        t = trap(10, 1.2, wx_mhz=1.3, wy_mhz=1.25)
        eq = ic.solve_equilibrium(t)
        with pytest.raises(UnstableChain):
            ic.transverse_phonon_modes(t, eq, axis="y")

    def test_single_ion_mode(self):
        sol = ic.solve_chain(trap(1, 0.5))
        assert sol.mode_freqs == pytest.approx([2 * np.pi * 6e6], rel=1e-12)

    def test_to_dict_round_trips_modes(self):
        sol = ic.solve_chain(trap(3, 0.5))
        d = sol.to_dict()
        assert np.array(d["mode_freqs_rad_s"]) == pytest.approx(sol.mode_freqs)
        assert np.array(d["mode_matrix"]).shape == (3, 3)


class TestStability:
    def test_known_stable_and_unstable_points(self):
        # the N=10 zig-zag boundary sits near omega_z = 2 pi * 1.088 MHz
        # for the softer (5 MHz) transverse axis
        assert ic.is_linear_stable(trap(10, 1.0))[0]
        assert not ic.is_linear_stable(trap(10, 1.2))[0]

    def test_margin_sign_matches_verdict(self):
        ok, margin = ic.is_linear_stable(trap(10, 1.0))
        assert ok and margin > 0
        ok, margin = ic.is_linear_stable(trap(10, 1.2))
        assert not ok and margin <= 0

    def test_single_ion_always_stable(self):
        ok, _ = ic.is_linear_stable(trap(1, 1.0))
        assert ok

    def test_max_stable_axial_frequency_brackets_boundary(self):
        t = trap(10, 0.5)
        wz = max_stable_axial_frequency(t, 10)
        assert ic.is_linear_stable(t.with_(omega_z=wz))[0]
        assert not ic.is_linear_stable(t.with_(omega_z=wz * 1.001))[0]
        assert wz / (2 * np.pi * 1e6) == pytest.approx(1.0879, abs=2e-3)

    def test_max_stable_safety_backs_off(self):
        t = trap(10, 0.5)
        assert max_stable_axial_frequency(t, 10, safety=1.1) == pytest.approx(
            max_stable_axial_frequency(t, 10) / 1.1, rel=1e-6)

    def test_boundary_decreases_with_ion_number(self):
        t = trap(8, 0.5)
        wz8 = max_stable_axial_frequency(t, 8)
        wz16 = max_stable_axial_frequency(t, 16)
        assert wz16 < wz8


class TestChooseAxialFrequency:
    """The bisection that picks omega_z for omega_z_mhz = auto."""

    def test_no_stable_point_raises(self):
        # 20 ions zig-zag already at the 10 kHz bisection floor when both
        # transverse frequencies are 40 kHz
        t = trap(20, 0.02, wx_mhz=0.04, wy_mhz=0.04)
        with pytest.raises(NoStablePoint):
            max_stable_axial_frequency(t, 20)
