import numpy as np
import pytest
from scipy.integrate import quad

import ionchain as ic
from ionchain import leakage as lk


def complex_quad(f, a, b):
    re = quad(lambda x: f(x).real, a, b, limit=2000, epsabs=1e-16)[0]
    im = quad(lambda x: f(x).imag, a, b, limit=2000, epsabs=1e-16)[0]
    return re + 1j * im


class TestSignFactor:
    def test_values(self):
        assert lk.sign_factor(0) == -1
        assert lk.sign_factor(1) == 1
        assert lk.sign_factor(2) == -1


class TestDysonAlpha:
    def test_against_quadrature_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            w_eff = rng.uniform(1e5, 1e7)
            w_m = rng.uniform(1e5, 1e7)
            p, q = rng.integers(0, 2, size=2)
            t = rng.uniform(1e-7, 1e-4)
            got = lk.dyson_alpha(w_eff, w_m, int(p), int(q), t)
            phi = lk.sign_factor(int(q)) * w_eff + lk.sign_factor(int(p)) * w_m
            ref = complex_quad(lambda x: np.exp(1j * phi * x), 0.0, t)
            assert got == pytest.approx(ref, abs=1e-9 * t + 1e-15)

    def test_secular_limit(self):
        # f_q w_eff + f_p w_m = 0 integrates to exactly t
        w = 2 * np.pi * 3.6e6
        t = 2.4e-5
        got = lk.dyson_alpha(w, w, 1, 0, t)   # +w - w = 0
        assert got == pytest.approx(t, rel=1e-10)

    def test_near_secular_continuity(self):
        w_eff = 2 * np.pi * 3.0e6
        t = 1e-5
        # straddle the series-fallback threshold |phi t| = 1e-6
        for eps in (0.9e-1, 1.1e-1):
            w_m = w_eff - eps / t
            got = lk.dyson_alpha(w_eff, w_m, 0, 1, t)
            phi = w_eff - w_m
            ref = complex_quad(lambda x: np.exp(1j * phi * x), 0.0, t)
            assert got == pytest.approx(ref, abs=1e-12 * t)


class TestDysonBeta:
    def test_against_quadrature_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            w_eff = rng.uniform(1e6, 1e7)
            w_l = rng.uniform(1e6, 1e7)
            w_m = rng.uniform(1e6, 1e7)
            r, s, p, q = (int(v) for v in rng.integers(0, 2, size=4))
            t = rng.uniform(1e-7, 4e-6)
            got = lk.dyson_beta(w_eff, w_l, w_m, r, s, p, q, t)
            phi2 = lk.sign_factor(s) * w_eff + lk.sign_factor(r) * w_l

            def integrand(x):
                return (lk.dyson_alpha(w_eff, w_m, p, q, x)
                        * np.exp(1j * phi2 * x))

            ref = complex_quad(integrand, 0.0, t)
            assert got == pytest.approx(ref, abs=1e-9 * t * t + 1e-18)

    def test_secular_case_quadratic_in_time(self):
        # phi1 = 0 and phi2 = 0: beta = t^2 / 2 exactly
        w = 2 * np.pi * 2.0e6
        t = 3.0e-6
        got = lk.dyson_beta(w, w, w, 1, 0, 1, 0, t)
        assert got == pytest.approx(t * t / 2.0, rel=1e-9)

    def test_same_mode_secular_against_quadrature(self):
        # l = m with cancelling signs: the partially secular branch
        w_eff = 2 * np.pi * 4.0e6
        w_m = 2 * np.pi * 3.9e6
        t = 1.5e-5
        for (r, s, p, q) in [(1, 0, 0, 1), (0, 1, 1, 0)]:
            got = lk.dyson_beta(w_eff, w_m, w_m, r, s, p, q, t)
            phi2 = lk.sign_factor(s) * w_eff + lk.sign_factor(r) * w_m

            def integrand(x):
                return (lk.dyson_alpha(w_eff, w_m, p, q, x)
                        * np.exp(1j * phi2 * x))

            ref = complex_quad(integrand, 0.0, t)
            assert got == pytest.approx(ref, abs=1e-10 * t * t)


class TestLeakageNorms:
    def test_zeros_and_maxima(self):
        eta, rabi, delta = 0.06, 2 * np.pi * 1e5, 9.3e4
        k = np.arange(6)
        zeros = 2 * np.pi * k / delta
        assert lk.leakage_norm_single(eta, rabi, delta, zeros) == \
            pytest.approx(np.zeros(6), abs=1e-12)
        maxima = (2 * k + 1) * np.pi / delta
        amp = rabi**2 * eta**2 / delta**2
        assert lk.leakage_norm_single(eta, rabi, delta, maxima) == \
            pytest.approx(np.full(6, amp), rel=1e-12)

    def test_two_mode_reduces_to_single(self):
        n = 8
        eta = np.zeros((n, 2))
        eta[:, 0] = 0.05
        rabi = 2 * np.pi * 1.2e5
        w_eff = 2 * np.pi * 6.02e6
        mode_freqs = np.array([2 * np.pi * 6e6, 2 * np.pi * 5.9e6])
        t = np.linspace(0, 4e-4, 200)
        two = lk.leakage_norm_two_modes(eta, rabi, mode_freqs, w_eff, t)
        one = lk.leakage_norm_single(0.05, rabi, w_eff - mode_freqs[0], t)
        assert two == pytest.approx(one, abs=1e-14)

    def test_two_mode_shift_applies_to_first_mode_only(self):
        rng = np.random.default_rng(5)
        eta = rng.uniform(0.02, 0.06, size=(6, 2))
        rabi = 2 * np.pi * 1e5
        w_eff = 2 * np.pi * 6.05e6
        mode_freqs = np.array([2 * np.pi * 6e6, 2 * np.pi * 5.8e6])
        t = np.linspace(0, 3e-4, 50)
        r = 1.0004
        shifted = lk.leakage_norm_two_modes(eta, rabi, mode_freqs, w_eff, t,
                                            r=r)
        # shifting the first mode's frequency by the same amount instead
        # must give an identical trace except for the cross term's
        # difference frequency, so compare against a direct reimplementation
        d1 = r * w_eff - mode_freqs[0]
        d2 = w_eff - mode_freqs[1]
        e1, e2 = eta[:, 0], eta[:, 1]
        expected = rabi**2 / (2 * 6) * (
            np.sum(e1**2) / d1**2 * (1 - np.cos(d1 * t))
            + np.sum(e1 * e2) / (d1 * d2)
            * (1 - np.cos(d1 * t) - np.cos(d2 * t)
               + np.cos((mode_freqs[0] - mode_freqs[1]) * t))
            + np.sum(e2**2) / d2**2 * (1 - np.cos(d2 * t)))
        assert shifted == pytest.approx(expected, rel=1e-12)

    def test_higher_subspace_scaling(self):
        eta, rabi = 0.05, 2 * np.pi * 1e5
        w_eff, w_c = 2 * np.pi * 6.01e6, 2 * np.pi * 6e6
        t = np.linspace(0, 1e-4, 30)
        base = lk.higher_subspace_scaling(1, eta, rabi, w_eff, w_c, 1.0, t)
        five = lk.higher_subspace_scaling(5, eta, rabi, w_eff, w_c, 1.0, t)
        assert five == pytest.approx(5 * base, rel=1e-12)
        with pytest.raises(ValueError):
            lk.higher_subspace_scaling(0, eta, rabi, w_eff, w_c, 1.0, t)


class TestFrequencyFit:
    def synth(self, r_true, eta=0.055, rabi=2 * np.pi * 1.1e5,
              w_eff=2 * np.pi * 6.01e6, w_c=2 * np.pi * 6e6, scale=1.0):
        delta = r_true * w_eff - w_c
        times = np.linspace(0, 6 * 2 * np.pi / (w_eff - w_c), 1500)
        e = scale * lk.leakage_norm_single(eta, rabi, delta, times)
        return times, e, eta, rabi, w_eff, w_c

    def test_recovers_synthetic_r(self):
        for r_true in (0.9995, 1.0, 1.0003, 1.0012):
            times, e, eta, rabi, w_eff, w_c = self.synth(r_true)
            fit = lk.fit_effective_frequency(times, e, eta, rabi, w_eff, w_c)
            assert fit.r == pytest.approx(r_true, abs=1e-8)
            assert fit.residual < 1e-10 * np.sum(e ** 2)

    def test_scale_factor_used(self):
        times, e, eta, rabi, w_eff, w_c = self.synth(1.0004, scale=3.0)
        fit = lk.fit_effective_frequency(times, e, eta, rabi, w_eff, w_c,
                                         scale=3.0)
        assert fit.r == pytest.approx(1.0004, abs=1e-8)

    def test_noise_tolerance(self):
        times, e, eta, rabi, w_eff, w_c = self.synth(1.0006)
        rng = np.random.default_rng(7)
        noisy = e * (1 + 0.02 * rng.normal(size=len(e)))
        fit = lk.fit_effective_frequency(times, noisy, eta, rabi, w_eff, w_c)
        assert fit.r == pytest.approx(1.0006, abs=1e-5)

    def test_fit_failure_on_unrelated_trace(self):
        times, e, eta, rabi, w_eff, w_c = self.synth(1.0)
        with pytest.raises(lk.FitFailure):
            lk.fit_effective_frequency(times, np.full_like(e, np.max(e) * 50),
                                       eta, rabi, w_eff, w_c)

    def test_two_mode_recovers_synthetic_r(self):
        rng = np.random.default_rng(11)
        eta = rng.uniform(0.03, 0.06, size=(8, 2))
        rabi = 2 * np.pi * 1e5
        w_eff = 2 * np.pi * 6.01e6
        mode_freqs = np.array([2 * np.pi * 6e6, 2 * np.pi * 5.85e6])
        r_true = 1.0005
        times = np.linspace(0, 5 * 2 * np.pi / (w_eff - mode_freqs[0]), 2000)
        e = lk.leakage_norm_two_modes(eta, rabi, mode_freqs, w_eff, times,
                                      r=r_true)
        fit = lk.fit_effective_frequency_two_modes(times, e, eta, rabi,
                                                   mode_freqs, w_eff)
        assert fit.r == pytest.approx(r_true, abs=1e-8)


@pytest.fixture(scope="module")
def setup():
    trap = ic.reference_trap(6, 2 * np.pi * 1.0e6)
    sol = ic.solve_chain(trap)
    res = ic.detuning_for_alpha(trap, sol, 0.3)
    trap = trap.with_(detuning_mu=res.mu)
    eta = ic.lamb_dicke(trap, sol)
    return trap, sol, eta


class TestRenormalizedCouplings:
    def test_identity_at_r_one(self, setup):
        trap, sol, eta = setup
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, 1.0)
        j = ic.coupling_matrix(trap, eta, sol.mode_freqs)
        assert out.J_prime == pytest.approx(j, rel=1e-12)
        assert out.factor_summary == pytest.approx(1.0, rel=1e-12)
        assert not out.r_below_one

    def test_shift_applies_to_listed_modes_only(self, setup):
        trap, sol, eta = setup
        r = 1.0005
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, r,
                                        shifted_modes=(0,))
        omega_avg = 0.5 * (1 + r) * trap.omega_eff
        shifted_part = ic.coupling_matrix(
            trap.with_(detuning_mu=float(
                np.sqrt(omega_avg**2 - trap.rabi**2))),
            eta, sol.mode_freqs, mode_subset=[0])
        plain_part = ic.coupling_matrix(trap, eta, sol.mode_freqs,
                                        mode_subset=list(range(1, 6)))
        assert out.J_prime == pytest.approx(shifted_part + plain_part,
                                            rel=1e-10)

    def test_no_shifted_modes_gives_bare_couplings(self, setup):
        trap, sol, eta = setup
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, 1.3,
                                        shifted_modes=())
        j = ic.coupling_matrix(trap, eta, sol.mode_freqs)
        assert out.J_prime == pytest.approx(j, rel=1e-12)

    def test_r_below_one_flagged(self, setup):
        trap, sol, eta = setup
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, 0.9995)
        assert out.r_below_one

    def test_factor_summary_reduces_coupling_above_resonance(self, setup):
        # r > 1 pushes the averaged effective frequency away from the
        # near-resonant mode, weakening the couplings on average
        trap, sol, eta = setup
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, 1.0005)
        assert out.factor_summary < 1.0
