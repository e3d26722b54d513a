import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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

    def test_two_mode_r_column_gives_one_trace_per_row(self):
        rng = np.random.default_rng(6)
        eta = rng.uniform(0.02, 0.06, size=(6, 2))
        mode_freqs = np.array([2 * np.pi * 6e6, 2 * np.pi * 5.8e6])
        t = np.linspace(0, 3e-4, 50)
        rs = np.linspace(0.999, 1.002, 7)
        args = (eta, 2 * np.pi * 1e5, mode_freqs, 2 * np.pi * 6.05e6, t)
        rows = lk.leakage_norm_two_modes(*args, r=rs[:, None])
        assert np.array_equal(rows, [lk.leakage_norm_two_modes(*args, r=r)
                                     for r in rs])


# elements of one r x times array of the reference scan: its chunks of grid
# values stay at a few hundred kB, whatever the trace length
REF_SCAN_SIZE = 2**16


def brute_costs(e_sim, model_fn, grid):
    """sum((model_fn(r) - e_sim)^2) at every r of grid, a chunk of grid
    values at a time: model_fn maps a column of r values to one model trace
    per row.  The brute scan the closed form replaced, kept as its
    reference."""
    rows = max(1, REF_SCAN_SIZE // len(e_sim))
    return np.concatenate([
        np.sum((model_fn(grid[k:k + rows, None]) - e_sim) ** 2, axis=-1)
        for k in range(0, len(grid), rows)])


def refine(e_sim, model_fn, grid, k):
    """The bounded refine of leakage._fit_r around grid[k]: r and its
    residual."""
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(
        lambda r: float(np.sum((model_fn(r) - e_sim) ** 2)),
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
        method="bounded", options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def loop_fit_r(e_sim, model_fn, r_bounds):
    """r by the scan one grid value at a time, with the scalar cost."""
    grid = np.linspace(r_bounds[0], r_bounds[1], 4001)
    costs = [float(np.sum((model_fn(r) - e_sim) ** 2)) for r in grid]
    return costs, refine(e_sim, model_fn, grid, int(np.argmin(costs)))[0]


@pytest.fixture
def traced(monkeypatch):
    """Runs a fit, recording the closed-form costs with their error bound
    and the bracket handed to the refine."""
    seen = {}
    scan, minimize = lk._scan_costs, lk._bounded_brent

    def scan_spy(*args):
        seen["scan"] = scan(*args)
        return seen["scan"]

    def minimize_spy(fun, lo, hi, **kwargs):
        seen["bracket"] = (lo, hi)
        return minimize(fun, lo, hi, **kwargs)

    monkeypatch.setattr(lk, "_scan_costs", scan_spy)
    monkeypatch.setattr(lk, "_bounded_brent", minimize_spy)

    def run(fit):
        seen.clear()
        try:
            out = fit()
        except lk.FitFailure as e:
            out = e
        return out, dict(seen)
    return run


def assert_matches_brute(traced, fit, e_sim, model_fn,
                         r_bounds=(0.999, 1.002)) -> int:
    """The closed-form scan stays within its error bound of the brute
    costs, picks the brute argmin and gives the brute scan's r, or fails
    where its residual exceeds half the trace power; returns the argmin."""
    grid = np.linspace(r_bounds[0], r_bounds[1], 4001)
    costs = brute_costs(e_sim, model_fn, grid)
    k = int(np.argmin(costs))
    got, seen = traced(fit)
    approx, err = seen["scan"]
    assert np.all(np.abs(approx - costs) <= err)
    assert seen["bracket"] == (grid[max(k - 1, 0)], grid[min(k + 1, 4000)])
    r, residual = refine(e_sim, model_fn, grid, k)
    if residual > 0.5 * np.sum(e_sim**2):
        assert isinstance(got, lk.FitFailure)
    else:
        assert got.r == r
    return k


def synthetic_fit(modes, periods=4.0, n=1500, seed=0, noise=0.02,
                  r_true=1.0007, r_bounds=(0.999, 1.002), dt=None):
    """A noisy synthetic trace of the one- or two-mode envelope at r_true,
    its fit and the model the fit uses (scale 2).  dt, when given,
    replaces the step that periods sets."""
    rng = np.random.default_rng(seed)
    eta, rabi = 0.055, 2 * np.pi * 1.1e5
    w_eff, w_c = 2 * np.pi * 6.01e6, 2 * np.pi * 6e6
    t_max = periods * 2 * np.pi / (w_eff - w_c) if dt is None \
        else (n - 1) * dt
    times = np.linspace(0.0, t_max, n)
    etas = rng.uniform(0.03, 0.06, size=(8, 2))
    mode_freqs = np.array([w_c, 2 * np.pi * 5.85e6])
    if modes == 1:
        def model(r):
            return 2.0 * lk.leakage_norm_single(eta, rabi, r * w_eff - w_c,
                                                times)
    else:
        def model(r):
            return 2.0 * lk.leakage_norm_two_modes(etas, rabi, mode_freqs,
                                                   w_eff, times, r=r)
    e = model(r_true) * (1 + noise * rng.normal(size=n))

    def fit():
        if modes == 1:
            return lk.fit_effective_frequency(times, e, eta, rabi, w_eff,
                                              w_c, r_bounds, scale=2.0)
        return lk.fit_effective_frequency_two_modes(
            times, e, etas, rabi, mode_freqs, w_eff, r_bounds, scale=2.0)
    return fit, e, model


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

    def test_model_is_the_scaled_envelope(self):
        times, e, eta, rabi, w_eff, w_c = self.synth(1.0004, scale=5.0)
        fit = lk.fit_effective_frequency(times, e, eta, rabi, w_eff, w_c,
                                         scale=5.0)
        for r in (1.0, fit.r):
            assert np.array_equal(fit.model(r), 5 * lk.leakage_norm_single(
                eta, rabi, r * w_eff - w_c, times))
        assert fit.power == np.sum(e ** 2)

    def test_broadcast_scan_matches_scalar_loop(self):
        # 1500 times: chunks of 43 grid values, the last one short
        times, e, eta, rabi, w_eff, w_c = self.synth(1.0007, scale=2.0)
        noisy = e * (1 + 0.01 * np.random.default_rng(3).normal(size=len(e)))
        mode_freqs = np.array([w_c, 2 * np.pi * 5.85e6])
        etas = np.random.default_rng(4).uniform(0.03, 0.06, size=(8, 2))
        fits = [
            (lambda r: 2.0 * lk.leakage_norm_single(eta, rabi, r * w_eff - w_c,
                                                    times),
             lambda: lk.fit_effective_frequency(times, noisy, eta, rabi, w_eff,
                                                w_c, scale=2.0)),
            (lambda r: 2.0 * lk.leakage_norm_two_modes(etas, rabi, mode_freqs,
                                                       w_eff, times, r=r),
             lambda: lk.fit_effective_frequency_two_modes(
                 times, noisy, etas, rabi, mode_freqs, w_eff, scale=2.0))]
        assert 4001 % (REF_SCAN_SIZE // len(times)) != 0
        grid = np.linspace(0.999, 1.002, 4001)
        for model, fit in fits:
            costs, r = loop_fit_r(noisy, model, (0.999, 1.002))
            scan = brute_costs(noisy, model, grid)
            # a scalar r and a column of them square the detuning alike
            assert np.array_equal(scan, costs)
            assert fit().r == r

    def test_scalar_and_column_r_bit_identical(self):
        # grid[269] of the scan: there C pow rounded the scalar detuning's
        # square one ulp away from the column's x * x
        times, _, eta, rabi, w_eff, w_c = self.synth(1.0007)
        r = np.linspace(0.999, 1.002, 4001)[269:270]
        mode_freqs = np.array([w_c, 2 * np.pi * 5.85e6])
        etas = np.random.default_rng(4).uniform(0.03, 0.06, size=(8, 2))
        assert np.array_equal(
            lk.leakage_norm_single(eta, rabi, r[0] * w_eff - w_c, times),
            lk.leakage_norm_single(eta, rabi, r[:, None] * w_eff - w_c,
                                   times)[0])
        assert np.array_equal(
            lk.leakage_norm_two_modes(etas, rabi, mode_freqs, w_eff, times,
                                      r=r[0]),
            lk.leakage_norm_two_modes(etas, rabi, mode_freqs, w_eff, times,
                                      r=r[:, None])[0])

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


# the leakage runs test_acceptance caches, called exactly as it calls them
ACCEPTANCE_RUNS = [((10, 0.4), {}), ((10, 0.8), {}), ((10, 0.2), {}),
                   ((8, 0.2), {}), ((10, 0.2), {"s": 2}),
                   ((10, 0.2), {"s": 5}), ((10, 0.2), {"modes": 2})]


class TestClosedFormScan:
    @pytest.mark.parametrize("args, kwargs", ACCEPTANCE_RUNS)
    def test_acceptance_traces(self, traced, args, kwargs):
        from test_acceptance import leakage_run
        run = leakage_run(*args, **kwargs)
        trap, sol, system = run["trap"], run["sol"], run["system"]
        s = kwargs.get("s", 1)
        if kwargs.get("modes", 1) == 1:
            def fit():
                return lk.fit_effective_frequency(
                    run["times"], run["e_meas"], run["eta_1c"], trap.rabi,
                    trap.omega_eff, sol.mode_freqs[0], scale=s)
        else:
            def fit():
                return lk.fit_effective_frequency_two_modes(
                    run["times"], run["e_meas"], system.eta, trap.rabi,
                    system.mode_freqs, trap.omega_eff, scale=s)
        assert_matches_brute(traced, fit, run["e_meas"], run["fit"].model)
        assert traced(fit)[0].r == run["fit"].r

    @pytest.mark.parametrize("modes", [1, 2])
    def test_noisy_synthetic_traces(self, traced, modes):
        for seed in range(3):
            fit, e, model = synthetic_fit(modes, periods=4 + seed, seed=seed,
                                          r_true=1.0002 + 4e-4 * seed)
            assert_matches_brute(traced, fit, e, model)

    @pytest.mark.parametrize("periods", [1e3, 1e5, 1e6])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_long_traces(self, traced, modes, periods):
        # the phases reach 1e7 rad, so rounding, not the grid, sets the
        # bound; past 1e3 periods the lobes are narrower than a grid step,
        # and the refine fails as the brute scan's would
        fit, e, model = synthetic_fit(modes, periods=periods, n=600)
        assert_matches_brute(traced, fit, e, model)

    @pytest.mark.parametrize("turns", [0.5, 1.0])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_slope_times_step_on_a_multiple_of_two_pi(self, traced, modes,
                                                      turns):
        # the moving detuning advances by delta per grid step; a time step
        # of 2 pi turns / delta puts delta * dt (turns = 1) or 2 delta * dt
        # (turns = 1/2) on 2 pi, where Dirichlet sums of cosines divide by 0
        delta = 2 * np.pi * 6.01e6 * 0.003 / 4000
        fit, e, model = synthetic_fit(modes, n=200,
                                      dt=2 * np.pi * turns / delta)
        assert_matches_brute(traced, fit, e, model)

    @pytest.mark.parametrize("edge", [0, 4000])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_minimum_on_the_grid_edge(self, traced, modes, edge):
        r_true = 1.0007
        lo = r_true + 2e-5 if edge == 0 else r_true - 2e-5 - 0.003
        fit, e, model = synthetic_fit(modes, n=600, noise=0.0, r_true=r_true,
                                      r_bounds=(lo, lo + 0.003))
        assert assert_matches_brute(traced, fit, e, model,
                                    (lo, lo + 0.003)) == edge

    @pytest.mark.parametrize("modes", [1, 2])
    def test_ties_go_to_the_brute_argmin(self, traced, modes):
        # halfway between the envelopes at two neighbouring grid values,
        # both cost the same up to rounding: the closed form alone cannot
        # tell them apart, the exact re-score must
        grid = np.linspace(0.999, 1.002, 4001)
        fit, e, model = synthetic_fit(modes, n=600)
        for k in range(2330, 2340):
            # the fit reads e, so refill it in place
            e[:] = 0.5 * (model(grid[k]) + model(grid[k + 1]))
            assert assert_matches_brute(traced, fit, e, model) in (k, k + 1)

    def test_whole_grid_rescored(self, traced):
        # a hundredth of a period: the envelope is near zero and cancels in
        # the expansion, so the bound admits every grid value, and the
        # exact re-score runs over the whole grid in several chunks
        fit, e, model = synthetic_fit(1, periods=0.01, n=300, noise=0.0)
        assert 4001 % (lk._RESCORE_SIZE // 300) != 0
        assert_matches_brute(traced, fit, e, model)
        approx, err = traced(fit)[1]["scan"]
        assert np.all(approx - err <= np.min(approx + err))

    @pytest.mark.parametrize("t_max", [1e-2, 1e2])
    def test_bound_holds_with_exactly_affine_frequencies(self, t_max):
        # frequencies on a grid of binary fractions are exactly affine, so
        # the whole bound is the rounding of the phases and the FFTs
        m, n = 4001, 300
        times = np.linspace(0.0, t_max, n)
        f = 1e4 + np.arange(m) * 2.0**-3
        c = 1e-3 * (1.0 + np.arange(m) / m)
        terms = [(c, 0.0), (-c, f), (0.5 * c, 3.0e3), (0.2, 2 * f)]
        e = np.random.default_rng(8).normal(size=n) * 1e-3
        model = sum(np.asarray(ca)[..., None]
                    * np.cos(np.asarray(fa)[..., None] * times)
                    for ca, fa in terms)
        costs = np.sum((model - e) ** 2, axis=-1)
        approx, err = lk._scan_costs(times, e, terms, m)
        assert np.all(np.abs(approx - costs) <= err)

    def test_no_finite_cost_is_a_fit_failure(self):
        fit, e, _ = synthetic_fit(1, n=50)
        e[3] = np.nan
        with pytest.raises(lk.FitFailure, match="no finite"):
            fit()


def assert_brent_matches_scipy(func, lo, hi):
    """_bounded_brent gives scipy's bounded minimize_scalar bit for bit,
    at the fit's xatol: the same x, objective and evaluation count."""
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    x, fun, nfev = lk._bounded_brent(func, lo, hi, xatol=1e-12)
    assert (x, fun, nfev) == (res.x, res.fun, res.nfev)
    assert np.signbit(x) == np.signbit(res.x)


# brackets as wide as a whole r grid down to a hundredth of a grid step
brackets = st.tuples(st.floats(-10.0, 10.0), st.floats(1e-9, 20.0)).map(
    lambda b: (b[0], b[0] + b[1]))


class TestBoundedBrent:
    @given(bracket=brackets, centre=st.floats(-0.5, 1.5),
           scale=st.floats(1e-6, 1e6), offset=st.floats(-1e3, 1e3),
           power=st.sampled_from([2, 4]))
    def test_quadratics_and_quartics(self, bracket, centre, scale, offset,
                                     power):
        # centre places the minimum as a share of the bracket: inside it,
        # or beyond either end, where the minimiser closes in on that end
        lo, hi = bracket
        x0 = lo + centre * (hi - lo)
        assert_brent_matches_scipy(
            lambda x: scale * (x - x0) ** power + offset, lo, hi)

    @given(bracket=brackets, slope=st.sampled_from([-1.0, 1.0]),
           scale=st.floats(1e-6, 1e6))
    def test_minimum_at_a_bracket_end(self, bracket, slope, scale):
        # monotone objectives: the minimum is the left end for a rising
        # slope and the right end for a falling one
        lo, hi = bracket
        assert_brent_matches_scipy(lambda x: slope * scale * x, lo, hi)
        x = lk._bounded_brent(lambda x: slope * scale * x, lo, hi,
                              xatol=1e-12)[0]
        # within the closing tolerance 2 tol1 of that end
        end = lo if slope > 0 else hi
        tol1 = np.sqrt(2.2e-16) * max(abs(lo), abs(hi)) + 1e-12 / 3.0
        assert abs(x - end) <= 2.0 * tol1

    @given(bracket=brackets, value=st.floats(-1e3, 1e3))
    def test_constant_objective(self, bracket, value):
        # every comparison ties, so only golden-section steps run
        lo, hi = bracket
        assert_brent_matches_scipy(lambda x: value, lo, hi)

    @settings(max_examples=30)
    @given(modes=st.sampled_from([1, 2]), seed=st.integers(0, 2**16),
           r_true=st.floats(0.9992, 1.0018), noise=st.floats(0.0, 0.05),
           k=st.integers(0, 4000))
    def test_fit_cost_on_noisy_synthetic_traces(self, modes, seed, r_true,
                                                noise, k):
        # the real _fit_r cost, on the bracket around any grid value
        _, e, model = synthetic_fit(modes, n=600, seed=seed, noise=noise,
                                    r_true=r_true)
        grid = np.linspace(0.999, 1.002, 4001)
        assert_brent_matches_scipy(
            lambda r: float(np.sum((model(r) - e) ** 2)),
            grid[max(k - 1, 0)], grid[min(k + 1, 4000)])


class TestUniformTimes:
    @pytest.mark.parametrize("t0, t1, n", [
        (0.0, 4e-4, 3000), (0.0, 1.0, 2), (1e-3, 7.3e-3, 997),
        (-2.5, 3.1, 1001), (0.0, 123.456, 100003)])
    def test_linspace_grids_pass(self, t0, t1, n):
        lk._check_uniform(np.linspace(t0, t1, n))

    @pytest.mark.parametrize("modes", [1, 2])
    def test_non_uniform_times_refused(self, modes):
        times = np.linspace(0.0, 4e-4, 300)
        bad = times.copy()
        bad[100] += 1e-9 * times[1]
        dev = np.max(np.abs(np.diff(bad) - times[-1] / 299))
        eta = np.full((6, 2), 0.05)
        rabi, w_eff = 2 * np.pi * 1e5, 2 * np.pi * 6.01e6
        freqs = np.array([2 * np.pi * 6e6, 2 * np.pi * 5.85e6])
        e = lk.leakage_norm_two_modes(eta, rabi, freqs, w_eff, times)
        with pytest.raises(ValueError, match="uniform") as info:
            if modes == 1:
                lk.fit_effective_frequency(bad, e, 0.05, rabi, w_eff,
                                           freqs[0])
            else:
                lk.fit_effective_frequency_two_modes(bad, e, eta, rabi,
                                                     freqs, w_eff)
        assert f"{dev:.3e}" in str(info.value)


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
        assert np.array_equal(out.J, j)
        assert out.J_prime == pytest.approx(j, rel=1e-12)
        assert out.factor_summary == pytest.approx(1.0, rel=1e-12)

    def test_shift_applies_to_listed_modes_only(self, setup):
        trap, sol, eta = setup
        r = 1.0005
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, r)
        omega_avg = 0.5 * (1 + r) * trap.omega_eff
        shifted_part = ic.coupling_matrix(
            trap.with_(detuning_mu=float(
                np.sqrt(omega_avg**2 - trap.rabi**2))),
            eta[:, :1], sol.mode_freqs[:1])
        plain_part = ic.coupling_matrix(trap, eta[:, 1:], sol.mode_freqs[1:])
        assert np.array_equal(out.J_prime, shifted_part + plain_part)

    def test_factor_summary_reduces_coupling_above_resonance(self, setup):
        # r > 1 pushes the averaged effective frequency away from the
        # near-resonant mode, weakening the couplings on average
        trap, sol, eta = setup
        out = lk.renormalized_couplings(trap, eta, sol.mode_freqs, 1.0005)
        assert out.factor_summary < 1.0
