"""Dyson-series coefficients, analytic leakage norms, effective-frequency
fitting and coupling renormalisation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import TrapConfig
from .couplings import coupling_matrix


class FitFailure(RuntimeError):
    pass


# rounding of the closed-form scan costs per radian of phase, relative to
# the magnitude of their terms (see _scan_costs), and the step deviation a
# uniform time grid may show relative to its largest time: np.linspace
# rounds each time within an ulp or two
_SCAN_ROUNDING = 64 * np.finfo(float).eps
_UNIFORM_RTOL = 64 * np.finfo(float).eps

# elements of one r x times array in _fit_r's exact re-score: its chunks of
# grid values stay near 128 kB, in cache, whatever the trace length
_RESCORE_SIZE = 2**14


def sign_factor(k: int) -> int:
    """f_k = (-1)^(k+1): f_0 = -1, f_1 = +1."""
    return (-1) ** (k + 1)


def _g(phi: float, t: float) -> complex:
    """(1 - e^{i phi t}) / phi with a series fallback near phi = 0."""
    x = phi * t
    if abs(x) < 1e-6:
        # (1 - e^{ix})/phi = t * (-i + x/2 + i x^2/6 + ...)
        return t * (-1j + x / 2.0 + 1j * x * x / 6.0 - x**3 / 24.0)
    return (1.0 - np.exp(1j * x)) / phi


def dyson_alpha(omega_eff: float, omega_m: float, p: int, q: int,
                t: float) -> complex:
    """alpha_m(p,q;t) = int_0^t e^{i (f_q w_eff + f_p w_m) tau} dtau.

    Closed form i(1 - e^{i phi t})/phi, phi = f_q w_eff + f_p w_m; the
    secular phi -> 0 limit is the linear-in-t term.
    """
    phi = sign_factor(q) * omega_eff + sign_factor(p) * omega_m
    return 1j * _g(phi, t)


def dyson_beta(omega_eff: float, omega_l: float, omega_m: float,
               r: int, s: int, p: int, q: int, t: float) -> complex:
    """beta_lm(r,s,p,q;t) = int_0^t alpha_m(p,q;tau) e^{i(f_s w_eff + f_r w_l) tau} dtau.

    Closed form (1/phi1) [ g(phi1+phi2, t) - g(phi2, t) ] with
    phi1 = f_q w_eff + f_p w_m and phi2 = f_s w_eff + f_r w_l; the secular
    m = l combinations reduce to the linear-in-t expression automatically.
    """
    phi1 = sign_factor(q) * omega_eff + sign_factor(p) * omega_m
    phi2 = sign_factor(s) * omega_eff + sign_factor(r) * omega_l
    if abs(phi1 * t) < 1e-6:
        # alpha ~ i t e^{i phi1 t / 2}; integrate tau e^{i(phi2+phi1/2)tau}
        phi = phi2 + 0.5 * phi1
        x = phi * t
        if abs(x) < 1e-6:
            return t * t / 2.0 * (1.0 + 2j * x / 3.0)
        e = np.exp(1j * x)
        return (t * e / (1j * phi)) - (e - 1.0) / (1j * phi) ** 2
    return (_g(phi1 + phi2, t) - _g(phi2, t)) / phi1


def leakage_norm_single(eta_1c: float, omega_rabi: float, delta_c: float,
                        t) -> np.ndarray:
    """|| E(t) || = Omega^2 eta_1c^2 (1 - cos(Delta_c t)) / (2 Delta_c^2).

    Delta_c is squared as a product: for a scalar np.float64, ** is C pow,
    which may round one ulp away from the x * x of a column of detunings.
    """
    t = np.asarray(t, dtype=float)
    return (omega_rabi**2 * eta_1c**2 * (1.0 - np.cos(delta_c * t))
            / (2.0 * (delta_c * delta_c)))


def _two_mode_weights(eta: np.ndarray, mode_freqs: np.ndarray,
                      omega_eff: float, r):
    """Detunings d1, d2 and the weights s11, s12, s22 of the two-mode
    envelope; d1 = r * omega_eff - omega_1 moves with r, d2 does not."""
    w1, w2 = mode_freqs
    d1 = r * omega_eff - w1
    d2 = omega_eff - w2
    e1, e2 = eta[:, 0], eta[:, 1]
    return (d1, d2, np.sum(e1**2) / (d1 * d1), np.sum(e1 * e2) / (d1 * d2),
            np.sum(e2**2) / (d2 * d2))


def leakage_norm_two_modes(eta: np.ndarray, omega_rabi: float,
                           mode_freqs: np.ndarray, omega_eff: float,
                           t, r: float = 1.0) -> np.ndarray:
    """Ion-averaged two-mode leakage norm.

    eta holds the two included Lamb-Dicke columns (N x 2); mode_freqs the two
    mode frequencies.  Includes the cross term oscillating at w_1 - w_2.
    As in renormalized_couplings, column 0 is the near-resonant mode r
    shifts: Delta_1 = r * omega_eff - omega_1; the second column keeps the
    bare detuning.  A column of r values gives one trace per row; the
    detunings are squared as products, as in leakage_norm_single.
    """
    t = np.asarray(t, dtype=float)
    d1, d2, s11, s12, s22 = _two_mode_weights(eta, mode_freqs, omega_eff, r)
    c1 = 1.0 - np.cos(d1 * t)
    c2 = 1.0 - np.cos(d2 * t)
    cx = 1.0 - np.cos(d1 * t) - np.cos(d2 * t) \
        + np.cos((mode_freqs[0] - mode_freqs[1]) * t)
    return omega_rabi**2 / (2.0 * len(eta)) * (s11 * c1 + s12 * cx + s22 * c2)


@dataclass
class FrequencyFit:
    r: float
    residual: float
    power: float                # sum of e_sim^2, the trace power
    model: Callable             # r -> the fitted envelope at that r


def _chirp_z(x: np.ndarray, theta: float, m: int) -> np.ndarray:
    """X_j = sum_k x_k exp(i theta j k) for j < m (Bluestein).

    With jk = (j^2 + k^2 - (j - k)^2) / 2 the sum is a convolution of the
    chirped x with the chirp exp(-i theta l^2 / 2), done by FFTs of length
    >= n + m - 1.
    """
    n = len(x)
    size = 1 << (n + m - 2).bit_length()
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * theta * (k * k))
    h = np.zeros(size, dtype=complex)
    h[:m] = chirp[:m].conj()
    h[size - n + 1:] = chirp[n - 1:0:-1].conj()
    y = np.fft.ifft(np.fft.fft(x * chirp[:n], size) * np.fft.fft(h))
    return chirp[:m] * y[:m]


def _scan_costs(times: np.ndarray, e_sim: np.ndarray, terms: list,
                m: int) -> tuple:
    """sum((model - e_sim)^2) at every grid index j < m, in closed form.

    The model is sum_a c_a cos(f_a t); each c_a is a scalar or one value per
    grid index, and each f_a a scalar or m values affine in j.  Expanded,

      cost_j = sum e^2 - 2 sum_a c_a sum_t e_t cos(f_a t)
               + sum_ab c_a c_b / 2
                 * sum_t [cos((f_a - f_b) t) + cos((f_a + f_b) t)],

    and every trigonometric sum whose frequency moves with j is one chirp-z
    transform over the grid; one whose frequency is fixed is one scalar.
    Returns the costs and a bound on their error at each j: the phase the
    transform misses (the frequencies' and times' distance from affine and
    uniform) plus _SCAN_ROUNDING per radian of phase evaluated and per
    sqrt(n + m) of FFT length, both times the sum of the magnitudes of the
    expansion's terms.
    """
    n = len(times)
    t0, dt = times[0], (times[-1] - times[0]) / (n - 1)
    t_max = np.max(np.abs(times))
    t_dev = np.max(np.abs(times - (t0 + dt * np.arange(n))))
    j = np.arange(m)
    ones = np.ones(n)
    sums = {}
    phase = missed = 0.0

    def trig_sum(w, f0, slope, dev):
        """sum_t w_t cos((f0 + slope j) t) for every j."""
        nonlocal phase, missed
        if slope < 0:
            f0, slope = -f0, -slope
        phase = max(phase, (abs(f0) + slope * m) * t_max,
                    0.5 * slope * dt * max(n, m) ** 2)
        missed = max(missed, dev * t_max + slope * m * t_dev)
        key = (w is ones, f0, slope)
        if key not in sums:
            x = w * np.exp(1j * f0 * times)
            sums[key] = np.sum(x).real if slope == 0 else (
                np.exp(1j * slope * t0 * j)
                * _chirp_z(x, slope * dt, m)).real
        return sums[key]

    def affine(f):
        """f0, slope and the largest distance of f from f0 + slope j."""
        if np.ndim(f) == 0:
            return float(f), 0.0, 0.0
        f0, slope = float(f[0]), float(f[-1] - f[0]) / (m - 1)
        return f0, slope, float(np.max(np.abs(f - (f0 + slope * j))))

    coefs = [c for c, _ in terms]
    freqs = [affine(f) for _, f in terms]
    power = np.sum(e_sim * e_sim)
    costs = power
    for a, (fa, sa, da) in enumerate(freqs):
        costs = costs - 2.0 * coefs[a] * trig_sum(e_sim, fa, sa, da)
        for b in range(a, len(terms)):
            fb, sb, db = freqs[b]
            pair = (trig_sum(ones, fa - fb, sa - sb, da + db)
                    + trig_sum(ones, fa + fb, sa + sb, da + db))
            weight = 0.5 if a == b else 1.0
            costs = costs + weight * coefs[a] * coefs[b] * pair
    size = sum(np.abs(c) for c in coefs)
    scale = power + 2.0 * size * np.sum(np.abs(e_sim)) + size * size * n
    return costs, (missed + _SCAN_ROUNDING * (np.sqrt(n + m) + phase)) * scale


def _check_uniform(times: np.ndarray) -> None:
    """The closed-form scan needs a uniform time grid, as np.linspace gives:
    raise ValueError naming the largest step deviation otherwise."""
    if len(times) < 2:
        raise ValueError(f"the fit needs at least 2 times, got {len(times)}")
    steps = np.diff(times)
    dt = (times[-1] - times[0]) / (len(times) - 1)
    dev = float(np.max(np.abs(steps - dt)))
    if not dev <= _UNIFORM_RTOL * np.max(np.abs(times)):
        raise ValueError(f"the fit needs uniform times: a step deviates by "
                         f"{dev:.3e} s from the mean step {dt:.3e} s")


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> tuple:
    """Minimise the scalar func on [lo, hi]: (x, func(x), evaluations).

    Brent's bounded minimiser, golden-section steps plus parabolic ones
    (R. P. Brent, Algorithms for Minimization without Derivatives (1973),
    ch. 5; Forsythe, Malcolm & Moler (1977), fmin), operation for operation
    as scipy.optimize.minimize_scalar(method="bounded") runs it, so x and
    func(x) are the same bits.  Stops once x is within about xatol of the
    minimum, or after 500 evaluations, scipy's default limit.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx, num


def _fit_r(times: np.ndarray, e_sim: np.ndarray, model_fn, terms_fn,
           r_bounds: tuple) -> FrequencyFit:
    """Least-squares r over model_fn(r); coarse scan then local refine.

    The objective oscillates in r, so a bounded local search alone can lock
    onto a side lobe; the 4001-point grid locates the global basin first.
    terms_fn(grid) spells model_fn as cosine terms for _scan_costs, which
    ranks the grid in closed form; every grid value whose closed-form cost
    lies within the rounding bound of the best is scored again with the
    exact cost, a column of them at a time, so the chosen grid value is the
    exact costs' argmin.  _bounded_brent refines r between the argmin's
    grid neighbours.
    """
    _check_uniform(times)

    def cost(r):
        return float(np.sum((model_fn(r) - e_sim) ** 2))

    grid = np.linspace(r_bounds[0], r_bounds[1], 4001)
    approx, err = _scan_costs(times, e_sim, terms_fn(grid), len(grid))
    upper = approx + err
    best = np.min(upper, where=np.isfinite(upper), initial=np.inf)
    if best == np.inf:
        raise FitFailure("no finite least-squares cost on the r grid")
    near = np.flatnonzero(approx - err <= best)
    rows = max(1, _RESCORE_SIZE // len(e_sim))
    exact = np.concatenate([
        np.sum((model_fn(grid[near[i:i + rows], None]) - e_sim) ** 2, axis=-1)
        for i in range(0, len(near), rows)])
    k = int(near[np.argmin(exact)])
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    r, residual, _ = _bounded_brent(cost, lo, hi, xatol=1e-12)
    power = float(np.sum(e_sim**2))
    if power > 0 and residual > 0.5 * power:
        raise FitFailure(
            f"residual {residual:.3e} exceeds 50% of trace power {power:.3e}")
    return FrequencyFit(r=float(r), residual=float(residual), power=power,
                        model=model_fn)


def fit_effective_frequency(times: np.ndarray, e_sim: np.ndarray,
                            eta_1c: float, omega_rabi: float,
                            omega_eff: float, omega_c: float,
                            r_bounds: tuple = (0.999, 1.002),
                            scale: float = 1.0) -> FrequencyFit:
    """Fit the frequency-shift factor r in omega_eff' = r * omega_eff.

    Least squares over the full trace between e_sim and the analytic norm
    evaluated with Delta' = r*omega_eff - omega_c (amplitude recomputed with
    Delta' as well).  scale multiplies the analytic envelope (s excitations
    predict s * ||E'||).  times must be a uniform grid (ValueError
    otherwise).
    """

    def model(r):
        delta = r * omega_eff - omega_c
        return scale * leakage_norm_single(eta_1c, omega_rabi, delta, times)

    def terms(r):
        delta = r * omega_eff - omega_c
        a = scale * omega_rabi**2 * eta_1c**2 / (2.0 * (delta * delta))
        return [(a, 0.0), (-a, delta)]

    return _fit_r(times, e_sim, model, terms, r_bounds)


def fit_effective_frequency_two_modes(times: np.ndarray, e_sim: np.ndarray,
                                      eta: np.ndarray, omega_rabi: float,
                                      mode_freqs: np.ndarray,
                                      omega_eff: float,
                                      r_bounds: tuple = (0.999, 1.002),
                                      scale: float = 1.0) -> FrequencyFit:
    """Two-mode variant: r shifts the near-resonant mode's detuning only.
    times must be a uniform grid (ValueError otherwise)."""

    def model(r):
        return scale * leakage_norm_two_modes(eta, omega_rabi, mode_freqs,
                                              omega_eff, times, r=r)

    def terms(r):
        d1, d2, s11, s12, s22 = _two_mode_weights(eta, mode_freqs,
                                                  omega_eff, r)
        p = scale * omega_rabi**2 / (2.0 * len(eta))
        return [(p * (s11 + s12 + s22), 0.0), (-p * (s11 + s12), d1),
                (-p * (s12 + s22), d2),
                (p * s12, mode_freqs[0] - mode_freqs[1])]

    return _fit_r(times, e_sim, model, terms, r_bounds)


@dataclass
class RenormalizationResult:
    J: np.ndarray               # bare couplings over the included modes
    J_prime: np.ndarray
    factor_summary: float       # mean of J'_ij / J_ij over pairs


def renormalized_couplings(trap: TrapConfig, eta: np.ndarray,
                           mode_freqs: np.ndarray,
                           r: float) -> RenormalizationResult:
    """Couplings with the time-averaged effective frequency (1+r) w_eff / 2.

    eta holds the included Lamb-Dicke columns, mode_freqs their
    frequencies.  As in leakage_norm_two_modes, column 0 is the
    near-resonant mode r shifts: the averaged frequency applies to it
    alone, and the remaining columns keep the bare omega_eff.
    """
    omega_avg = 0.5 * (1.0 + r) * trap.omega_eff
    # the detuning at which omega_eff = sqrt(Omega^2 + mu^2) is omega_avg
    trap_avg = trap.with_(detuning_mu=np.sqrt(omega_avg**2 - trap.rabi**2))
    j = coupling_matrix(trap, eta, mode_freqs)
    j_prime = coupling_matrix(trap_avg, eta[:, :1], mode_freqs[:1]) \
        + coupling_matrix(trap, eta[:, 1:], mode_freqs[1:])
    iu = np.triu_indices(j.shape[0], k=1)
    factor = float(np.mean(j_prime[iu] / j[iu]))
    return RenormalizationResult(J=j, J_prime=j_prime, factor_summary=factor)

