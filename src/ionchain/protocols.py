"""Marked-site state transfer and spatial search in the single-excitation
subspace, with the analytic reduced model and derivative-free tuning of
(gamma, T).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import xy

# the relative asymmetry under the site reversal up to which the couplings
# and the diagonal of a transfer walk count as mirror-symmetric
MIRROR_TOL = 1e-12

_EPS = np.finfo(float).eps

# the bytes of gamma-scaled mirror blocks that one eigvalsh stack of
# _walk_weights may hold; the products' two temporaries are about as large.
# At N = 52 (six gammas per stack) a 1 MiB stack of all 24 scatter gammas
# ran no faster and held 0.25 MB more at peak
_STACK_BYTES = 1 << 16


@dataclass
class ProtocolConfig:
    gamma: float
    sender: int
    receiver: int
    duration: float                 # in units where marker amplitude = 1
    marker_amplitude: float = 1.0   # rad/s, physical scale of the marker

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        if self.gamma <= 0 or self.duration <= 0:
            raise ValueError("gamma and duration must be > 0")


def idealized_couplings(n: int, alpha: float) -> np.ndarray:
    """J_ij = |i - j|^(-alpha), zero diagonal."""
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(d, 1.0)
    j = d ** (-alpha)
    np.fill_diagonal(j, 0.0)
    return j


def search_hamiltonian(h_walk: np.ndarray, gamma: float,
                       marked_sites) -> np.ndarray:
    """gamma * H plus the _search_diagonal of the marked sites."""
    hs = gamma * np.array(h_walk, dtype=float)
    hs[np.diag_indices(len(hs))] += _search_diagonal(len(hs), marked_sites)
    return hs


def _search_diagonal(n: int, marked_sites) -> np.ndarray:
    """Unit projectors on the marked sites: the residual local fields are
    taken as compensated."""
    marked = list(marked_sites)
    if len(set(marked)) != len(marked):
        raise ValueError("marked sites must be distinct")
    diag = np.zeros(n)
    for m in marked:
        if not 0 <= m < n:
            raise ValueError(f"marked site {m} out of range")
        diag[m] = 1.0
    return diag


def analytic_gamma(h_walk: np.ndarray) -> float:
    """gamma = 1 / lambda_max so that gamma * lambda_max = 1."""
    return 1.0 / np.linalg.eigvalsh(h_walk)[-1]


def transfer_time(n: int) -> float:
    """T = pi sqrt(n/2) in units where the marker amplitude is 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return np.pi * np.sqrt(n / 2.0)


def analytic_transfer_fidelity(n: int, t) -> np.ndarray:
    """Reduced 3-level model: F(t) = (b^2/2) sin^2(sqrt(2) b t) + sin^2(b t / sqrt(2)),
    with b = 1/sqrt(n)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    b = 1.0 / np.sqrt(n)
    t = np.asarray(t, dtype=float)
    return (b**2 / 2.0) * np.sin(np.sqrt(2.0) * b * t) ** 2 \
        + np.sin(b * t / np.sqrt(2.0)) ** 2


def reduced_model_matrix(n: int) -> np.ndarray:
    """The 3x3 nearly-degenerate-subspace matrix (identity part dropped)."""
    b = 1.0 / np.sqrt(n)
    c = b * np.sqrt(1.0 - 2.0 * b**2)
    return np.array([
        [b**2, b**2, c],
        [b**2, b**2, c],
        [c, c, -2.0 * b**2],
    ])


def _site_state(n: int, site: int) -> np.ndarray:
    """The walk state with the excitation on site."""
    psi = np.zeros(n)
    psi[site] = 1.0
    return psi


def refuse_walk(n: int) -> None:
    """Raise xy.TooLarge for a walk of n sites whose dense eigh, its matrix
    and eigenvectors, would exceed xy.WORK_BYTES."""
    xy.refuse(f"a dense eigh of a {n}-site walk", 16 * n ** 2)


def _walk_split(J: np.ndarray, diag: np.ndarray, psi0: np.ndarray) -> tuple:
    """(orbits, blocks, parts, trailing) of the walk gamma J + diag(diag)
    from psi0, shared by every gamma: its mirror orbits, J summed over each
    half's orbits by xy.orbit_matrix from its upper triangle, psi0 over
    them (xy.mirror_part) and the eigenvalue-only data of _walk_weights, or
    None.

    The walk splits when J and diag commute with the site reversal to
    MIRROR_TOL relative: mirror-symmetric couplings, markers and
    extra_fields.  Otherwise the identity's one half is the whole walk.
    When the diagonal and the psi0 part of every half sit on its first
    orbit alone (every 0 -> n - 1 transfer without extra_fields), trailing
    holds per size of the halves (one for an even n) their stacked J
    blocks, the ascending eigenvalues of each block without its first
    orbit, their _partners and each half's coef times its first part
    entry.  refuse_walk(n) runs before any block is built.
    """
    J = np.asarray(J, dtype=float)
    n = len(J)
    refuse_walk(n)
    mirrored = abs(J - J[::-1, ::-1]).max() <= MIRROR_TOL * abs(J).max() \
        and abs(diag - diag[::-1]).max() <= MIRROR_TOL * abs(diag).max()
    order = np.arange(n)
    orbits = xy.mirror_orbits(order[::-1] if mirrored else order, np.ones(n))
    parts = [xy.mirror_part(psi0, idx, coef, len(sites))
             for sites, idx, coef in orbits]
    # each value of the upper triangle stands at (row, col) and (col, row)
    rows, cols = np.triu_indices(n)
    upper = (rows, cols, np.where(rows == cols, 0.5, 1.0) * J[rows, cols])
    blocks = [xy.orbit_matrix(upper, idx, coef) for _, idx, coef in orbits]
    trailing = None
    if not any(diag[sites[1:]].any() or part[1:].any()
               for (sites, _, _), part in zip(orbits, parts)):
        trailing = []
        # the halves of an even walk have one size and are solved as one
        # stack; a half of its own size keeps no stack axis
        for m in dict.fromkeys(map(len, blocks)):
            group = [i for i, b in enumerate(blocks) if len(b) == m]
            stack, coefs, part0 = (
                np.stack(a) if len(group) > 1 else a[0]
                for a in ([blocks[i] for i in group],
                          [orbits[i][2] for i in group],
                          [parts[i][0] for i in group]))
            if len(group) > 1:
                # the blocks become views of their stack, held once
                for i, block in zip(group, stack):
                    blocks[i] = block
            nu = np.linalg.eigvalsh(stack[..., 1:, 1:]) if m > 1 \
                else np.empty(stack.shape[:-2] + (0,))
            # each half's coef times its first part entry, per row
            trailing.append((stack, nu, _partners(m),
                             coefs * np.asarray(part0)[..., None]))
    return orbits, blocks, parts, trailing


def _walk_weights(split: tuple, gamma, diag: np.ndarray, row: int) -> tuple:
    """(w, p) with <row| e^{-i(gamma J + diag(diag))t} |psi0> =
    sum_k p_k e^{-i w_k t}, from the _walk_split of J, diag and psi0: arrays
    of n entries for a float gamma, and of one row of n per gamma for a
    1-D array of gammas.

    Each half's eigenvectors over the full basis are coef * q[idx], so
    p = v[row] (v^T psi0) = coef[row] q[idx[row]] (part^T q): two eigh of
    about n/2 per gamma for a split walk, the full eigh of n otherwise.
    With trailing data and row on every half's first orbit, only q[0]^2 is
    read: p = coef[row] part[0] q[0]^2 from _gauss_weights, one eigvalsh
    per half for all the gammas at once instead, and each gamma's (w, p)
    bit for bit as when it is solved alone.
    """
    orbits, blocks, parts, trailing = split
    full = trailing is None or any(idx[row] for _, idx, _ in orbits)
    # at most _STACK_BYTES of gamma-scaled blocks at once: a large walk
    # solves its stack a few gammas (or one) at a time, eigh one at a time
    rows = 1 if full else max(1, _STACK_BYTES // sum(
        stack.nbytes for stack, *_ in trailing))
    if np.ndim(gamma) and (full or len(gamma) > rows):
        w, p = np.empty((2, len(gamma), len(diag)))
        for i in range(0, len(gamma), rows):
            w[i:i + rows], p[i:i + rows] = _walk_weights(
                split, gamma[i] if full else gamma[i:i + rows], diag, row)
        return w, p
    if full:
        w, p = [], []
        for (sites, idx, coef), block, part in zip(orbits, blocks, parts):
            x, q = np.linalg.eigh(gamma * block + np.diag(diag[sites]))
            w.append(x)
            p.append(coef[row] * q[idx[row]] * (part @ q))
        return np.concatenate(w), np.concatenate(p)
    gamma = np.asarray(gamma, dtype=float)
    # a stack's halves side by side, in the order of orbits
    shape = gamma.shape + (-1,)
    ws, ps = [], []
    for stack, nu, partners, scale in trailing:
        h = np.multiply.outer(gamma, stack)
        # the first orbit, site 0's, is the only one with a diagonal
        h[..., 0, 0] += diag[0]
        x = np.linalg.eigvalsh(h)
        # freed before the products' temporaries, of about its size
        del h
        nus = np.multiply.outer(gamma, nu)
        # reverses gamma nu to ascending order where gamma < 0
        nus.sort()
        ws.append(x.reshape(shape))
        ps.append((scale[..., row, None]
                   * _gauss_weights(x, nus, partners)).reshape(shape))
    return np.concatenate(ws, axis=-1), np.concatenate(ps, axis=-1)


def _partners(m: int) -> np.ndarray:
    """The m x (m - 1) index of the eigenvalue that _gauss_weights pairs
    with nu_j in row k: j for j < k, j + 1 for j >= k."""
    j = np.arange(m - 1)
    return j + (j >= np.arange(m)[:, None])


def _gauss_weights(x: np.ndarray, nu: np.ndarray,
                   partners: np.ndarray) -> np.ndarray:
    """g_k = <e0|x_k>^2 for a real symmetric h with ascending eigenvalues
    x, from x and the ascending eigenvalues nu of h[1:, 1:] alone (Golub &
    Welsch, Math. Comp. 23, 221 (1969)):

        g_k = prod_j (x_k - nu_j) / prod_{l != k} (x_k - x_l).

    Cauchy interlacing, x_j <= nu_j <= x_{j+1}, pairs nu_j with x_j for
    j < k and with x_{j+1} for j >= k (the _partners of x.shape[-1]), so
    each factor is a ratio in [0, 1].  An x_k that coincides with a nu_j to
    rounding is invisible from e0; it is merged with that nu_j and keeps
    g_k = 0, so exact degeneracies give no 0/0.  Leading axes of x and nu
    stack several h.
    """
    m = x.shape[-1]
    # max(-x[0], x[-1]) is max |x| for ascending x
    tol = m * _EPS * np.maximum(-x[..., :1], x[..., -1:])
    num = x[..., :, None] - nu[..., None, :]
    if not (abs(num) <= tol[..., None]).any():
        return _interlaced_products(x, num, partners)
    # each h may merge a different count: one at a time
    g = np.zeros_like(x)
    for xs, ns, t, gs in zip(x.reshape(-1, m), nu.reshape(-1, m - 1),
                             tol.ravel(), g.reshape(-1, m)):
        # by interlacing, only x_j and x_{j+1} can meet nu_j
        left, right = abs(xs[:-1] - ns) <= t, abs(xs[1:] - ns) <= t
        keep, keep_nu = np.ones(m, bool), np.ones(m - 1, bool)
        for j in np.flatnonzero(left | right):
            if left[j] and keep[j]:
                keep[j] = keep_nu[j] = False
            elif right[j]:
                keep[j + 1] = keep_nu[j] = False
        xs, ns = xs[keep], ns[keep_nu]
        gs[keep] = _interlaced_products(xs, xs[:, None] - ns,
                                        _partners(len(xs)))
    return g


def _interlaced_products(x: np.ndarray, num: np.ndarray,
                         partners: np.ndarray) -> np.ndarray:
    """The _gauss_weights products for x, with num = x[..., :, None] - nu;
    num is overwritten."""
    # one buffer for the denominators, then the ratios in num
    den = x.take(partners, axis=-1)
    np.subtract(x[..., :, None], den, out=den)
    return np.divide(num, den, out=num).prod(axis=-1)


def _walk_probability(weights: tuple, t):
    """|sum_k p_k e^{-i w_k t}|^2 for the walk weights (w, p), at one time t
    or on a 1-D grid of times."""
    w, p = weights
    return np.abs(p @ np.exp(-1j * np.multiply.outer(w, t))) ** 2


def run_transfer(J: np.ndarray, config: ProtocolConfig, n_times: int = 600,
                 t_max_factor: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Evolve |w> under gamma*H + P_w + P_f and record fidelity onto |f>.

    Returns (times, fidelity) on [0, t_max_factor * duration].
    """
    n = len(J)
    diag = _search_diagonal(n, [config.sender, config.receiver])
    weights = _walk_weights(
        _walk_split(J, diag, _site_state(n, config.sender)), config.gamma,
        diag, config.receiver)
    times = np.linspace(0.0, t_max_factor * config.duration, n_times)
    return times, _walk_probability(weights, times)


def transfer_fidelity_at(J: np.ndarray, gamma: float, t: float,
                         sender: int, receiver: int,
                         extra_fields: np.ndarray | None = None) -> float:
    """|<f| exp(-i H_s t) |w>|^2 at a single (gamma, t); extra_fields, if
    given, add to the walk diagonal."""
    diag = _search_diagonal(len(J), [sender, receiver])
    if extra_fields is not None:
        diag = diag + extra_fields
    weights = _walk_weights(_walk_split(J, diag, _site_state(len(J), sender)),
                            gamma, diag, receiver)
    return float(_walk_probability(weights, t))


def run_search(J: np.ndarray, gamma: float, marked: int, t_max: float,
               n_times: int = 600) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the uniform superposition under gamma*H + |w><w|.

    Returns (times, probability on the marked site).
    """
    n = len(J)
    diag = _search_diagonal(n, [marked])
    weights = _walk_weights(_walk_split(J, diag, np.full(n, 1.0 / np.sqrt(n))),
                            gamma, diag, marked)
    times = np.linspace(0.0, t_max, n_times)
    return times, _walk_probability(weights, times)


@dataclass
class OptimizeResult:
    config: ProtocolConfig
    fidelity: float                 # at exactly (gamma, T) of config
    n_evaluations: int
    seed_fidelity: float
    n_gamma_solves: int             # distinct gamma whose walk was solved


def optimize_protocol(J: np.ndarray, sender: int, receiver: int,
                      box: float = 0.30, budget: int = 200,
                      rng_seed: int = 0) -> OptimizeResult:
    """Derivative-free maximisation of transfer fidelity over (gamma, T).

    Pattern search with a Latin-hypercube-style scatter seed inside a
    +-box window around the analytic point gamma = 1, T = pi sqrt(n/2) of
    J, a walk normalised to lambda_max = 1.  Deterministic for a given
    rng_seed; the returned point is never worse than the analytic seed.
    budget counts fidelity evaluations, the analytic seed included; box is
    a fraction in (0, 1).  Each distinct gamma costs one solve of
    gamma J + diag, from the _walk_split of J built once per call:
    eigenvalues of the two mirror halves alone for a 0 -> n - 1 transfer,
    else eigh.  The scatter's gammas are solved together, the pattern
    search's one by one.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0.0 < box < 1.0:
        raise ValueError(f"box must be in (0, 1), got {box}")
    n = J.shape[0]
    diag = _search_diagonal(n, [sender, receiver])
    # first: it refuses an oversized walk before any eigensolver
    split = _walk_split(J, diag, _site_state(n, sender))
    t0 = transfer_time(n)
    evals = [0]
    # pattern moves in T alone revisit gamma: one eigensystem per distinct
    # gamma, kept as (-1j w, p), so that an evaluation, _walk_probability at
    # one time bit for bit, is one exp and one dot product
    weights = {}

    def objective(g, t):
        evals[0] += 1
        if g not in weights:
            w, p = _walk_weights(split, g, diag, receiver)
            weights[g] = -1j * w, p
        phase, p = weights[g]
        return float(np.abs(np.dot(p, np.exp(phase * t))) ** 2)

    best = (1.0, t0, objective(1.0, t0))
    seed_fid = best[2]

    n_scatter = min(24, budget // 4)
    if n_scatter > 0:
        # stratified scatter over the box
        rng = np.random.default_rng(rng_seed)
        lows = np.linspace(-box, box, n_scatter, endpoint=False)
        width = box / n_scatter
        g_frac = rng.permutation(lows) + width * rng.random(n_scatter)
        t_frac = rng.permutation(lows) + width * rng.random(n_scatter)
        gs, ts = 1 + g_frac, t0 * (1 + t_frac)
        # every scatter gamma is known up front: the new ones are solved
        # as one stack, if a box below gamma's resolution left any
        new = [g for g in dict.fromkeys(gs.tolist()) if g not in weights]
        if new:
            w, p = _walk_weights(split, np.array(new), diag, receiver)
            weights.update(zip(new, zip(-1j * w, p)))
        for g, t in zip(gs, ts):
            f = objective(g, t)
            if f > best[2]:
                best = (g, t, f)

    step_g, step_t = box / 2, box * t0 / 2
    while evals[0] < budget and (step_g > 1e-5 or step_t / t0 > 1e-5):
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

    g, t, f = best
    config = ProtocolConfig(gamma=g, sender=sender, receiver=receiver,
                            duration=t)
    return OptimizeResult(config=config, fidelity=f, n_evaluations=evals[0],
                          seed_fidelity=seed_fid, n_gamma_solves=len(weights))
