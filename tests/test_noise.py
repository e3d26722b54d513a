import numpy as np
import pytest

from ionchain import cli
from ionchain import noise as nz
from ionchain import protocols as pr
from ionchain import xy


def walk(n=10, alpha=0.3):
    j = pr.idealized_couplings(n, alpha)
    return j / np.linalg.eigvalsh(j)[-1]


def config(n=10):
    j = walk(n)
    return j, pr.ProtocolConfig(gamma=pr.analytic_gamma(j), sender=0,
                                receiver=n - 1, duration=pr.transfer_time(n))


class TestNoiseConfig:
    def test_sigma_from_t2(self):
        assert nz.NoiseConfig(t2=10e-3).sigma == pytest.approx(10.0)
        assert nz.NoiseConfig(t2=1.0).sigma == pytest.approx(1.0)

    def test_field_variance_override(self):
        c = nz.NoiseConfig(t2=10e-3, field_variance=400.0)
        assert c.sigma == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            nz.NoiseConfig(t2=0.0)
        with pytest.raises(ValueError):
            nz.NoiseConfig(n_samples=0)
        with pytest.raises(ValueError, match="t2"):
            nz.NoiseConfig(t2=float("nan"))
        for variance in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="field_variance"):
                nz.NoiseConfig(field_variance=variance)


class TestSampling:
    def test_deterministic_in_seed_and_index(self):
        c = nz.NoiseConfig(rng_seed=3)
        a = nz.sample_static_fields(6, c, 4)
        b = nz.sample_static_fields(6, c, 4)
        assert np.array_equal(a, b)

    def test_distinct_across_indices_and_seeds(self):
        c1 = nz.NoiseConfig(rng_seed=3)
        c2 = nz.NoiseConfig(rng_seed=4)
        assert not np.array_equal(nz.sample_static_fields(6, c1, 0),
                                  nz.sample_static_fields(6, c1, 1))
        assert not np.array_equal(nz.sample_static_fields(6, c1, 0),
                                  nz.sample_static_fields(6, c2, 0))

    def test_common_random_numbers_across_chain_sizes(self):
        # the first 6 fields of a longer chain's draw match the shorter one
        c = nz.NoiseConfig(rng_seed=0)
        short = nz.sample_static_fields(6, c, 2)
        long = nz.sample_static_fields(9, c, 2)
        assert np.array_equal(short, long[:6])

    def test_field_block_is_the_per_sample_draws(self):
        # each sample's draw at m sites is a prefix of its draw at 52, so
        # one block per run serves every chain length bit for bit
        for seed in range(5):
            c = nz.NoiseConfig(rng_seed=seed, n_samples=200)
            block = nz.static_field_block(52, c)
            assert block.shape == (52, 200)
            for k in range(200):
                for m in (1, 2, 3, 8, 13, 51, 52):
                    assert np.array_equal(block[:m, k],
                                          nz.sample_static_fields(m, c, k))

    def test_moments(self):
        c = nz.NoiseConfig(t2=10e-3, rng_seed=1)
        draws = np.concatenate(
            [nz.sample_static_fields(50, c, k) for k in range(400)])
        assert np.mean(draws) == pytest.approx(0.0, abs=0.15)
        assert np.std(draws) == pytest.approx(10.0, rel=0.02)


def per_sample_ensemble(j, cfg, noise, n_times):
    """One eigh and one propagation per sample, as before stacking."""
    n = j.shape[0]
    hs0 = pr.search_hamiltonian(j, cfg.gamma, [cfg.sender, cfg.receiver])
    times = np.linspace(0.0, cfg.duration, n_times)
    psi0 = np.zeros(n, dtype=complex)
    psi0[cfg.sender] = 1.0

    def trace_for(extra_diag):
        sector = xy.build_single_excitation(hs0 + np.diag(extra_diag))
        return np.abs(xy.spectral(*sector.eigensystem(), psi0,
                                  times)[:, cfg.receiver]) ** 2

    traces = np.array([
        trace_for(2.0 * (nz.sample_static_fields(n, noise, k)
                         / cfg.marker_amplitude))
        for k in range(noise.n_samples)])
    return (traces.mean(axis=0), (traces - traces[0]).std(axis=0),
            trace_for(np.zeros(n)))


class TestEnsemble:
    @pytest.mark.parametrize("n_samples", [1, 37])
    def test_matches_per_sample_loop(self, n_samples):
        j, cfg = config(n=52)
        noise = nz.NoiseConfig(t2=1e-3, n_samples=n_samples, rng_seed=5)
        out = nz.noisy_transfer_ensemble(j, cfg, noise)
        mean, std, noiseless = per_sample_ensemble(j, cfg, noise, 200)
        assert out.mean_at_T == pytest.approx(mean[-1], abs=1e-13)
        assert out.std_at_T == pytest.approx(std[-1], abs=1e-13)
        assert out.noiseless_at_T == pytest.approx(noiseless[-1], abs=1e-13)

    def test_zero_variance_matches_noiseless(self):
        j, cfg = config(n=40)
        noise = nz.NoiseConfig(field_variance=0.0, n_samples=37)
        out = nz.noisy_transfer_ensemble(j, cfg, noise)
        assert out.mean_at_T == pytest.approx(out.noiseless_at_T, abs=1e-12)
        # coinciding samples have exactly zero spread, with no clamp
        assert out.std_at_T == 0.0

    def test_matches_manual_loop(self):
        j, cfg = config(n=8)
        noise = nz.NoiseConfig(t2=1e-4, n_samples=5, rng_seed=7)
        out = nz.noisy_transfer_ensemble(j, cfg, noise)
        times = np.linspace(0.0, cfg.duration, 40)
        traces = []
        for k in range(5):
            fields = nz.sample_static_fields(8, noise, k)
            hs = pr.search_hamiltonian(j, cfg.gamma, [0, 7])
            hs = hs + np.diag(2.0 * fields / cfg.marker_amplitude)
            sector = xy.build_single_excitation(hs)
            psi0 = np.zeros(8, dtype=complex)
            psi0[0] = 1.0
            # one eigh per sample: independent of the Chebyshev kernel
            states = xy.spectral(*sector.eigensystem(), psi0, times)
            traces.append(np.abs(states[:, 7]) ** 2)
        traces = np.array(traces)
        assert out.mean_at_T == pytest.approx(np.mean(traces[:, -1]),
                                              abs=1e-12)
        assert out.std_at_T == pytest.approx(np.std(traces[:, -1]),
                                             abs=1e-15)

    def test_local_fields_enter_with_factor_two(self):
        # a sampled z field h_j sigma_j^z offsets the walk diagonal by
        # 2 h_j in marker units, as criterion 11's extra_fields reference
        # reads it
        j, cfg = config(n=6)
        cfg = pr.ProtocolConfig(gamma=cfg.gamma, sender=0, receiver=5,
                                duration=cfg.duration, marker_amplitude=4.0)
        h = 0.05 * np.arange(6, dtype=float)
        out = nz.noisy_transfer_ensemble(j, cfg, nz.NoiseConfig(n_samples=1),
                                         h[:, None])
        direct = pr.transfer_fidelity_at(j, cfg.gamma, cfg.duration, 0, 5,
                                         extra_fields=2.0 * h / 4.0)
        assert out.mean_at_T == pytest.approx(direct, abs=1e-12)
        assert out.mean_at_T != pytest.approx(out.noiseless_at_T, abs=1e-6)

    def test_marker_amplitude_scales_fields(self):
        # doubling the marker amplitude halves the effective noise, which
        # must raise the mean fidelity for strong noise
        j, cfg = config(n=10)
        noise = nz.NoiseConfig(field_variance=0.02, n_samples=40)
        weak_cfg = pr.ProtocolConfig(gamma=cfg.gamma, sender=0, receiver=9,
                                     duration=cfg.duration,
                                     marker_amplitude=2.0)
        strong = nz.noisy_transfer_ensemble(j, cfg, noise)
        weak = nz.noisy_transfer_ensemble(j, weak_cfg, noise)
        assert weak.mean_at_T > strong.mean_at_T

    def test_noise_degrades_mean_fidelity(self):
        j, cfg = config(n=12)
        noise = nz.NoiseConfig(field_variance=0.01, n_samples=60)
        out = nz.noisy_transfer_ensemble(j, cfg, noise)
        assert out.mean_at_T < out.noiseless_at_T
        assert out.noiseless_at_T > 0.97

    def test_oversized_ensemble_refused_before_sampling(self, monkeypatch):
        j, cfg = config(n=8)
        # the n x n_samples fields and the n x (n_samples + 1) offsets
        limit = (xy.WORK_BYTES // (8 * 8) - 1) // 2

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr(nz, "sample_static_fields", no_sampling)
        with pytest.raises(xy.TooLarge, match="offset block"):
            nz.noisy_transfer_ensemble(j, cfg,
                                       nz.NoiseConfig(n_samples=limit + 1))
        # the limit itself is accepted
        nz.check_ensemble_size(8, limit)

    @pytest.mark.parametrize("n", [8, 12])
    def test_longer_field_block_gives_the_same_ensemble(self, n):
        j, cfg = config(n=n)
        noise = nz.NoiseConfig(t2=1e-3, n_samples=30, rng_seed=4)
        block = nz.static_field_block(52, noise)
        assert nz.noisy_transfer_ensemble(j, cfg, noise, block) \
            == nz.noisy_transfer_ensemble(j, cfg, noise)

    def test_deterministic_given_seed(self):
        j, cfg = config(n=8)
        noise = nz.NoiseConfig(field_variance=0.01, n_samples=10, rng_seed=2)
        a = nz.noisy_transfer_ensemble(j, cfg, noise)
        b = nz.noisy_transfer_ensemble(j, cfg, noise)
        assert a == b


@pytest.fixture(scope="module")
def fig5_walks():
    """Walk matrix and marker scale of every fig 5 case at alpha 0.2, 0.6."""
    base = cli.resolve_config("noise", {})
    return {(n, alpha): cli._walk_couplings(
                dict(base, couplings="experimental", alpha_target=alpha), n)[:2]
            for n in base["n_list"] for alpha in (0.2, 0.6)}


class TestFig5Kernel:
    """xy.chebyshev on the fig 5 ensembles against one eigh per sample."""

    @pytest.mark.parametrize("alpha", [0.2, 0.6])
    def test_matches_per_sample_eigh(self, fig5_walks, alpha):
        noise = nz.NoiseConfig(t2=10e-3, n_samples=20, rng_seed=0)
        for n in range(8, 53, 4):
            walk, scale = fig5_walks[(n, alpha)]
            h0 = pr.search_hamiltonian(walk, pr.analytic_gamma(walk),
                                       [0, n - 1])
            t = pr.transfer_time(n)
            psi0 = np.eye(n)[0]
            offsets = np.column_stack([
                2.0 * (nz.sample_static_fields(n, noise, k) / scale)
                for k in range(noise.n_samples)])
            out = xy.chebyshev(h0, psi0, t, diag=offsets, rows=n - 1)
            ref = np.array([
                xy.spectral(*np.linalg.eigh(h0 + np.diag(d)), psi0,
                            [t])[0, n - 1] for d in offsets.T])
            assert np.max(np.abs(out - ref)) < 1e-13, n

    def test_series_shorter_than_on_the_discs(self, fig5_walks,
                                              monkeypatch):
        # the dense walk's interval from its eigenvalues against the
        # Gershgorin discs, which the same walk as a CSR array still gets
        from scipy.sparse import csr_array
        walk, scale = fig5_walks[(52, 0.2)]
        h0 = pr.search_hamiltonian(walk, pr.analytic_gamma(walk), [0, 51])
        noise = nz.NoiseConfig(t2=10e-3, n_samples=20, rng_seed=0)
        offsets = 2.0 * nz.static_field_block(52, noise) / scale
        lengths, bessel = [], xy.bessel_j

        def counted(x):
            table = bessel(x)
            lengths.append(len(table))
            return table

        monkeypatch.setattr(xy, "bessel_j", counted)
        psi0, t = np.eye(52)[0], pr.transfer_time(52)
        dense = xy.chebyshev(h0, psi0, t, diag=offsets, rows=51)
        discs = xy.chebyshev(csr_array(h0), psi0, t, diag=offsets, rows=51)
        assert lengths[0] <= 0.7 * lengths[1]
        assert np.max(np.abs(dense - discs)) < 1e-13

    def test_zero_offset_column_is_noiseless_fidelity(self, fig5_walks):
        for (n, alpha), (walk, scale) in fig5_walks.items():
            gamma, t = pr.analytic_gamma(walk), pr.transfer_time(n)
            cfg = pr.ProtocolConfig(gamma=gamma, sender=0, receiver=n - 1,
                                    duration=t, marker_amplitude=scale)
            out = nz.noisy_transfer_ensemble(walk, cfg,
                                             nz.NoiseConfig(n_samples=3))
            direct = pr.transfer_fidelity_at(walk, gamma, t, 0, n - 1)
            assert out.noiseless_at_T == pytest.approx(direct, abs=1e-13)
