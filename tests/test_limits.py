"""Every size limit is xy.refuse against xy.WORK_BYTES = 2^28 bytes.  At
each site the largest size accepted under the former per-site limits (a
dense eigh of dim 4096, a Bessel table or a noise ensemble of at most
2^28 bytes) still passes, and one step above raises xy.TooLarge naming
the work and its bytes.  Neither is allowed to allocate the work."""
import tracemalloc

import numpy as np
import pytest

import ionchain as ic
from ionchain import noise as nz
from ionchain import protocols as pr
from ionchain import spinphonon as sp
from ionchain import xy


class Reached(Exception):
    """Raised where the work would start: the size check has passed."""


def reached(*args, **kwargs):
    raise Reached


def sector(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", reached)
    return (lambda dim: xy.XYSector(13, np.arange(dim),
                                    np.zeros((1, 1))).eigensystem(),
            lambda dim: f"a dense eigh of sector dim {dim}",
            lambda dim: 16 * dim ** 2)


def walk(monkeypatch):
    # the check _walk_split and the CLI run before any walk is built
    def check(n):
        pr.refuse_walk(n)
        reached()

    return (check, lambda n: f"a dense eigh of a {n}-site walk",
            lambda n: 16 * n ** 2)


def parity_block(monkeypatch):
    # the initial state's parity block (odd, for s_init = 1) has block
    # states, and the enumeration of the basis is where the work starts
    trap = ic.reference_trap(3, 2 * np.pi * 0.8e6)
    chain = ic.solve_chain(trap)
    policy = sp.TruncationPolicy(phonon_modes=(0,), fock_cutoff=3)
    monkeypatch.setattr(sp.ProductBasis, "build", reached)

    def build(block):
        monkeypatch.setattr(sp.ProductBasis, "parity_block_dims",
                            lambda *args: [1, block])
        sp.SpinPhononSystem.build(trap, chain, policy, s_init=1)

    return (build, lambda block: f"a dense eigh of the parity block of "
                                 f"{block} states in spin-phonon basis dim "
                                 f"{block + 1}",
            lambda block: 16 * block ** 2)


def bessel_table(monkeypatch):
    # a t of 1e6 at a number of times: past + 32 rows of doubles each,
    # past = t + 20 t^(1/3); the recurrence table is where the work starts
    t = 1e6
    rows = t + 20.0 * t ** (1.0 / 3.0) + 32.0
    monkeypatch.setattr(np, "zeros", reached)
    return (lambda n: xy.bessel_j(np.full(n, t)),
            lambda n: f"a Bessel table to a t = 1e+06 at {n} times",
            lambda n: f"{8.0 * rows * n:.0f}")


def ensemble(monkeypatch):
    # samples at N = 8; building the protocol walk is where the work starts
    j = pr.idealized_couplings(8, 0.3)
    cfg = pr.ProtocolConfig(gamma=1.0, sender=0, receiver=7, duration=1.0)
    monkeypatch.setattr(xy, "build_single_excitation", reached)
    return (lambda s: nz.noisy_transfer_ensemble(
                j, cfg, nz.NoiseConfig(n_samples=s)),
            lambda s: f"{s} samples at N = 8 in field and offset blocks",
            lambda s: 8 * 8 * (2 * s + 1))


# the largest size each site accepted when its limit was its own constant:
# dim 4096 for a dense eigh, else the most that fits in 2^28 bytes
SITES = [(sector, 4096), (walk, 4096), (parity_block, 4096),
         (bessel_table, 33), (ensemble, 2097151)]


@pytest.mark.parametrize("site,largest", SITES,
                         ids=[site.__name__ for site, _ in SITES])
def test_largest_accepted_size_passes_and_one_above_is_refused(
        monkeypatch, site, largest):
    run, what, nbytes = site(monkeypatch)
    assert xy.WORK_BYTES == 2**28
    assert float(nbytes(largest)) <= xy.WORK_BYTES \
        < float(nbytes(largest + 1))
    tracemalloc.start()
    try:
        with pytest.raises(Reached):
            run(largest)
        with pytest.raises(xy.TooLarge) as err:
            run(largest + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"{what(largest + 1)} needs "
                              f"{nbytes(largest + 1)} bytes > WORK_BYTES = "
                              f"{2**28}")
    assert peak < 2**20


@pytest.mark.parametrize("nbytes,shown", [(10 ** 400, str(10 ** 400)),
                                          (float("inf"), "inf"),
                                          (2**28 + 0.4, str(2**28))])
def test_bytes_named_at_any_size(nbytes, shown):
    # a config integer has no upper bound, and a Bessel estimate is a float
    with pytest.raises(xy.TooLarge, match=f"needs {shown} bytes"):
        xy.refuse("work", nbytes)
