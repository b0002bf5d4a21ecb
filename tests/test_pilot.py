import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnsim.core import dft, make_rng
from ftnsim.pilot import (PilotConfig, SiaProjector, apply_projector, chu_pilot,
                          compose_tx, cyclic_mean, sia_pilot_power)
from oracles import projector_dense


def qpsk_block(rng, n, sigma_s2=1.0):
    a = np.sqrt(sigma_s2 / 2)
    return a * (rng.choice([-1, 1], n) + 1j * rng.choice([-1, 1], n))


@pytest.fixture
def cfg():
    return PilotConfig(P=8, Q=16, sigma_p2=sia_pilot_power(1.0, 16))


@pytest.fixture
def proj():
    return SiaProjector(P=8, Q=16)


class TestChuPilot:
    def test_constant_modulus(self, cfg):
        x_p = chu_pilot(cfg)
        np.testing.assert_allclose(np.abs(x_p) ** 2, cfg.sigma_p2, atol=1e-12)

    def test_comb_spectrum(self, cfg):
        x_fd = dft(chu_pilot(cfg))
        mask = np.ones(cfg.N, bool)
        mask[:: cfg.Q] = False
        off_comb = np.sum(np.abs(x_fd[mask]) ** 2)
        total = np.sum(np.abs(x_fd) ** 2)
        assert off_comb < 1e-20 * total

    def test_flat_comb_magnitudes(self, cfg):
        x_fd = dft(chu_pilot(cfg))
        mags = np.abs(x_fd[:: cfg.Q])
        assert (mags.max() - mags.min()) / mags.mean() < 1e-10

    def test_odd_period_flat_dft(self):
        cfg = PilotConfig(P=7, Q=4, sigma_p2=1.0)
        mags = np.abs(dft(chu_pilot(cfg))[:: cfg.Q])
        assert (mags.max() - mags.min()) / mags.mean() < 1e-10

    def test_q1_with_sia_rejected(self):
        with pytest.raises(ValueError):
            PilotConfig(P=8, Q=1, sigma_p2=1.0, sia_enabled=True)


class TestSiaTransform:
    def test_constant_block_annihilated(self, proj):
        s = np.full(proj.N, 1 - 2j)
        assert np.abs(apply_projector(s, proj)).max() < 1e-12

    def test_comb_bins_zeroed(self, proj):
        rng = make_rng(0)
        for _ in range(10):
            s = qpsk_block(rng, proj.N)
            fd = dft(apply_projector(s, proj))
            assert np.abs(fd[:: proj.Q]).max() < 1e-12

    def test_off_comb_bins_untouched(self, proj):
        rng = make_rng(1)
        s = qpsk_block(rng, proj.N)
        fd_s = dft(s)
        fd_t = dft(apply_projector(s, proj))
        mask = np.ones(proj.N, bool)
        mask[:: proj.Q] = False
        assert np.abs(fd_t[mask] - fd_s[mask]).max() < 1e-12

    def test_dimension_mismatch(self, proj):
        with pytest.raises(ValueError):
            apply_projector(np.ones(proj.N + 1), proj)


class TestProjector:
    def test_idempotence(self, proj):
        v = make_rng(2).standard_normal(proj.N) * (1 + 1j)
        once = apply_projector(v, proj)
        assert np.abs(apply_projector(once, proj) - once).max() < 1e-12

    def test_dense_oracle(self):
        proj = SiaProjector(P=4, Q=8)
        v = make_rng(3).standard_normal(32) + 1j * make_rng(4).standard_normal(32)
        assert np.abs(apply_projector(v, proj) - projector_dense(proj.P, proj.Q) @ v).max() < 1e-12

    def test_kernel_vectors_annihilated(self, proj):
        period = make_rng(5).standard_normal(proj.P)
        v = np.tile(period, proj.Q)
        assert np.abs(apply_projector(v, proj)).max() < 1e-12

    def test_dense_algebra(self):
        proj = SiaProjector(P=4, Q=8)
        psi = projector_dense(proj.P, proj.Q)
        assert np.abs(psi - psi.T).max() < 1e-12
        assert np.abs(psi @ psi - psi).max() < 1e-12
        assert np.abs(np.linalg.pinv(psi) - psi).max() < 1e-10
        assert np.linalg.matrix_rank(psi) == proj.N - proj.P

    def test_cyclic_mean_structure(self, proj):
        v = np.arange(proj.N, dtype=float)
        jm = cyclic_mean(v, proj)
        # per-residue-class means, tiled with period P
        np.testing.assert_allclose(jm[: proj.P], jm[proj.P : 2 * proj.P])
        assert jm[0] == pytest.approx(np.mean(v[:: proj.P]))


    @pytest.mark.parametrize("P, Q", [(8, 16), (4, 3), (6, 5)])
    def test_cyclic_mean_bits_equal_numpy_mean(self, P, Q):
        proj = SiaProjector(P=P, Q=Q)
        rng = make_rng(11)
        z = rng.standard_normal((3, proj.N)) + 1j * rng.standard_normal((3, proj.N))
        for v in (z, z[0], z.real, z[:, ::-1], np.arange(proj.N), z.real > 0):
            segs = v.reshape(*v.shape[:-1], Q, P)
            expected = np.broadcast_to(segs.mean(axis=-2, keepdims=True), segs.shape)
            np.testing.assert_array_equal(cyclic_mean(v, proj), expected.reshape(v.shape))


class TestComposeTx:
    def test_sia_off_no_pilot_passthrough(self):
        cfg = PilotConfig(P=8, Q=16, sigma_p2=0.0, sia_enabled=False)
        s = qpsk_block(make_rng(6), cfg.N)
        np.testing.assert_array_equal(compose_tx(s, np.zeros(cfg.N), cfg), s)

    def test_data_power_after_projection(self, cfg, proj):
        rng = make_rng(7)
        total = 0.0
        blocks = 10_000
        for _ in range(100):
            s = qpsk_block(rng, (100, proj.N))
            total += np.sum(np.abs(apply_projector(s, proj)) ** 2)
        avg = total / (blocks * proj.N)
        assert avg == pytest.approx((1 - 1 / 16), rel=0.01)

    def test_comb_bins_carry_only_pilot(self, cfg):
        s = qpsk_block(make_rng(8), cfg.N)
        x = compose_tx(s, chu_pilot(cfg), cfg)
        fd_x = dft(x)[:: cfg.Q]
        fd_p = dft(chu_pilot(cfg))[:: cfg.Q]
        assert np.abs(fd_x - fd_p).max() < 1e-12

    def test_total_power_budget(self, cfg):
        # pilot (1-1/Q) + projected data (1-1/Q): measured, per the
        # rebalancing rule taken literally
        rng = make_rng(9)
        s = qpsk_block(rng, (10_000, cfg.N))
        x = compose_tx(s, chu_pilot(cfg), cfg)
        measured = np.mean(np.abs(x) ** 2)
        expected = 2 * (1 - 1 / 16)
        assert measured == pytest.approx(expected, rel=0.01)


def qpsk_strategy(n):
    return st.lists(st.sampled_from([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]),
                    min_size=n, max_size=n)


@settings(max_examples=50, deadline=None)
@given(qpsk_strategy(24))
def test_alignment_contract_property(sym):
    proj = SiaProjector(P=4, Q=6)
    s = np.array(sym) / np.sqrt(2)
    fd = dft(apply_projector(s, proj))
    bound = 1e-12 * max(np.linalg.norm(s), 1.0)
    assert np.abs(fd[:: proj.Q]).max() < bound
