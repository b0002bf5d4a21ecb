from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnsim.config import ConfigError, FtnConfig
from ftnsim.core import dft, make_rng
from ftnsim.detector import ista_detect
from ftnsim.pilot import apply_projector, chu_pilot, compose_tx
from oracles import cyclic_mean, projector_dense

# projector geometry and pilot power of the default config: N = P * Q
P, Q = 8, 16
N = P * Q
SIGMA_P2 = 1 - 1 / Q


def qpsk_block(rng, n):
    a = np.sqrt(0.5)
    return a * (rng.choice([-1, 1], n) + 1j * rng.choice([-1, 1], n))


@pytest.fixture
def x_p():
    return chu_pilot(P, Q)


class TestChuPilot:
    def test_constant_modulus(self, x_p):
        np.testing.assert_allclose(np.abs(x_p) ** 2, SIGMA_P2, atol=1e-12)

    def test_comb_spectrum(self, x_p):
        x_fd = dft(x_p)
        mask = np.ones(N, bool)
        mask[::Q] = False
        off_comb = np.sum(np.abs(x_fd[mask]) ** 2)
        total = np.sum(np.abs(x_fd) ** 2)
        assert off_comb < 1e-20 * total

    def test_flat_comb_magnitudes(self, x_p):
        x_fd = dft(x_p)
        mags = np.abs(x_fd[::Q])
        assert (mags.max() - mags.min()) / mags.mean() < 1e-10

    def test_odd_period_flat_dft(self):
        mags = np.abs(dft(chu_pilot(7, 4))[::4])
        assert (mags.max() - mags.min()) / mags.mean() < 1e-10

    def test_q1_with_sia_rejected(self):
        # Q = 1 leaves the pilot power 1 - 1/Q at zero, with
        # alignment on or off; the same N = 8 config at Q = 2 is valid
        for sia in (True, False):
            FtnConfig(P=4, Q=2, nu=3, L=3, sia=sia).validate()
            with pytest.raises(ConfigError, match=r"^Q=1 < 2 leaves the pilot power"):
                FtnConfig(P=8, Q=1, nu=3, L=3, sia=sia).validate()


class TestSiaTransform:
    def test_constant_block_annihilated(self):
        s = np.full(N, 1 - 2j)
        assert np.abs(apply_projector(s, Q)).max() < 1e-12

    def test_comb_bins_zeroed(self):
        rng = make_rng(0)
        for _ in range(10):
            s = qpsk_block(rng, N)
            fd = dft(apply_projector(s, Q))
            assert np.abs(fd[::Q]).max() < 1e-12

    def test_off_comb_bins_untouched(self):
        rng = make_rng(1)
        s = qpsk_block(rng, N)
        fd_s = dft(s)
        fd_t = dft(apply_projector(s, Q))
        mask = np.ones(N, bool)
        mask[::Q] = False
        assert np.abs(fd_t[mask] - fd_s[mask]).max() < 1e-12

    def test_dimension_mismatch(self):
        for fn in (cyclic_mean, apply_projector, partial(ista_detect, n_iter=3)):
            with pytest.raises(ValueError):
                fn(np.ones(N + 1), Q)
            with pytest.raises(ValueError):
                fn(np.ones(N), 0)


class TestProjector:
    def test_idempotence(self):
        v = make_rng(2).standard_normal(N) * (1 + 1j)
        once = apply_projector(v, Q)
        assert np.abs(apply_projector(once, Q) - once).max() < 1e-12

    def test_dense_oracle(self):
        v = make_rng(3).standard_normal(32) + 1j * make_rng(4).standard_normal(32)
        assert np.abs(apply_projector(v, 8) - projector_dense(4, 8) @ v).max() < 1e-12

    def test_kernel_vectors_annihilated(self):
        period = make_rng(5).standard_normal(P)
        v = np.tile(period, Q)
        assert np.abs(apply_projector(v, Q)).max() < 1e-12

    def test_dense_algebra(self):
        psi = projector_dense(4, 8)
        assert np.abs(psi - psi.T).max() < 1e-12
        assert np.abs(psi @ psi - psi).max() < 1e-12
        assert np.abs(np.linalg.pinv(psi) - psi).max() < 1e-10
        assert np.linalg.matrix_rank(psi) == 32 - 4

    def test_cyclic_mean_structure(self):
        v = np.arange(N, dtype=float)
        jm = cyclic_mean(v, Q)
        # per-residue-class means, tiled with period P
        np.testing.assert_allclose(jm[:P], jm[P : 2 * P])
        assert jm[0] == pytest.approx(np.mean(v[::P]))


    @pytest.mark.parametrize("P, Q", [(8, 16), (4, 3), (6, 5)])
    def test_cyclic_mean_bits_equal_numpy_mean(self, P, Q):
        n = P * Q
        rng = make_rng(11)
        z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for v in (z, z[0], z.real, z[:, ::-1], np.arange(n), z.real > 0):
            segs = v.reshape(*v.shape[:-1], Q, P)
            expected = np.broadcast_to(segs.mean(axis=-2, keepdims=True), segs.shape)
            np.testing.assert_array_equal(cyclic_mean(v, Q), expected.reshape(v.shape))
            np.testing.assert_array_equal(apply_projector(v, Q), v - cyclic_mean(v, Q))


class TestComposeTx:
    def test_sia_off_no_pilot_passthrough(self):
        s = qpsk_block(make_rng(6), N)
        np.testing.assert_array_equal(compose_tx(s, np.zeros(N), Q, sia=False), s)

    def test_sia_bits_equal_projected_data_plus_pilot(self, x_p):
        for shape in (N, (3, N)):
            s = qpsk_block(make_rng(10), shape)
            np.testing.assert_array_equal(compose_tx(s, x_p, Q, sia=True),
                                          apply_projector(s, Q) + x_p)

    def test_sia_real_data_promotes_to_complex(self, x_p):
        s = make_rng(12).standard_normal(N)
        x = compose_tx(s, x_p, Q, sia=True)
        assert x.dtype == complex
        np.testing.assert_array_equal(x, apply_projector(s, Q) + x_p)

    def test_data_power_after_projection(self):
        rng = make_rng(7)
        total = 0.0
        blocks = 10_000
        for _ in range(100):
            s = qpsk_block(rng, (100, N))
            total += np.sum(np.abs(apply_projector(s, Q)) ** 2)
        avg = total / (blocks * N)
        assert avg == pytest.approx((1 - 1 / 16), rel=0.01)

    def test_comb_bins_carry_only_pilot(self, x_p):
        s = qpsk_block(make_rng(8), N)
        x = compose_tx(s, x_p, Q, sia=True)
        fd_x = dft(x)[::Q]
        fd_p = dft(x_p)[::Q]
        assert np.abs(fd_x - fd_p).max() < 1e-12

    @pytest.mark.parametrize("sia", [True, False])
    def test_fold_commutes_with_compose(self, x_p, sia):
        # fold_Q(compose_tx(s, x_p, Q)) = compose_tx(fold_Q s, fold_Q x_p, 1):
        # the fold of Psi s is 0, and so is the 1-fold projector
        def fold(v):
            return v.reshape(*v.shape[:-1], Q, P).sum(axis=-2)

        rng = make_rng(13)
        s = rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))
        np.testing.assert_allclose(compose_tx(fold(s), fold(x_p), 1, sia),
                                   fold(compose_tx(s, x_p, Q, sia)), rtol=0, atol=1e-13)
        if sia:
            np.testing.assert_array_equal(compose_tx(fold(s), np.zeros(P), 1, sia), 0.0)

    def test_total_power_budget(self, x_p):
        # pilot (1-1/Q) + projected data (1-1/Q): measured, per the
        # rebalancing rule taken literally
        rng = make_rng(9)
        s = qpsk_block(rng, (10_000, N))
        x = compose_tx(s, x_p, Q, sia=True)
        measured = np.mean(np.abs(x) ** 2)
        expected = 2 * (1 - 1 / 16)
        assert measured == pytest.approx(expected, rel=0.01)


def qpsk_strategy(n):
    return st.lists(st.sampled_from([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]),
                    min_size=n, max_size=n)


@settings(max_examples=50, deadline=None)
@given(qpsk_strategy(24))
def test_alignment_contract_property(sym):
    s = np.array(sym) / np.sqrt(2)   # N = 24 = P * Q with P = 4, Q = 6
    fd = dft(apply_projector(s, 6))
    bound = 1e-12 * max(np.linalg.norm(s), 1.0)
    assert np.abs(fd[::6]).max() < bound
