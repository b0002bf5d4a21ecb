import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnsim import core, harness
from ftnsim.config import FtnConfig
from ftnsim.core import (circulant_matvec, complex_gaussian, dft, dft_rows, idft, idft_cols,
                         make_rng)
from oracles import NotPSDError, build_isi_toeplitz, circulant_dense, psd_factor


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDft:
    def test_first_column(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), 0.5 * np.ones(4), atol=1e-15)

    def test_round_trip(self, rng):
        for n in [1, 2, 7, 64, 4096]:
            x = random_complex(rng, n)
            assert np.abs(idft(dft(x)) - x).max() < 1e-12

    def test_parseval(self, rng):
        x = random_complex(rng, 129)
        assert np.linalg.norm(dft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft(np.array([]))

    def test_bits_match_numpy_sqrt_scaling(self, rng):
        for n in [1, 7, 128]:
            x = random_complex(rng, n)
            np.testing.assert_array_equal(dft(x), np.fft.fft(x) / np.sqrt(n))
            np.testing.assert_array_equal(idft(x), np.fft.ifft(x) * np.sqrt(n))


class TestDftRows:
    def test_product_is_zero_padded_fft(self, rng):
        for m, n in [(1, 1), (1, 16), (3, 8), (8, 8), (8, 128), (5, 37)]:
            v = random_complex(rng, m)
            ref = np.fft.fft(v, n)
            rel = np.abs(v @ dft_rows(m, n) - ref).max() / np.abs(ref).max()
            assert rel < 1e-13

    def test_batched_rows(self, rng):
        v = rng.standard_normal((6, 4, 8)) + 1j * rng.standard_normal((6, 4, 8))
        ref = np.fft.fft(v, 128, axis=-1)
        assert np.abs(v @ dft_rows(8, 128) - ref).max() / np.abs(ref).max() < 1e-13

    def test_cached_and_read_only(self):
        f = dft_rows(4, 16)
        assert f is dft_rows(4, 16) and f.shape == (4, 16)
        with pytest.raises(ValueError):
            f[0, 0] = 0.0

    def test_bad_sizes_rejected(self):
        for m, n in [(0, 4), (5, 4)]:
            with pytest.raises(ValueError):
                dft_rows(m, n)


class TestIdftCols:
    def test_product_is_truncated_ifft(self, rng):
        for n, m in [(1, 1), (8, 1), (8, 8), (16, 8), (37, 5)]:
            for shape in [(n,), (3, n)]:
                v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                ref = np.fft.ifft(v, axis=-1)[..., :m]
                assert np.abs(v @ idft_cols(n, m) - ref).max() / np.abs(ref).max() < 1e-13

    def test_cached_and_read_only(self):
        f = idft_cols(16, 4)
        assert f is idft_cols(16, 4) and f.shape == (16, 4)
        with pytest.raises(ValueError):
            f[0, 0] = 0.0


class TestCirculantEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(np.fft.fft([1, 0, 0, 0]),
                                   np.ones(4), atol=1e-15)

    def test_cyclic_shift(self):
        n = 8
        lam = np.fft.fft(np.eye(n)[1])
        expected = np.exp(-2j * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(lam, expected, atol=1e-14)

    def test_dense_oracle_n8(self, rng):
        c = random_complex(rng, 8)
        lam = np.fft.fft(c)
        f = np.fft.fft(np.eye(8)) / np.sqrt(8)
        reconstructed = f.conj().T @ np.diag(lam) @ f
        assert np.abs(reconstructed - circulant_dense(c)).max() < 1e-10

    def test_dense_oracle_many_sizes(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 65))
            c = random_complex(rng, n)
            lam = np.fft.fft(c)
            f = np.fft.fft(np.eye(n)) / np.sqrt(n)
            rec = f.conj().T @ np.diag(lam) @ f
            assert np.abs(rec - circulant_dense(c)).max() < 1e-10


class TestCirculantMatvec:
    def test_bits_match_eigenvalue_product_form(self, rng):
        # the in-place product keeps the operand order lam * fft(x)
        for shape in [(64,), (5, 64)]:
            lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            np.testing.assert_array_equal(circulant_matvec(lam, x),
                                          np.fft.ifft(lam * np.fft.fft(x, axis=-1), axis=-1))

    def test_eigenvalues_wider_than_x(self, rng):
        # a stack of operators applied to one block, as the plain product allows
        lam = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = circulant_matvec(lam, x)
        assert y.shape == (4, 64)
        np.testing.assert_array_equal(y, np.fft.ifft(lam * np.fft.fft(x), axis=-1))


class TestPsdFactor:
    def test_identity(self):
        b, clipped = psd_factor(np.eye(4))
        np.testing.assert_allclose(b @ b.conj().T, np.eye(4), atol=1e-12)
        assert clipped == 0

    def test_isi_matrix(self):
        g = build_isi_toeplitz(tau=0.8, beta=0.5, nu=10, N=32)
        b, _ = psd_factor(g.astype(complex))
        assert np.abs(b @ b.conj().T - g).max() < 1e-8

    def test_indefinite_rejected(self):
        m = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPSDError):
            psd_factor(m)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError):
            psd_factor(rng.standard_normal((3, 3)) + np.eye(3) * 5)

    def test_reconstruction_without_clipping(self, rng):
        a = random_complex(rng, 6 * 6).reshape(6, 6)
        m = a @ a.conj().T + np.eye(6)
        b, clipped = psd_factor(m)
        assert clipped == 0
        rel = np.linalg.norm(b @ b.conj().T - m) / np.linalg.norm(m)
        assert rel < 1e-8


class TestComplexGaussian:
    def test_zero_variance(self):
        np.testing.assert_array_equal(complex_gaussian(5, 0.0, make_rng(1)),
                                      np.zeros(5))

    def test_sample_variance(self):
        z = complex_gaussian(100_000, 2.0, make_rng(99))
        assert 1.96 < np.mean(np.abs(z) ** 2) < 2.04

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            complex_gaussian(4, -1.0, make_rng(1))

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -1.0])
    def test_nan_infinite_or_negative_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="0 <= variance < inf"):
            complex_gaussian(4, variance, make_rng(1))

    def test_bits_match_two_draw_sum(self):
        # the real draw, then the imaginary draw, each scaled by sqrt(variance/2)
        for shape in [16, (3, 16)]:
            z = complex_gaussian(shape, 0.7, make_rng(4))
            rng = make_rng(4)
            ref = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.35)
            np.testing.assert_array_equal(z, ref)

    def test_deterministic_repeat(self):
        a = complex_gaussian(32, 1.0, make_rng(7, 3))
        b = complex_gaussian(32, 1.0, make_rng(7, 3))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = complex_gaussian(32, 1.0, make_rng(7, 0))
        b = complex_gaussian(32, 1.0, make_rng(7, 1))
        assert not np.allclose(a, b)


# the int boundaries of SeedSequence's uint32 words and of make_rng's
# 256-stream memo blocks, and keys past them
_KEYS = (0, 1, 2, 255, 256, 257, 12345, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**40, 2**64 - 1,
         2**64 + 5)


class TestMakeRng:
    @pytest.mark.parametrize("seed", _KEYS)
    def test_same_generator_as_default_rng(self, seed):
        for stream in _KEYS:
            for sub in (None, *_KEYS):
                key = [seed, stream] if sub is None else [seed, stream, sub]
                want = np.random.default_rng(key).bit_generator.state
                assert make_rng(seed, stream, sub).bit_generator.state == want

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (0, 0, -1), (2**40, -1)])
    def test_negative_key_rejected(self, key):
        with pytest.raises(ValueError):
            make_rng(*key)


class TestMakeRngMemo:
    """make_rng hashes the keys of 256 consecutive streams per memo block."""

    def test_call_order_does_not_matter(self):
        core._state_block.cache_clear()
        first = np.random.default_rng([3, 300, 1]).random(8)
        assert np.array_equal(make_rng(3, 300, 1).random(8), first)
        make_rng(3, 5, 1)
        assert np.array_equal(make_rng(3, 300, 1).random(8), first)
        core._state_block.cache_clear()
        assert np.array_equal(make_rng(3, 300, 1).random(8), first)
        maxsize = core._state_block.cache_info().maxsize
        for seed in range(100, 100 + maxsize + 1):
            make_rng(seed, 300, 1)
        misses = core._state_block.cache_info().misses
        assert np.array_equal(make_rng(3, 300, 1).random(8), first)
        assert core._state_block.cache_info().misses == misses + 1

    def test_spawn_only_off_the_memo(self):
        # spawn needs a SeedSequence: default_rng's generators at stream 256 k
        # and outside the memo's key range have one, memo generators do not
        for key in [(7, 0, 1), (7, 256, 1), (2**64, 5, 1), (7, 2**32 + 1, 1), (7, 5, 2**32)]:
            child, = make_rng(*key).spawn(1)
            assert isinstance(child, np.random.Generator)
        with pytest.raises(TypeError):
            make_rng(7, 257, 1).spawn(1)

    def test_same_key_gives_independent_generators(self):
        a, b = make_rng(9, 42, 2), make_rng(9, 42, 2)
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.standard_normal(16)
        assert np.array_equal(b.standard_normal(16), first)
        assert np.array_equal(a.standard_normal(16), make_rng(9, 42, 2).standard_normal(32)[16:])
        assert not core._state_block(9, 0, 2).flags.writeable
        # the seed sequence only holds PCG64's seeding state: no spawning
        with pytest.raises(TypeError):
            a.spawn(1)
        with pytest.raises(ValueError):
            a.bit_generator.seed_seq.generate_state(8)

    def test_sweep_csv_same_with_cold_and_warm_memo(self, tmp_path, monkeypatch):
        def csv_bytes(cfg, name):
            path = harness.emit_results(harness.run_sweep(cfg), "csv", str(tmp_path / name))[0]
            return open(path, "rb").read()

        for seed in (FtnConfig().seed, 2**32 + 7):
            cfg = replace(FtnConfig(), min_trials=20, max_trials=20, target_bit_errors=10**9,
                          ebn0_grid_db=(4.0, 8.0), seed=seed)
            core._state_block.cache_clear()
            cold = csv_bytes(cfg, f"cold-{seed}")
            hits = core._state_block.cache_info().hits
            warm = csv_bytes(cfg, f"warm-{seed}")
            assert core._state_block.cache_info().hits > hits
            with monkeypatch.context() as m:
                m.setattr(harness, "make_rng", lambda seed, stream, sub:
                          np.random.default_rng([seed, stream, sub]))
                plain = csv_bytes(cfg, f"plain-{seed}")
            assert cold == warm == plain

    @pytest.mark.parametrize("seed", [12345, 2**32 + 7, 2**64 - 1])
    def test_block_hashed_from_second_stream_on(self, seed):
        # stream 256 k goes through default_rng; the memo serves the rest of
        # its block, at seeds >= 2**32 too
        core._state_block.cache_clear()
        make_rng(seed, 256, 1)
        assert core._state_block.cache_info().misses == 0
        make_rng(seed, 1, 1)
        assert core._state_block.cache_info().misses == 1
        make_rng(seed, 255, 1)
        make_rng(seed, 257, 1)
        assert core._state_block.cache_info().misses == 2

    def test_one_chunk_ce_mse_hashes_no_block(self):
        # simulate_ce_mse keys only stream 0 when one chunk covers its trials
        cfg = FtnConfig()
        sv2 = harness.ebn0_to_sigma_v2(cfg, 8.0)
        for seed in (4321, 2**32 + 4321):
            misses = core._state_block.cache_info().misses
            harness.simulate_ce_mse(cfg, cfg.tau, sv2, 100, seed=seed)
            assert core._state_block.cache_info().misses == misses


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1), st.integers(0, 2**32 - 1),
       st.none() | st.integers(0, 2**32 - 1))
def test_make_rng_same_as_default_rng_property(seed, stream, sub):
    key = [seed, stream] if sub is None else [seed, stream, sub]
    want, got = np.random.default_rng(key), make_rng(seed, stream, sub)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(4), want.random(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=256), st.integers(min_value=0))
def test_dft_round_trip_property(n, seed):
    x = np.random.default_rng(seed % 2**32).standard_normal(n) * 1j
    assert np.abs(idft(dft(x)) - x).max() < 1e-12
