"""BI-AWGN channel model and LLR computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridldpc.channel import (
    LLR_CLIP,
    ChannelParams,
    bit_llr,
    symbol_llr_array,
    transmit,
)

from oracles import ebn0_db


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        ChannelParams(0.0)
    with pytest.raises(ValueError):
        ChannelParams(-1.0)


def test_m_bc():
    p = ChannelParams(0.5)
    assert p.m_bc == pytest.approx(8.0)
    assert p.noise_var == pytest.approx(0.25)


@given(st.floats(-3, 8), st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_ebn0_roundtrip(db, rate):
    p = ChannelParams.from_ebn0_db(db, rate)
    assert ebn0_db(p.sigma, rate) == pytest.approx(db, abs=1e-9)


def test_known_ebn0_point():
    # rate 1/2 at 0 dB: sigma^2 = 1
    p = ChannelParams.from_ebn0_db(0.0, 0.5)
    assert p.sigma == pytest.approx(1.0)


def test_transmit_bpsk_mapping(rng):
    p = ChannelParams(1e-9)
    bits = np.array([0, 1, 1, 0])
    y = transmit(bits, p, rng)
    assert np.allclose(y, [1, -1, -1, 1], atol=1e-6)


def test_transmit_noise_statistics():
    p = ChannelParams(0.8)
    rng = np.random.default_rng(42)
    y = transmit(np.zeros(200000, dtype=int), p, rng)
    noise = y - 1.0
    assert abs(noise.mean()) < 0.01
    assert noise.std() == pytest.approx(0.8, abs=0.01)


def test_bit_llr_scale():
    p = ChannelParams(0.5)
    y = np.array([1.0, -0.25])
    assert np.allclose(bit_llr(y, p), [8.0, -2.0])


def test_bit_llr_symmetry_mean():
    # under all-zero transmission the LLR mean is m_bc and variance 2*m_bc
    p = ChannelParams(0.9)
    rng = np.random.default_rng(7)
    l = bit_llr(transmit(np.zeros(400000, dtype=int), p, rng), p)
    assert l.mean() == pytest.approx(p.m_bc, rel=0.01)
    assert l.var() == pytest.approx(2 * p.m_bc, rel=0.02)


def test_symbol_llr_array_is_bit_sum():
    bl = np.array([1.0, -2.0, 0.5])
    full = symbol_llr_array(bl, 8)
    for a in range(8):
        want = sum(bl[b] for b in range(3) if (a >> b) & 1)
        assert full[a] == pytest.approx(want)


def test_symbol_llr_array_clips_bits_not_sums():
    # per-bit clip: components can exceed LLR_CLIP but each bit is capped
    bl = np.array([80.0, 40.0])
    full = symbol_llr_array(bl, 4)
    assert full[1] == LLR_CLIP
    assert full[3] == LLR_CLIP + 40.0
    # sign-symmetric, so the cap commutes with flipping transmitted bits
    flipped = symbol_llr_array(-bl, 4)
    assert np.allclose(flipped, -full)


def test_symbol_llr_array_batched():
    rng = np.random.default_rng(0)
    bl = rng.normal(size=(5, 7, 4))
    out = symbol_llr_array(bl, 16)
    assert out.shape == (5, 7, 16)
    assert np.allclose(out[..., 0], 0.0)
    one = symbol_llr_array(bl[2, 3], 16)
    assert np.allclose(out[2, 3], one)


def test_symbol_llr_wrong_length():
    with pytest.raises(ValueError):
        symbol_llr_array(np.zeros(3), 4)
