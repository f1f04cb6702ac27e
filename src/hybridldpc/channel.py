"""Binary-input AWGN channel with BPSK mapping and LLR conversion.

Bits are mapped to +1/-1 (bit b to 1-2b), white Gaussian noise of variance
sigma^2 is added, and the receiver works with log likelihood ratios. The
bitwise LLR is 2y/sigma^2; under the all-zero word it is Gaussian with mean
m_bc = 2/sigma^2 and variance 2*m_bc. Symbolwise LLR vectors collect bit
LLRs: component a (a nonzero symbol) is the sum of the bit LLRs at the
positions where a has a one, so its mean is m_bc times the bit weight of a.

Convention: LLR_a = log(P(v=0|y) / P(v=a|y)). Arrays passed around the
decoder carry all q components with component 0 identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hybridldpc.groups import bits_per_symbol

# Channel bit LLR clip: keeps exp/log finite for symbol LLRs built from
# bits. 50 is about 16 sigma out at the worst operating points used here,
# so it rarely binds on received values. It does not bound decoder
# messages: those grow past 50 as decoding converges, and the decoder caps
# their spread at its own, lower codec.MSG_CLIP, which binds on most edges
# of a converging frame. Clips are referenced to a permutation-invariant
# anchor (per-bit sign window here, per-message spread in the decoder) so
# they commute with relabeling the transmitted codeword; a fixed window
# around component 0 would not.
LLR_CLIP = 50.0

__all__ = ["ChannelParams", "LLR_CLIP", "transmit", "bit_llr", "symbol_llr_array"]


@dataclass(frozen=True)
class ChannelParams:
    """BI-AWGN channel, parameterized by the noise standard deviation."""

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def noise_var(self) -> float:
        return self.sigma * self.sigma

    @property
    def m_bc(self) -> float:
        """Mean of the bitwise LLR under the all-zero word: 2/sigma^2."""
        return 2.0 / (self.sigma * self.sigma)

    @classmethod
    def from_ebn0_db(cls, ebn0_db: float, rate: float) -> "ChannelParams":
        """Channel at a given Eb/N0 in dB for a code of the given rate."""
        if not 0 < rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
        return cls(math.sqrt(sigma2))


def transmit(bits: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """BPSK modulate and add white Gaussian noise."""
    bits = np.asarray(bits)
    return (1.0 - 2.0 * bits) + rng.normal(0.0, params.sigma, size=bits.shape)


def bit_llr(y: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Bitwise LLR of received values: 2y/sigma^2."""
    return (2.0 / params.noise_var) * np.asarray(y, dtype=np.float64)


def symbol_llr_array(bit_llrs: np.ndarray, order: int) -> np.ndarray:
    """Symbol LLR components for batched bit LLRs.

    ``bit_llrs`` has shape (..., p); the result has shape (..., q) with
    component a equal to the sum of the bit LLRs selected by the bits of a
    (component 0 is zero). Bit LLRs are clipped to +-LLR_CLIP before the
    sums, so components are bounded by p * LLR_CLIP.
    """
    p = bits_per_symbol(order)
    bit_llrs = np.asarray(bit_llrs, dtype=np.float64)
    if bit_llrs.shape[-1] != p:
        raise ValueError(f"expected {p} bit LLRs per symbol, got {bit_llrs.shape[-1]}")
    bit_llrs = np.clip(bit_llrs, -LLR_CLIP, LLR_CLIP)
    # selector[a, b] = bit b of a
    a = np.arange(order, dtype=np.uint32)
    selector = ((a[:, None] >> np.arange(p)[None, :]) & 1).astype(np.float64)
    return bit_llrs @ selector.T

