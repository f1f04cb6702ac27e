"""Arithmetic for the symbol groups of hybrid LDPC codes.

Symbols take values in the additive group of bit vectors of length p,
represented as Python ints in ``range(2**p)``. Addition is bitwise XOR.
Code symbols of different classes may live in groups of different order;
an edge connecting a variable in a small group to a check in a larger
group carries an injective linear map between the two, represented here
by :class:`SymbolMap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 256

__all__ = [
    "MAX_ORDER",
    "bits_per_symbol",
    "validate_order",
    "symbol_weights",
    "SymbolMap",
    "identity_map",
    "random_injective_map",
]


def validate_order(order: int) -> int:
    """Check that ``order`` is a supported group order (power of two in 2..256)."""
    if not isinstance(order, (int, np.integer)):
        raise TypeError(f"group order must be an int, got {type(order).__name__}")
    order = int(order)
    if order < 2 or order > MAX_ORDER or order & (order - 1):
        raise ValueError(f"group order must be a power of two in [2, {MAX_ORDER}], got {order}")
    return order


def bits_per_symbol(order: int) -> int:
    """Number of bits carried by one symbol of the given group order."""
    return validate_order(order).bit_length() - 1


@lru_cache(maxsize=None)
def symbol_weights(order: int) -> np.ndarray:
    """Bit weights of all symbols 0..order-1, as an int array."""
    validate_order(order)
    vals = np.arange(order, dtype=np.uint32)
    w = np.zeros(order, dtype=np.int64)
    while vals.any():
        w += vals & 1
        vals >>= 1
    return w


def _rank_f2(cols: tuple[int, ...]) -> int:
    # Gaussian elimination on bit masks.
    basis: list[int] = []
    for c in cols:
        for b in basis:
            c = min(c, c ^ b)
        if c:
            basis.append(c)
            basis.sort(reverse=True)
    return len(basis)


@dataclass(frozen=True)
class SymbolMap:
    """Injective linear map from symbols of ``in_order`` into ``out_order``.

    ``cols[i]`` is the image of the i-th unit vector, stored as a bit mask
    over the output group. Applying the map to symbol x XORs the columns
    selected by the bits of x. Full column rank is required at creation,
    which makes the map injective and its image a subgroup of the output
    group (linear span is XOR closed).
    """

    in_order: int
    out_order: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        validate_order(self.in_order)
        validate_order(self.out_order)
        if self.in_order > self.out_order:
            raise ValueError(
                f"map must not shrink the group: in_order={self.in_order} > out_order={self.out_order}"
            )
        p_in = bits_per_symbol(self.in_order)
        if len(self.cols) != p_in:
            raise ValueError(f"expected {p_in} columns, got {len(self.cols)}")
        if any(not 0 <= c < self.out_order for c in self.cols):
            raise ValueError("column mask out of range for output group")
        if _rank_f2(self.cols) != p_in:
            raise ValueError("map columns are linearly dependent, map would not be injective")

    @property
    def is_identity(self) -> bool:
        return self.in_order == self.out_order and all(
            c == (1 << i) for i, c in enumerate(self.cols)
        )

    @property
    def apply_table(self) -> np.ndarray:
        """Images of all input symbols in order, shape (in_order,)."""
        return _apply_table_cached(self.in_order, self.out_order, self.cols)

    def code(self) -> str:
        """Compact text form: 'i' for identity, else dot-joined hex column masks."""
        if self.is_identity:
            return "i"
        return ".".join(format(c, "x") for c in self.cols)

    @classmethod
    def from_code(cls, code: str, in_order: int, out_order: int) -> "SymbolMap":
        if code == "i":
            if in_order != out_order:
                raise ValueError("identity map code requires equal group orders")
            return identity_map(in_order)
        cols = tuple(int(tok, 16) for tok in code.split("."))
        return cls(in_order, out_order, cols)


@lru_cache(maxsize=4096)
def _apply_table_cached(in_order: int, out_order: int, cols: tuple[int, ...]) -> np.ndarray:
    table = np.zeros(in_order, dtype=np.int64)
    for x in range(in_order):
        out = 0
        for i, c in enumerate(cols):
            if (x >> i) & 1:
                out ^= c
        table[x] = out
    table.setflags(write=False)
    return table


def identity_map(order: int) -> SymbolMap:
    """The identity of G(order), one shared instance per order (a code
    holds one per same-order edge, and a SymbolMap is immutable)."""
    return _identity_map(validate_order(order))


@lru_cache(maxsize=None)
def _identity_map(order: int) -> SymbolMap:
    return SymbolMap(order, order, tuple(1 << i for i in range(bits_per_symbol(order))))


def random_injective_map(rng: np.random.Generator, in_order: int, out_order: int) -> SymbolMap:
    """Uniform draw over injective maps; identity when the orders coincide.

    Edges joining a variable and a check of the same group order carry the
    identity (plain parity reuse), matching how same-order edges are treated
    throughout construction and encoding. For strictly growing maps the draw
    is uniform over full-column-rank column sets via rejection; acceptance
    probability is at worst prod(1 - 2^{i-p_out}) > 0.29.
    """
    validate_order(in_order)
    validate_order(out_order)
    if in_order == out_order:
        return identity_map(in_order)
    if in_order > out_order:
        raise ValueError("map must embed the smaller group into the larger one")
    p_in = bits_per_symbol(in_order)
    while True:
        cols = tuple(int(v) for v in rng.integers(0, out_order, size=p_in))
        if _rank_f2(cols) == p_in:
            return SymbolMap(in_order, out_order, cols)
