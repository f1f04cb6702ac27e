"""Group arithmetic and injective symbol maps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hybridldpc.groups import (
    MAX_ORDER,
    SymbolMap,
    bits_per_symbol,
    identity_map,
    random_injective_map,
    symbol_weights,
    validate_order,
)

ORDERS = [2, 4, 8, 16, 32, 64, 128, 256]


def test_validate_order_accepts_powers_of_two():
    for q in ORDERS:
        assert validate_order(q) == q


@pytest.mark.parametrize("bad", [0, 1, 3, 6, 12, 100, 512, -4])
def test_validate_order_rejects(bad):
    with pytest.raises(ValueError):
        validate_order(bad)


def test_validate_order_rejects_non_int():
    with pytest.raises(TypeError):
        validate_order(8.0)


def test_bits_per_symbol():
    assert [bits_per_symbol(q) for q in ORDERS] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_symbol_weights_popcount():
    w = symbol_weights(256)
    expect = [bin(a).count("1") for a in range(256)]
    assert w.tolist() == expect


def test_identity_map_fixed_points():
    for q in [2, 8, 64]:
        m = identity_map(q)
        assert m.is_identity
        assert m.apply_table.tolist() == list(range(q))
        assert m.code() == "i"


def test_identity_map_is_shared_per_order():
    # a code holds one identity per same-order edge; they are one object
    assert identity_map(8) is identity_map(8)
    assert identity_map(np.int64(8)) is identity_map(8)
    assert type(identity_map(np.int64(16)).in_order) is int
    assert SymbolMap.from_code("i", 8, 8) is identity_map(8)
    assert identity_map(8) is not identity_map(16)


def test_map_rejects_dependent_columns():
    with pytest.raises(ValueError):
        SymbolMap(4, 8, (3, 3))
    with pytest.raises(ValueError):
        SymbolMap(4, 8, (5, 0))


def test_map_rejects_shrinking():
    with pytest.raises(ValueError):
        random_injective_map(np.random.default_rng(0), 8, 4)


@given(st.sampled_from([(2, 4), (2, 8), (4, 8), (4, 16), (8, 64)]),
       st.integers(0, 2**32 - 1))
def test_random_map_is_injective_linear(orders, seed):
    qi, qo = orders
    m = random_injective_map(np.random.default_rng(seed), qi, qo)
    table = m.apply_table
    assert len(set(table.tolist())) == qi
    assert table[0] == 0
    for a in range(qi):
        for b in range(qi):
            assert table[a ^ b] == table[a] ^ table[b]


def test_image_is_subgroup():
    m = random_injective_map(np.random.default_rng(7), 8, 32)
    img = set(m.apply_table.tolist())
    for a in img:
        for b in img:
            assert (a ^ b) in img


def test_matrix_matches_apply():
    m = random_injective_map(np.random.default_rng(5), 8, 32)
    # binary matrix of shape (out bits, in bits): column j is cols[j]
    mat = np.array([[(c >> i) & 1 for c in m.cols] for i in range(5)], dtype=np.uint8)
    for x in range(8):
        bits = np.array([(x >> i) & 1 for i in range(3)], dtype=np.uint8)
        out_bits = mat @ bits % 2
        out = int((out_bits << np.arange(5)).sum())
        assert out == m.apply_table[x]


def test_code_roundtrip():
    rng = np.random.default_rng(11)
    for qi, qo in [(2, 2), (2, 16), (4, 256), (8, 8)]:
        m = random_injective_map(rng, qi, qo)
        again = SymbolMap.from_code(m.code(), qi, qo)
        assert again.cols == m.cols


def test_count_injective_maps_brute_force():
    # the constructor accepts exactly the full-rank column sets:
    # prod_i (q_out - 2^i) of them
    for qi, qo in [(2, 4), (2, 8), (4, 8), (4, 16)]:
        p_in = bits_per_symbol(qi)
        count = 0
        for cols in itertools.product(range(qo), repeat=p_in):
            m = None
            try:
                m = SymbolMap(qi, qo, cols)
            except ValueError:
                continue
            count += 1
        assert count == math.prod(qo - (1 << i) for i in range(p_in))


def test_max_order():
    assert MAX_ORDER == 256
