"""Encoder, WHT check convolution, and BP decoder behavior."""

import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridldpc import codec
from hybridldpc.channel import ChannelParams, transmit
from hybridldpc.codec import (
    MSG_CLIP,
    Decoder,
    channel_llrs,
    encode,
    loo_convolve,
    symbols_to_bits,
    syndrome,
    walsh_hadamard,
)
from hybridldpc.construction import HybridParityCheck, build_code, load_code
from hybridldpc.ensembles import Ensemble, fixture_path
from hybridldpc.groups import SymbolMap

from oracles import (
    CumprodBinaryDecoder,
    ReferenceBinaryBP,
    ReferenceVectorDecoder,
    bits_to_symbols,
    brute_force_posteriors,
    direct_loo_convolve,
    enumerate_codewords,
    posterior_llrs_to_probs,
    random_tree_code,
    reference_channel_llrs,
    reference_check_gathers,
    reference_loo_convolve,
    reference_syndrome,
    reference_walsh_hadamard,
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# build_code(r12_binary_irregular, 3008, seed=1), the code of the
# benchmark's binary campaign point
BINARY_3008 = os.path.join(ROOT, "perfbench", "codes", "r12_binary_irregular_3008_seed1.alist")


def small_hybrid() -> Ensemble:
    return Ensemble.from_factored(
        [2, 8],
        {2: 0.3, 3: 0.4, 8: 0.3},
        {6: 1.0},
        {2: {8: 1.0}, 3: {2: 1.0}, 8: {2: 0.3, 8: 0.7}},
    )


def test_walsh_hadamard_involution(rng):
    x = rng.normal(size=(5, 16))
    back = walsh_hadamard(walsh_hadamard(x)) / 16
    assert np.allclose(back, x, atol=1e-12)


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = eps / 2: a sum of n + 1
    terms, added in any order, is off by at most gamma_n times the sum of
    their magnitudes."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1 - n * u)


def test_walsh_hadamard_axis(rng):
    x = rng.normal(size=(4, 8))
    a = walsh_hadamard(x, axis=-2)
    b = walsh_hadamard(x.T, axis=-1).T
    assert np.allclose(a, b)
    # component axis leading, as the decoder stores check messages, the
    # last axis, and a strided input with the frame axis outside the
    # component axis. Each output adds q terms in an order the layout may
    # change: on integer values every order is exact, so all agree with
    # the butterfly reference bit for bit; on random values each, like the
    # reference, is within gamma_(q-1) sum|x| of the exact transform
    for q in (2, 4, 8, 16, 32, 64, 128, 256):
        ints = rng.integers(-8, 9, (q, 3, 5, 4)).astype(np.float64)
        for x, exact in ((ints, True), (rng.normal(size=ints.shape), False)):
            before = x.copy()
            lead = np.moveaxis(walsh_hadamard(x, axis=0), 0, -1)
            last = walsh_hadamard(np.moveaxis(x, 0, -1))
            staged = np.moveaxis(walsh_hadamard(np.moveaxis(x, 0, 1), axis=1), 1, -1)
            assert np.array_equal(x, before)
            want = reference_walsh_hadamard(np.moveaxis(x, 0, -1))
            bound = 2 * gamma(q - 1) * np.abs(x).sum(axis=0)[..., None]
            for got in (lead, last, staged):
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.all(np.abs(got - want) <= bound)


def test_walsh_hadamard_convolution_theorem(rng):
    # WHT diagonalizes XOR convolution
    q = 8
    f, g = rng.random(q), rng.random(q)
    conv = np.zeros(q)
    for a in range(q):
        for b in range(q):
            conv[a ^ b] += f[a] * g[b]
    hat = walsh_hadamard(f) * walsh_hadamard(g)
    assert np.allclose(walsh_hadamard(hat) / q, conv, atol=1e-12)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_loo_convolve_matches_direct(rng, q):
    probs = rng.random((3, 5, q))
    probs /= probs.sum(-1, keepdims=True)
    got = loo_convolve(probs)
    want = direct_loo_convolve(probs)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("q", [2, 8, 256])
def test_loo_convolve_component_axis(rng, q):
    # (q, F, C, j) with the component axis leading; the leave-one-out axis
    # is the last of the others. Counts of 0-3 keep every transform and
    # product an integer below 2^53, so both layouts equal the butterfly
    # reference bit for bit.
    counts = rng.integers(0, 4, (q, 2, 3, 4)).astype(np.float64)
    want = reference_loo_convolve(np.moveaxis(counts, 0, -1))
    assert np.array_equal(np.moveaxis(loo_convolve(counts, axis=0), 0, -1), want)
    assert np.array_equal(loo_convolve(np.moveaxis(counts, 0, -1)), want)
    probs = rng.random((q, 2, 3, 4))
    probs /= probs.sum(axis=0, keepdims=True)
    before = probs.copy()
    lead = loo_convolve(probs, axis=0)
    last = loo_convolve(np.moveaxis(probs, 0, -1))
    assert np.array_equal(probs, before)
    # To first order in eps, against exact arithmetic: each spectral value
    # is within gamma_(q-1) of one of magnitude at most 1, as each vector
    # sums to 1; a product of j - 1 of them is within (j - 1) gamma_(q-1)
    # + gamma_(j-2); the inverse transform adds gamma_(q-1) after the
    # division by q. Two layouts differ by at most twice that.
    j = probs.shape[-1]
    bound = 2 * (j * gamma(q - 1) + gamma(j - 2))
    assert np.abs(np.moveaxis(lead, 0, -1) - last).max() <= bound
    if q <= 8:
        want = direct_loo_convolve(np.moveaxis(probs, 0, -1))
        assert np.allclose(last, want, atol=1e-12)


def test_loo_convolve_degree_two(rng):
    # with two participants, each leave-one-out is just the other one
    probs = rng.random((1, 2, 8))
    probs /= probs.sum(-1, keepdims=True)
    out = loo_convolve(probs)
    assert np.allclose(out[0, 0], probs[0, 1])
    assert np.allclose(out[0, 1], probs[0, 0])


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("j", range(1, 10))
def test_leave_one_out_matches_explicit_products(rng, j, seeded):
    # Signed powers of two multiply exactly in any order, so the prefix
    # and suffix products must equal the explicit ones bit for bit. The
    # factors lie as the decoder's do: each position along j one strided
    # (F, C) slab.
    def powers(shape):
        return rng.choice([-1.0, 1.0], shape) * 2.0 ** rng.integers(-30, 31, shape)

    fac = np.moveaxis(powers((j, 3, 5)), 0, -1)
    seed = powers((3, 5)) if seeded else None
    before = fac.copy()
    out = np.moveaxis(np.full((j, 3, 5), np.nan), 0, -1)
    codec._leave_one_out(fac, out, seed=seed)
    assert np.array_equal(fac, before)
    for d in range(j):
        want = np.prod(np.delete(fac, d, axis=-1), axis=-1)
        if seeded:
            want = want * seed
        assert np.array_equal(out[..., d], want), d


@pytest.mark.parametrize("q", [2, 8, 16, 256])
@pytest.mark.parametrize("columns", [1, 2, 3, 17, 128, 384])
def test_inverse_transform_is_edge_major(rng, q, columns):
    # The inverse transform divides inside its factors and, from
    # _EDGE_MAJOR_COLUMNS columns on, writes each column's q values as one
    # contiguous run. On small integers every summation order is exact,
    # so it equals the forward transform divided by q bit for bit.
    x = rng.integers(-3, 4, (2, q, columns)).astype(np.float64)
    want = walsh_hadamard(x, axis=1) / q
    work = (np.empty(x.size), np.empty(x.size))
    for got in (walsh_hadamard(x, axis=1, inverse=True),
                walsh_hadamard(x, axis=1, work=work, inverse=True)):
        assert got.shape == x.shape
        assert np.array_equal(got, want)
        runs = np.moveaxis(got, 1, -1)
        edge_major = columns >= codec._EDGE_MAJOR_COLUMNS
        assert (runs if edge_major else got).flags.c_contiguous


def test_bits_symbols_roundtrip(rng):
    code = build_code(small_hybrid(), 600, seed=0)
    symbols = np.array([
        [int(rng.integers(q)) for q in code.var_groups] for _ in range(4)
    ])
    bits = symbols_to_bits(code, symbols)
    assert bits.shape == (4, code.n_bits)
    back = bits_to_symbols(code, bits, cols=slice(None))
    assert np.array_equal(back, symbols)
    info_only = bits_to_symbols(code, bits[:, : code.info_bits])
    assert np.array_equal(info_only, symbols[:, : code.n_info])


def test_encode_zero_maps_to_zero():
    code = build_code(small_hybrid(), 600, seed=1)
    cw = encode(code, np.zeros((1, code.n_info), dtype=np.int64))
    assert not cw.any()


def test_encode_zero_syndrome(rng):
    code = build_code(small_hybrid(), 900, seed=2)
    info = np.array([
        [int(rng.integers(q)) for q in code.var_groups[: code.n_info]]
        for _ in range(20)
    ])
    cw = encode(code, info)
    assert not syndrome(code, cw).any()


R16_HYBRID = os.path.join(ROOT, "fer_results", "codes", "r16_hybrid_g256g16g8_6144.alist")


@pytest.mark.parametrize("source", ["r12_hybrid_g8g2", "r16_hybrid_alist"])
def test_syndrome_matches_edge_by_edge_reference(source):
    if source == "r16_hybrid_alist":
        code = load_code(R16_HYBRID)
    else:
        code = build_code(Ensemble.load(fixture_path(source)), 1024, seed=1)
    assert not all(mp.is_identity for mp in code.edge_maps)
    rng = np.random.default_rng(4)
    words = np.stack([rng.integers(0, code.var_groups) for _ in range(6)])
    got = syndrome(code, words)
    assert np.array_equal(got, reference_syndrome(code, words))
    assert np.count_nonzero(got, axis=1).min() > code.m // 4  # not codewords


@pytest.mark.parametrize("source", [
    "perfbench/codes/r12_binary_irregular_3008_seed1.alist",
    "fer_results/codes/r16_hybrid_g256g16g8_6144.alist",
    "fer_results/codes/r16_gf256_regular_6144.alist",
    "r12_hybrid_g8g2"])
def test_channel_llrs_match_column_by_column_reference(source):
    # one symbol_llr_array call per column order gives the bits of one
    # call per column
    if source.endswith(".alist"):
        code = load_code(os.path.join(ROOT, source))
    else:
        code = build_code(Ensemble.load(fixture_path(source)), 1024, seed=1)
    params = ChannelParams.from_ebn0_db(1.0, code.rate())
    rng = np.random.default_rng(6)
    y = transmit(rng.integers(0, 2, (32, code.n_bits)), params, rng)
    assert np.array_equal(channel_llrs(code, y, params),
                          reference_channel_llrs(code, y, params))


@pytest.mark.parametrize("op, value", [
    ("encode", -1), ("encode", 9), ("syndrome", -1), ("syndrome", 9)])
def test_symbols_outside_their_group_are_rejected(op, value):
    code = load_code(R16_HYBRID)
    col = int(np.flatnonzero(code.var_groups == 8)[3])
    width = code.n_info if op == "encode" else code.n
    words = np.zeros((2, width), dtype=np.int64)
    words[1, col] = value
    with pytest.raises(ValueError, match=rf"^column {col}: symbol {value} is outside G\(8\)$"):
        {"encode": encode, "syndrome": syndrome}[op](code, words)


@pytest.mark.parametrize("extra", [5, -1])
def test_syndrome_rejects_a_word_of_another_width(extra):
    code = load_code(R16_HYBRID)
    with pytest.raises(ValueError, match=f"expected {code.n} symbols per frame"):
        syndrome(code, np.zeros((1, code.n + extra), dtype=np.int64))


def test_encode_is_linear(rng):
    code = build_code(small_hybrid(), 600, seed=3)
    qs = code.var_groups[: code.n_info]
    a = np.array([[int(rng.integers(q)) for q in qs]])
    b = np.array([[int(rng.integers(q)) for q in qs]])
    ca, cb, cab = encode(code, a), encode(code, b), encode(code, a ^ b)
    assert np.array_equal(cab, ca ^ cb)


def test_enumerate_codewords_count(rng):
    code = random_tree_code(rng, max_symbols=8)
    words = enumerate_codewords(code)
    expect = 1
    for q in code.var_groups[: code.n_info]:
        expect *= int(q)
    assert len(words) == expect
    assert not syndrome(code, words).any()


def test_decode_noiseless_exact():
    code = build_code(small_hybrid(), 600, seed=4)
    rng = np.random.default_rng(0)
    info = np.array([
        [int(rng.integers(q)) for q in code.var_groups[: code.n_info]]
        for _ in range(3)
    ])
    cw = encode(code, info)
    bits = symbols_to_bits(code, cw)
    params = ChannelParams(0.5)
    y = 1.0 - 2.0 * bits  # no noise
    dec = Decoder(code, max_iter=20)
    res = dec.decode(channel_llrs(code, y, params))
    assert res.success.all()
    assert np.array_equal(res.symbols, cw)
    assert (res.iterations == 0).all()


def test_decode_moderate_noise_roundtrip():
    ens = Ensemble.from_factored([8], {3: 1.0}, {6: 1.0}, {3: {8: 1.0}})
    code = build_code(ens, 900, seed=5)
    rng = np.random.default_rng(7)
    info = np.array([
        [int(rng.integers(q)) for q in code.var_groups[: code.n_info]]
        for _ in range(8)
    ])
    cw = encode(code, info)
    bits = symbols_to_bits(code, cw)
    params = ChannelParams.from_ebn0_db(4.0, code.rate())
    y = transmit(bits, params, rng)
    dec = Decoder(code, max_iter=80)
    res = dec.decode(channel_llrs(code, y, params))
    assert res.success.all()
    assert np.array_equal(res.symbols, cw)


def test_decode_batch_matches_single():
    # a frame decodes bit for bit the same alone as in a batch whose other
    # frames retire earlier or later: on the vector path, and on the scalar
    # path with variable degree classes of 8 and more. The first vector
    # batch stops all together; in the others a frame retires while a
    # later one runs on, so kept rows move forward.
    hybrid = build_code(small_hybrid(), 600, seed=6)
    binary = build_code(Ensemble.load(fixture_path("r12_binary_irregular")), 1024, seed=1)
    for code, frames, seed, staggered in ((hybrid, 3, 11, False), (binary, 6, 11, True),
                                          (hybrid, 4, 12, True)):
        rng = np.random.default_rng(seed)
        bits = np.zeros((frames, code.n_bits), dtype=np.int64)
        params = ChannelParams(0.9)
        y = transmit(bits, params, rng)
        chan = channel_llrs(code, y, params)
        dec = Decoder(code, max_iter=30)
        batch = dec.decode(chan, want_posteriors=True)
        if staggered:
            its = batch.iterations
            assert any(its[f] < its[f + 1:].max() for f in range(frames - 1))
        for f in range(frames):
            one = dec.decode(chan[f], want_posteriors=True)
            assert np.array_equal(one.symbols[0], batch.symbols[f])
            assert one.success[0] == batch.success[f]
            assert one.iterations[0] == batch.iterations[f]
            assert np.array_equal(one.posterior_llr[0], batch.posterior_llr[f])


def staggered_frames(source: str) -> tuple:
    """The small hybrid build and the 1024-bit binary build of
    ``test_decode_batch_matches_single``, with channel LLRs of frames
    that retire at different iterations."""
    if source == "hybrid":
        code, frames, seed = build_code(small_hybrid(), 600, seed=6), 4, 12
    else:
        code = build_code(Ensemble.load(fixture_path("r12_binary_irregular")), 1024, seed=1)
        frames, seed = 6, 11
    rng = np.random.default_rng(seed)
    params = ChannelParams(0.9)
    y = transmit(np.zeros((frames, code.n_bits), dtype=np.int64), params, rng)
    return code, channel_llrs(code, y, params)


@pytest.mark.parametrize("source", ["hybrid", "binary"])
def test_decode_result_does_not_depend_on_the_pass_size(source, monkeypatch):
    # frames run in passes of frames_per_pass; each field of the result
    # is the same with a pass of one frame, of two, or of the whole batch
    code, chan = staggered_frames(source)
    F = len(chan)
    dec = Decoder(code, max_iter=30)
    assert dec.frames_per_pass >= F
    whole = {stop: dec.decode(chan, want_posteriors=True, early_stop=stop)
             for stop in (True, False)}
    its = whole[True].iterations
    assert any(its[f] < its[f + 1:].max() for f in range(F - 1))
    for size in (1, 2, F):
        monkeypatch.setattr(Decoder, "frames_per_pass", property(lambda self, n=size: n))
        for stop, want in whole.items():
            got = dec.decode(chan, want_posteriors=True, early_stop=stop)
            assert_same_decode(got, want)


@pytest.mark.parametrize("name", ["r16_hybrid_g256g16g8", "r16_gf256_regular"])
def test_shipped_r16_codes_decode_one_frame_per_pass(name):
    # a frame's messages alone fill more than two check-walk blocks
    code = load_code(os.path.join(ROOT, "fer_results", "codes", f"{name}_6144.alist"))
    dec = Decoder(code)
    assert dec._msg_width > 2 * codec.CHECK_BLOCK
    assert dec.frames_per_pass == 1


@pytest.mark.parametrize("source", ["small_hybrid", "r16_hybrid_g256g16g8", "r16_gf256_regular"])
def test_check_walk_gathers_match_the_nonzero_formula(source):
    # the blocks of the check walk, each frame's offset by a v2c row,
    # are the gather of the whole class that np.nonzero gives
    if source == "small_hybrid":
        code = build_code(small_hybrid(), 600, seed=6)
    else:
        code = load_code(os.path.join(ROOT, "fer_results", "codes", f"{source}_6144.alist"))
    dec = Decoder(code)
    row = dec._msg_width + 1
    refs = reference_check_gathers(code)
    assert len(refs) == len(dec.check_classes)
    for cc, ref in zip(dec.check_classes, refs):
        blocks = [g for g, *_r in cc.blocks]
        assert np.array_equal(np.concatenate([g[0] for g in blocks], axis=1), ref)
        for g in blocks:
            assert np.array_equal(g, g[0] + row * np.arange(len(g))[:, None, None, None])


@pytest.mark.parametrize("name", ["r12_hybrid_g8g2", "r12_binary_irregular"])
def test_retired_frames_stay_in_the_first_arrays(name):
    # keep moves the kept frames' rows forward inside the arrays the run
    # allocated; the scalar path's c2v and work array are written in full
    # before they are read, so only their length follows
    code, chan = fixture_frames(name, 3)
    dec = Decoder(code, max_iter=5)
    run = (codec._BinaryRun if dec.binary else codec._VectorRun)(dec, chan)

    def arrays() -> dict:
        out = {"v2c": run.v2c, "c2v": run.c2v}
        if dec.binary:
            out.update(chan=run.chan, work=run.work)
        else:
            out.update((f"chan{k}", ch) for k, ch in enumerate(run.chan))
        return out

    first = arrays()
    for it in range(2):
        run.step(it)
    rows = {key: a.copy() for key, a in arrays().items()}
    run.keep(np.array([True, False, True]))
    for key, a in arrays().items():
        assert np.shares_memory(a, first[key]), key
        assert len(a) == 2, key
        if not (dec.binary and key in ("c2v", "work")):
            assert np.array_equal(a, rows[key][[0, 2]]), key


def test_decode_reports_failure_on_garbage():
    code = build_code(small_hybrid(), 600, seed=7)
    rng = np.random.default_rng(3)
    chan = rng.normal(scale=4.0, size=(2, code.n, 8))
    chan[:, :, 0] = 0.0
    for c, q in enumerate(code.var_groups):
        chan[:, c, int(q):] = 1e9
    dec = Decoder(code, max_iter=5)
    res = dec.decode(chan)
    ok = ~syndrome(code, res.symbols).any(axis=1)
    assert np.array_equal(res.success, ok)


def test_tree_posteriors_match_brute_force(rng):
    worst = 0.0
    for _ in range(5):
        code = random_tree_code(rng)
        params = ChannelParams(1.0)
        bits = np.zeros((1, code.n_bits), dtype=np.int64)
        y = transmit(bits, params, rng)
        chan = channel_llrs(code, y, params)
        dec = Decoder(code, max_iter=2 * code.n)
        res = dec.decode(chan, want_posteriors=True, early_stop=False)
        got = posterior_llrs_to_probs(res.posterior_llr[0], code.var_groups)
        want = brute_force_posteriors(code, chan[0])
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-8


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_encode_decode_high_snr_property(seed):
    rng = np.random.default_rng(seed)
    code = random_tree_code(rng, max_symbols=10)
    qs = code.var_groups[: code.n_info]
    info = np.array([[int(rng.integers(q)) for q in qs]])
    cw = encode(code, info)
    bits = symbols_to_bits(code, cw)
    params = ChannelParams(0.3)
    y = transmit(bits, params, rng)
    dec = Decoder(code, max_iter=4 * code.n)
    res = dec.decode(channel_llrs(code, y, params))
    if res.success[0]:
        assert not syndrome(code, res.symbols).any()


def test_decoding_is_codeword_frame_symmetric():
    # sign-matched noise: the same noise realization seen from a random
    # codeword and from the all-zero word. Decoder trajectories must be
    # translates of each other, so success patterns agree framewise.
    ens = Ensemble.from_factored([8], {3: 1.0}, {6: 1.0}, {3: {8: 1.0}})
    code = build_code(ens, 900, seed=5)
    dec = Decoder(code, max_iter=50)
    params = ChannelParams.from_ebn0_db(3.0, code.rate())
    rng = np.random.default_rng(99)
    F = 60
    qs = code.var_groups[: code.n_info]
    info = np.array([[int(rng.integers(q)) for q in qs] for _ in range(F)])
    cw = encode(code, info)
    bits = symbols_to_bits(code, cw)
    noise = rng.normal(0.0, params.sigma, size=(F, code.n_bits))
    sign = 1.0 - 2.0 * bits
    res_cw = dec.decode(channel_llrs(code, sign + noise, params))
    res_zero = dec.decode(channel_llrs(code, 1.0 + noise * sign, params))
    ok_cw = res_cw.success & (res_cw.symbols == cw).all(axis=1)
    ok_zero = res_zero.success & (res_zero.symbols == 0).all(axis=1)
    # identical trajectories up to float jitter; allow one chaotic boundary frame
    assert (ok_cw != ok_zero).sum() <= 1
    assert abs(int(ok_cw.sum()) - int(ok_zero.sum())) <= 1


def binary_regular36() -> Ensemble:
    return Ensemble.from_factored([2], {3: 1.0}, {6: 1.0}, {3: {2: 1.0}})


def test_scalar_binary_path_matches_vector_path():
    code = build_code(binary_regular36(), 1024, seed=12)
    params = ChannelParams.from_ebn0_db(2.4, code.rate())
    y = transmit(np.zeros((256, code.n_bits), dtype=np.int64), params,
                 np.random.default_rng(8))
    chan = channel_llrs(code, y, params)
    scalar = Decoder(code, max_iter=40)
    vector = Decoder(code, max_iter=40, scalar_binary=False)
    assert scalar.binary and not vector.binary
    a, b = scalar.decode(chan), vector.decode(chan)
    assert (~a.success).sum() >= 2  # the batch holds failing frames
    # the two check rules round differently near the message cap, which
    # can flip a frame that sits on a decoding boundary (1 in 3000 seen)
    same = (a.success == b.success) & (a.iterations == b.iterations) \
        & (a.symbols == b.symbols).all(axis=1)
    assert (~same).sum() <= 1
    # posterior LLRs after three full iterations
    pa = Decoder(code, max_iter=3).decode(
        chan[:8], want_posteriors=True, early_stop=False)
    pb = Decoder(code, max_iter=3, scalar_binary=False).decode(
        chan[:8], want_posteriors=True, early_stop=False)
    za = pa.posterior_llr[..., 1] - pa.posterior_llr[..., 0]
    zb = pb.posterior_llr[..., 1] - pb.posterior_llr[..., 0]
    assert np.abs(za - zb).max() < 1e-9


def test_check_update_exact_at_cap():
    # channel LLRs of 40 everywhere: every variable message sits at the cap
    # and a degree-j check must answer 2 atanh(tanh(cap / 2)^(j - 1)). A
    # transform past float64 resolution answers with a certainty instead.
    code = build_code(binary_regular36(), 256, seed=1)
    log_t = math.log1p(-2.0 / (math.exp(MSG_CLIP) + 1.0))
    rows = code.row_degrees()[code.edge_row]
    gap = -np.expm1((rows - 1) * log_t)              # 1 - tanh(cap / 2)^(j-1)
    c2v = np.log(2.0 - gap) - np.log(gap)
    want = 40.0 + np.bincount(code.edge_col, weights=c2v, minlength=code.n)
    chan = np.zeros((1, code.n, 2))
    chan[..., 1] = 40.0
    for scalar in (True, False):
        dec = Decoder(code, max_iter=1, scalar_binary=scalar)
        res = dec.decode(chan, want_posteriors=True, early_stop=False)
        z = res.posterior_llr[0, :, 1] - res.posterior_llr[0, :, 0]
        assert np.abs(z - want).max() < 1e-6


def test_decoder_agrees_with_reference_on_shared_noise():
    # Same noise through Decoder and the scalar tanh-rule reference, which
    # clips at 30 where Decoder caps at MSG_CLIP = 29.1: a few boundary
    # frames flip either way. A cap past float64 resolution instead turns
    # strong messages into certainties and fails frames the reference
    # decodes. Measured on 5 x 3000 frames of other seeds, frames failing
    # only in Decoder: 1-4 with the cap, 7-20 with the old cap of 50.
    code = build_code(binary_regular36(), 1024, seed=12)
    params = ChannelParams.from_ebn0_db(2.8, code.rate())
    rng = np.random.default_rng(2028)
    dec = Decoder(code, max_iter=60)
    ref = ReferenceBinaryBP(code, max_iter=60)
    only_mine = 0
    for _ in range(6):
        y = transmit(np.zeros((500, code.n_bits), dtype=np.int64), params, rng)
        mine = (dec.decode(channel_llrs(code, y, params)).symbols != 0).any(axis=1)
        bits, _ok, _it = ref.decode(2.0 * y / params.sigma**2)
        theirs = (bits != 0).any(axis=1)
        only_mine += int((mine & ~theirs).sum())
    assert only_mine <= 6


# ---------------------------------------------------------------------------
# agreement with the padded reference decoder

ORACLE_FIXTURES = ["r16_hybrid_g256g16g8", "r12_hybrid_g8g2", "r12_gf8_regular36",
                   "r12_binary_irregular"]


def fixture_frames(name: str, frames: int, above_db: float = 1.2) -> tuple:
    """A 1024-bit build of a fixture and channel LLRs of random codewords
    ``above_db`` above its threshold: at 1.2 dB frames converge after
    different numbers of iterations and some fail within 16. The last
    frame is noiseless, so it passes at iteration 0."""
    with open(fixture_path("designs")) as fh:
        ebn0 = json.load(fh)[name]["threshold_ebn0_db"] + above_db
    code = build_code(Ensemble.load(fixture_path(name)), 1024, seed=1)
    rng = np.random.default_rng(7)
    info = np.stack([rng.integers(0, code.var_groups[: code.n_info]) for _ in range(frames)])
    bits = symbols_to_bits(code, encode(code, info))
    params = ChannelParams.from_ebn0_db(ebn0, code.rate())
    y = transmit(bits, params, rng)
    y[-1] = 1.0 - 2.0 * bits[-1]
    return code, channel_llrs(code, y, params)


# Largest posterior LLR gap allowed against the padded reference.
# The decoder's transforms are BLAS matmuls and its variable update
# multiplies probabilities; the reference's transforms are butterflies
# and it adds LLRs. So each check update rounds differently, by about
# eps of the message's mass. A component capped at MSG_CLIP holds 2^10
# eps of that mass, so one check update resolves its LLR only to about
# 2^-10, a posterior sums several such messages, and frames that fail
# keep moving the gaps around. The largest gap measured on these tests
# is 9.2e-4, after 16 iterations of a 1024-bit r16_hybrid_g256g16g8
# code: 10 times below. Binary codes on the vector path stay within
# 8.2e-5.
POSTERIOR_TOL = 1e-2


def assert_same_decode(a, b, posterior_tol: float = 0.0) -> None:
    """Equal decisions, outcomes and counts; posteriors within the bound
    (bit for bit at 0)."""
    for field in ("symbols", "success", "iterations", "active_frames",
                  "unsatisfied_checks"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    np.testing.assert_allclose(a.posterior_llr, b.posterior_llr, rtol=0, atol=posterior_tol)


def few_check_blocks(code: HybridParityCheck) -> int:
    """A CHECK_BLOCK of a few checks of the widest check class, at which
    every class of more than one check spans several blocks and its last
    block is shorter than the others."""
    classes = Counter(zip(code.row_degrees().tolist(), code.check_groups.tolist()))
    widest = max(j * ql for j, ql in classes)
    for block in range(3 * widest, 20 * widest):
        step = {key: block // (key[0] * key[1]) for key in classes}
        if all(C == 1 or (C > step[key] and C % step[key]) for key, C in classes.items()):
            return block
    raise AssertionError("no block size splits every class")


@pytest.mark.parametrize(
    "name, small_blocks",
    [(name, False) for name in ORACLE_FIXTURES] + [(name, True) for name in ORACLE_FIXTURES],
    ids=ORACLE_FIXTURES + [f"{name}-few_checks" for name in ORACLE_FIXTURES])
def test_vector_decoder_bit_identical_to_padded_reference(name, small_blocks, monkeypatch):
    code, chan = fixture_frames(name, 8)
    if small_blocks:
        monkeypatch.setattr(codec, "CHECK_BLOCK", few_check_blocks(code))
    dec = Decoder(code, max_iter=16, scalar_binary=False)
    ref = ReferenceVectorDecoder(code, max_iter=16)
    assert not dec.binary
    if small_blocks:
        split = [cc for cc in dec.check_classes if len(cc.cols) > 1]
        assert split and all(len(cc.blocks) > 1 for cc in split)
        assert all(cc.blocks[-1][0].size < cc.blocks[0][0].size for cc in split)
    else:
        # classes narrower than a block take several frames whole; the
        # batch of 8 leaves a shorter last frame block
        assert any(len(cc.blocks[0][0]) > 1 and 8 % len(cc.blocks[0][0])
                   for cc in dec.check_classes)
    for frames in (chan[:1], chan):
        for early_stop in (True, False):
            a = dec.decode(frames, want_posteriors=True, early_stop=early_stop)
            b = ref.decode(frames, want_posteriors=True, early_stop=early_stop)
            assert_same_decode(a, b, POSTERIOR_TOL)
    # the batch retires frames part way: one at iteration 0, one later
    # while others still run
    its = dec.decode(chan).iterations
    assert its[-1] == 0
    assert 0 < its[its > 0].min() < its.max()


def test_vector_decoder_bit_identical_on_shipped_r16_code():
    # the 6144-bit code: its G(256) class spans several blocks of checks
    code = load_code(os.path.join(ROOT, "fer_results", "codes",
                                  "r16_hybrid_g256g16g8_6144.alist"))
    with open(fixture_path("designs")) as fh:
        ebn0 = json.load(fh)["r16_hybrid_g256g16g8"]["threshold_ebn0_db"] + 1.0
    rng = np.random.default_rng(3)
    info = np.stack([rng.integers(0, code.var_groups[: code.n_info]) for _ in range(2)])
    bits = symbols_to_bits(code, encode(code, info))
    params = ChannelParams.from_ebn0_db(ebn0, code.rate())
    chan = channel_llrs(code, transmit(bits, params, rng), params)
    dec = Decoder(code, max_iter=3)
    assert max(len(cc.blocks) for cc in dec.check_classes) > 1
    a = dec.decode(chan, want_posteriors=True, early_stop=False)
    b = ReferenceVectorDecoder(code, max_iter=3).decode(
        chan, want_posteriors=True, early_stop=False)
    assert_same_decode(a, b, POSTERIOR_TOL)


@pytest.mark.parametrize("name, frames", [
    ("r16_hybrid_g256g16g8", 12), ("r12_hybrid_g8g2", 40), ("r12_gf8_regular36", 40)])
def test_vector_decoder_agrees_with_padded_reference_on_shared_noise(name, frames):
    # Same noise through Decoder and the padded reference, 0.5 dB above
    # the threshold, where most 1024-bit frames fail within 60 iterations.
    # The two round every transform differently, and the gaps grow in
    # failing frames; outcomes and iteration counts must not move. On
    # 200 frames of another seed for each r12 fixture and 60 for r16,
    # none moved; one failing GF(8) frame ended on 3 other symbols.
    code, chan = fixture_frames(name, frames, above_db=0.5)
    a = Decoder(code, max_iter=60).decode(chan)
    b = ReferenceVectorDecoder(code, max_iter=60).decode(chan)
    assert not a.success.all()
    assert np.array_equal(a.success, b.success)
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.symbols[a.success], b.symbols[b.success])


BLAS_DECODE = """
import sys
import numpy as np
from hybridldpc.channel import ChannelParams, transmit
from hybridldpc.codec import Decoder, channel_llrs
from hybridldpc.construction import load_code
code = load_code(sys.argv[1])
params = ChannelParams.from_ebn0_db(float(sys.argv[2]), code.rate())
y = transmit(np.zeros((4, code.n_bits), dtype=np.int64), params, np.random.default_rng(5))
res = Decoder(code, max_iter=30).decode(channel_llrs(code, y, params), want_posteriors=True)
np.savez(sys.argv[3], iterations=res.iterations, posterior_llr=res.posterior_llr)
"""


def test_decode_does_not_depend_on_blas_threads(tmp_path):
    # The check update's matmuls run in BLAS, which splits large ones
    # among its threads; campaign totals are promised bit for bit
    # whatever the thread setting. Frames retire part way, so the blocks
    # change shape between iterations.
    alist = os.path.join(ROOT, "fer_results", "codes", "r16_hybrid_g256g16g8_6144.alist")
    with open(fixture_path("designs")) as fh:
        ebn0 = json.load(fh)["r16_hybrid_g256g16g8"]["threshold_ebn0_db"] + 1.0
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", BLAS_DECODE, alist, str(ebn0), str(out)],
                       env=env, check=True, timeout=300)
        runs.append(np.load(out))
    assert len(np.unique(runs[0]["iterations"])) > 1
    for key in ("iterations", "posterior_llr"):
        assert np.array_equal(runs[0][key], runs[1][key]), key


@pytest.mark.parametrize("name", ["r12_hybrid_g8g2", "r12_binary_irregular"])
def test_decode_reports_active_frames_and_unsatisfied_checks(name):
    # on the vector path and, for the binary code, the scalar path
    code, chan = fixture_frames(name, 8)
    dec = Decoder(code, max_iter=16)
    # the noiseless last frame alone: every check satisfied at iteration 0
    one = dec.decode(chan[-1:])
    assert one.active_frames.tolist() == [1]
    assert one.unsatisfied_checks.tolist() == [0]
    res = dec.decode(chan)
    assert len(res.active_frames) == len(res.unsatisfied_checks) == res.iterations.max() + 1
    assert res.active_frames[0] == 8
    assert np.all(np.diff(res.active_frames) <= 0)
    # the frames that ran iteration t are those not done before it
    for t, n in enumerate(res.active_frames):
        assert n == int((res.iterations >= t).sum())
    assert res.unsatisfied_checks[0] > 0
    # without early stop every frame runs every iteration, and the last
    # count is the syndrome of the reported decisions
    full = Decoder(code, max_iter=4).decode(chan, early_stop=False)
    assert full.active_frames.tolist() == [8] * 5
    assert full.unsatisfied_checks[-1] == np.count_nonzero(syndrome(code, full.symbols))


def test_binary_posteriors_do_not_depend_on_early_stop():
    # The scalar path keeps one (frame, edge) layout, so a frame that is
    # still active after k iterations has summed its messages in the same
    # order with early stop on and off: retiring a frame moves its row,
    # not the order of any of its sums.
    code, chan = fixture_frames("r12_binary_irregular", 8)
    for k in (2, 6, 12):
        dec = Decoder(code, max_iter=k)
        assert dec.binary
        on = dec.decode(chan, want_posteriors=True)
        off = dec.decode(chan, want_posteriors=True, early_stop=False)
        still = ~on.success
        assert still.any() and on.success.any()
        assert np.array_equal(on.posterior_llr[still], off.posterior_llr[still])
        assert np.array_equal(on.symbols[still], off.symbols[still])


@pytest.mark.parametrize("source", ["shipped_3008", "binary_regular36"])
def test_scalar_binary_path_bit_identical_to_cumprod_reference(source):
    # The scalar check update runs the shared leave-one-out kernel over
    # (j, C) blocks, and the variable update adds each column's messages
    # left to right, one (F, C) slab after another: the same products and
    # sums, in the same order, as the cumprod reference, whose sums are an
    # explicit loop, so every output is equal bit for bit. Neither code has
    # a variable class of one column and degree 9 or more, which numpy
    # would sum pairwise.
    # Frames converge after different numbers of iterations, or fail.
    if source == "shipped_3008":
        code = load_code(BINARY_3008)
        with open(fixture_path("designs")) as fh:
            ebn0 = json.load(fh)["r12_binary_irregular"]["threshold_ebn0_db"] + 0.7
    else:
        code = build_code(binary_regular36(), 1024, seed=12)
        ebn0 = 2.0
    params = ChannelParams.from_ebn0_db(ebn0, code.rate())
    y = transmit(np.zeros((16, code.n_bits), dtype=np.int64), params, np.random.default_rng(11))
    chan = channel_llrs(code, y, params)
    dec = Decoder(code, max_iter=30)
    ref = CumprodBinaryDecoder(code, max_iter=30)
    assert dec.binary
    for early_stop in (True, False):
        a = dec.decode(chan, want_posteriors=True, early_stop=early_stop)
        b = ref.decode(chan, want_posteriors=True, early_stop=early_stop)
        assert a.success.any() and not a.success.all()
        assert_same_decode(a, b)
    its = a.iterations[a.success]
    assert its.min() < its.max()


def test_vector_decoder_bit_identical_on_tree_codes(rng):
    # orders 2, 4 and 8 mixed within a row, so group-4 messages sit in
    # group-8 checks
    mixed = 0
    for _ in range(25):
        code = random_tree_code(rng)
        vq = code.var_groups[code.edge_col]
        mixed += int(np.any((vq == 4) & (code.check_groups[code.edge_row] == 8)))
        params = ChannelParams(0.9)
        y = transmit(np.zeros((3, code.n_bits), dtype=np.int64), params, rng)
        chan = channel_llrs(code, y, params)
        a = Decoder(code, max_iter=6, scalar_binary=False).decode(
            chan, want_posteriors=True, early_stop=False)
        b = ReferenceVectorDecoder(code, max_iter=6).decode(
            chan, want_posteriors=True, early_stop=False)
        assert_same_decode(a, b, POSTERIOR_TOL)
    assert mixed >= 3


def test_equal_order_edges_with_other_maps_match_reference():
    # build_code gives every edge that joins two equal orders the
    # identity, whose check results the decoder copies as whole runs. A
    # bijection of G(8) instead goes through the per-component path at
    # the check's full width; off the diagonal the encoder still works.
    code = build_code(Ensemble.load(fixture_path("r12_gf8_regular36")), 1024, seed=1)
    rng = np.random.default_rng(4)
    maps = list(code.edge_maps)
    changed = 0
    for e in range(0, code.n_edges, 3):
        if code.edge_col[e] == code.n_info + code.edge_row[e]:
            continue
        while maps[e].is_identity:
            try:
                maps[e] = SymbolMap(8, 8, tuple(int(c) for c in rng.integers(1, 8, 3)))
            except ValueError:  # linearly dependent columns
                pass
        changed += 1
    hand = HybridParityCheck(code.var_groups, code.check_groups, code.n_info,
                             code.edge_row, code.edge_col, maps)
    assert changed > code.n_edges // 5
    with open(fixture_path("designs")) as fh:
        ebn0 = json.load(fh)["r12_gf8_regular36"]["threshold_ebn0_db"] + 1.0
    info = np.stack([rng.integers(0, 8, hand.n_info) for _ in range(8)])
    words = encode(hand, info)
    assert not syndrome(hand, words).any()
    params = ChannelParams.from_ebn0_db(ebn0, hand.rate())
    chan = channel_llrs(hand, transmit(symbols_to_bits(hand, words), params, rng), params)
    dec = Decoder(hand, max_iter=16)
    # some check blocks copy runs and write components both
    assert any(runs and comps is not None
               for cc in dec.check_classes for _g, runs, comps in cc.blocks)
    for early_stop in (True, False):
        a = dec.decode(chan, want_posteriors=True, early_stop=early_stop)
        b = ReferenceVectorDecoder(hand, max_iter=16).decode(
            chan, want_posteriors=True, early_stop=early_stop)
        assert_same_decode(a, b, POSTERIOR_TOL)
    assert a.success.any() and 0 < a.iterations.max()
    assert np.array_equal(a.symbols[a.success], words[a.success])


def test_max_iter_must_be_an_integer():
    # a fractional cap is never reached: a failing frame would decode for
    # ever
    code = build_code(binary_regular36(), 256, seed=1)
    for scalar in (True, False):
        with pytest.raises(TypeError):
            Decoder(code, max_iter=2.5, scalar_binary=scalar)
    assert Decoder(code, max_iter=np.int64(3)).max_iter == 3
    with pytest.raises(ValueError, match="max_iter"):
        Decoder(code, max_iter=0)


def test_check_message_with_no_mass_on_image_is_uniform():
    # One group-8 check on three binary columns with images {0, 1}, {0, 2}
    # and {0, 4}. The first two are certain of 1, so the check puts its
    # mass on 3 and none on the third column's image: its message falls
    # back to uniform, which leaves that column at its channel LLRs. Rows
    # of built codes cannot get there: each has a diagonal column of the
    # check's own group, whose capped message keeps every component
    # resolvable.
    code = HybridParityCheck(
        var_groups=np.array([2, 2, 2]), check_groups=np.array([8]), n_info=2,
        edge_row=np.array([0, 0, 0]), edge_col=np.array([0, 1, 2]),
        edge_maps=[SymbolMap(2, 8, (1,)), SymbolMap(2, 8, (2,)), SymbolMap(2, 8, (4,))])
    chan = np.zeros((1, 3, 8))
    chan[..., 2:] = 1e30
    chan[0, :2, 0] = 40.0
    chan[0, 2, 1] = 3.0
    a = Decoder(code, max_iter=1).decode(chan, want_posteriors=True, early_stop=False)
    b = ReferenceVectorDecoder(code, max_iter=1).decode(
        chan, want_posteriors=True, early_stop=False)
    assert_same_decode(a, b)
    assert np.array_equal(a.posterior_llr[0, 2, :2], [0.0, 3.0])
    assert np.all(np.isfinite(a.posterior_llr))


def test_variable_messages_keep_the_cap_at_high_snr():
    # 8 dB above the threshold a column's channel LLRs spread by up to
    # twice MSG_CLIP and more, and the code's degree-15 columns take
    # leave-one-out prefix and suffix products of 14 messages. After one
    # and after several iterations, every v2c component on an edge's
    # image is finite and positive, within MSG_CLIP of the largest.
    code, chan = fixture_frames("r12_hybrid_g8g2", 4, above_db=8.0)
    dec = Decoder(code, max_iter=8)
    assert max(i for i, *_ in dec.var_classes) >= 8
    spread = max((chan[:, cols, :qk].max(-1) - chan[:, cols, :qk].min(-1)).max()
                 for _i, qk, cols, _s, _step in dec.var_classes)
    assert spread > 2 * MSG_CLIP
    run = codec._VectorRun(dec, chan)
    for it in range(6):
        run.step(it)
        if it not in (1, 5):
            continue
        for i, qk, cols, start, _step in dec.var_classes:
            msg = run.v2c[:, start: start + len(cols) * i * qk].reshape(-1, qk)
            assert np.all(np.isfinite(msg)) and np.all(msg > 0)
            assert np.log(msg.max(axis=-1) / msg.min(axis=-1)).max() <= MSG_CLIP + 1e-12


def test_nan_channel_llrs_are_rejected():
    # argmin of NaN is 0, and the all-zero word satisfies every check: a
    # NaN frame would decode as a success at iteration 0
    code = load_code(os.path.join(ROOT, "fer_results", "codes",
                                  "r16_hybrid_g256g16g8_6144.alist"))
    dec = Decoder(code, max_iter=4)
    with pytest.raises(ValueError, match="frame 0, column 0 hold NaN"):
        dec.decode(np.full((1, code.n, dec.q_max), np.nan))
    # noiseless frames: PAD beyond each column's order is valid input
    bits = np.zeros((3, code.n_bits), dtype=np.int64)
    chan = channel_llrs(code, 1.0 - 2.0 * bits, ChannelParams(0.8))
    assert np.any(chan == codec.PAD)
    assert dec.decode(chan).success.all()
    chan[2, 17, dec.q_max - 1] = np.nan  # a padded component of a narrow column
    chan[2, 40, 0] = np.nan
    with pytest.raises(ValueError, match="frame 2, column 17 hold NaN"):
        dec.decode(chan)
    binary = build_code(binary_regular36(), 256, seed=1)
    scalar = Decoder(binary, max_iter=4)
    assert scalar.binary
    chan = np.zeros((1, binary.n, 2))
    chan[0, 3, 1] = np.nan
    with pytest.raises(ValueError, match="frame 0, column 3 hold NaN"):
        scalar.decode(chan)


def test_infinite_channel_llrs_are_rejected():
    # An infinite LLR turns messages into NaN (inf - inf), and the frame
    # then decodes as a false success: on the vector path one G(8) column
    # at +inf on every component, or at -inf on one, made frame 0 report
    # the all-zero word after 3 iterations; on the scalar path a column at
    # +inf in both components passed at iteration 0
    code, chan = fixture_frames("r12_hybrid_g8g2", 2)
    dec = Decoder(code, max_iter=16)
    col = int(np.flatnonzero(code.var_groups == 8)[0])
    for value, comps in ((np.inf, slice(0, 8)), (-np.inf, slice(3, 4))):
        bad = chan.copy()
        bad[0, col, comps] = value
        with pytest.raises(ValueError, match=f"frame 0, column {col} hold an infinite value"):
            dec.decode(bad)
    # PAD beyond each G(2) column's order is valid input
    assert np.any(chan == codec.PAD)
    assert dec.decode(chan).success[-1]
    binary = load_code(BINARY_3008)
    scalar = Decoder(binary, max_iter=4)
    assert scalar.binary
    chan = np.zeros((2, binary.n, 2))
    chan[..., 1] = 2.0
    chan[1, 5] = np.inf
    with pytest.raises(ValueError, match="frame 1, column 5 hold an infinite value"):
        scalar.decode(chan)
    # NaN is named before an infinite value at the same column
    chan[1, 5, 0] = np.nan
    with pytest.raises(ValueError, match="frame 1, column 5 hold NaN"):
        scalar.decode(chan)
