"""Encoding and belief propagation decoding of hybrid LDPC codes.

Encoding exploits the triangular redundancy structure: rows are processed
last to first and each row's diagonal redundancy symbol is the group sum
of the mapped contributions of its other neighbors, so the cost is one
pass over the edges. The encoder, the syndrome and both decoder paths
take their edge layout from ``HybridParityCheck.node_classes``.

The decoder is a flooding sum-product scheme working symbolwise on
probabilities, as in Davey & MacKay (1998) and Barnault & Declercq
(2003). Check updates run in the check group: incoming variable
messages are extended through their edge maps (probability mass placed
on the map image, zero elsewhere), combined under the group convolution
via the Walsh Hadamard transform with leave-one-out prefix and suffix
products, and read back on each edge's image. A variable sends on each
edge its channel probabilities times the leave-one-out product of its
other incoming messages, again by prefix and suffix products; hard
decisions are the argmax of the full product. Messages are batched over
frames and over node classes that share a degree and group pair.

Both message directions live at each variable's own order, in one
(F, width) array each: variable classes in turn, each a (C, degree,
q_k) block of a frame's row, so a G(8) edge carries 8 values in a
G(256) check. The variable-to-check row has one more slot, always zero.

The check group's width exists only inside one block of the check walk,
at most CHECK_BLOCK values: a run of checks of one class, for one frame
or, when a class is narrower, for a few frames. An index fixed when the
decoder is built gathers the block as (frames, order, checks, j), the
zero slot outside each edge's image, so that the transform is at most
two BLAS matmuls by a Hadamard matrix of 16 points or fewer, over
contiguous runs of the checks' components; a second index pair
writes each edge's image components of the result into the
check-to-variable row. The variable update runs in blocks of the same
size: a few frames of a variable class, or a run of its columns in one
frame. Each block first conditions its check results (scaled to a
largest component of 1, floored), then forms its outgoing messages, so
that the few passes over a block stay close to the cache. The channel
enters as probabilities computed once per decode; posterior LLRs are
computed only when asked for, and only they and ``channel_llrs`` are
padded to the largest group order.

BLAS sums each transform output in an order that depends on the
block's column count, checks x j. A fixed-seed decode is therefore
reproducible bit for bit for a given CHECK_BLOCK, whatever the number
of frames decoded together, and gives the same bits with one or two
BLAS threads; it moves at the rounding level if CHECK_BLOCK changes.

On an all-binary graph the same sum-product messages are scalar LLRs,
and the decoder runs them directly: the check update is the tanh rule,
which is the q = 2 Walsh Hadamard transform written out. Both paths cap
every message at MSG_CLIP: the vector path as a floor at e^-MSG_CLIP
times each message's largest component, which lands on the same
components under any relabeling of the transmitted codeword.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hybridldpc.channel import ChannelParams, bit_llr, symbol_llr_array
from hybridldpc.construction import HybridParityCheck
from hybridldpc.groups import bits_per_symbol

PAD = 1e30  # padding LLR for components beyond a column's group order
_PROB_FLOOR = 1e-300  # check results at most this large on an image go uniform

# Spread cap of every message the decoder emits, in both directions. The
# check update works on probabilities: a component e^-L below the largest
# one enters the transform domain only as a deviation of order e^-L from
# 1, resolved to float64 eps. Past L = ln(1/eps) = 36 the deviation is
# lost and the message arrives at the check as a certainty. The cap keeps
# the smallest component at 2^10 eps or more, so the check update resolves
# it to about 0.1 percent: ln(2^42) = 29.1.
MSG_CLIP = math.log(1.0 / (2.0**10 * np.finfo(np.float64).eps))
# The cap in the probability domain: the smallest component of a vector
# message relative to its largest. -log(_MSG_FLOOR) is MSG_CLIP exactly.
_MSG_FLOOR = math.exp(-MSG_CLIP)

# Float64 values in one block of the check walk, frames x order x checks
# x j, and at most in one block of the variable update, frames x columns
# x degree x order, unless a single column is wider: 768 KiB, so that the
# two buffers a transform matmul reads and writes stay in a 2 MiB L2
# cache.
CHECK_BLOCK = 98_304

__all__ = [
    "MSG_CLIP",
    "walsh_hadamard",
    "encode",
    "syndrome",
    "symbols_to_bits",
    "channel_llrs",
    "Decoder",
    "DecodeResult",
]


def _hadamard(q: int) -> np.ndarray:
    """Read-only q x q Sylvester Hadamard matrix, H_2n = [[H_n, H_n],
    [H_n, -H_n]]: entry (i, k) is (-1)^popcount(i & k)."""
    h = np.ones((1, 1))
    while len(h) < q:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


# the factors of every transform: H_q = H_16 (x) H_(q/16) above 16 points
_HADAMARD = {q: _hadamard(q) for q in (1, 2, 4, 8, 16)}


def walsh_hadamard(x: np.ndarray, axis: int = -1,
                   work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Unnormalized Walsh Hadamard transform along one axis.

    Self-inverse up to the factor q: applying it twice multiplies by the
    axis length, which must be a power of two. The input is not modified.
    The result is a C-ordered array of the input's shape. On the (outer,
    q, rest) view, a length of at most 16 is one matmul by H_q. A longer
    one is H_16 over the four leading bits of the index, a (16, rest)
    product for each value of the others, then H_(q/16) over the others,
    since H_q is their Kronecker product. The matmuls
    run in BLAS, which sums each output in an order of its own: values
    agree with a butterfly transform to rounding, and a block's bits
    depend on its column count, ``rest`` (BLAS tail kernels), but not on
    ``outer``. ``work`` is an optional pair of flat float64 buffers of
    at least ``x.size`` elements, neither overlapping ``x``; the matmuls
    then write into them instead of new arrays, and the result is a view
    of one of them.
    """
    x = np.asarray(x, dtype=np.float64)
    axis = axis % x.ndim
    q = x.shape[axis]
    if q & (q - 1):
        raise ValueError(f"transform length must be a power of two, got {q}")
    if work is None:
        work = (np.empty(x.size), np.empty(x.size))
    outer = math.prod(x.shape[:axis])
    rest = math.prod(x.shape[axis + 1:])
    lead = min(q, 16)
    low = q // lead
    # one (lead, rest) product per value of the low bits: BLAS runs these
    # strided products faster than one (lead, low * rest) product
    shape = (outer, lead, low, rest)
    out = work[0][: x.size].reshape(shape)
    np.matmul(_HADAMARD[lead], x.reshape(shape).transpose(0, 2, 1, 3),
              out=out.transpose(0, 2, 1, 3))
    if low > 1:
        src = out.reshape(outer * lead, low, rest)
        out = work[1][: x.size].reshape(src.shape)
        np.matmul(_HADAMARD[low], src, out=out)
    return out.reshape(x.shape)


def _leave_one_out(fac: np.ndarray, out: np.ndarray, buf: np.ndarray | None = None,
                   seed: np.ndarray | None = None) -> None:
    """Leave-one-out products along the last axis, of length j: position
    d of ``out`` receives ``seed``, if given, times every factor in
    ``fac`` but the d-th, by prefix and suffix products, so no division
    is involved. ``buf``, a flat float64 array of at least one slice
    along that axis, holds the running suffix when j > 2."""
    j = fac.shape[-1]
    if j == 1:
        out[..., 0] = 1.0 if seed is None else seed
        return
    # prefixes s_0 ... s_(d-1) left to right, then each times the suffix
    # s_(j-1) ... s_(d+1) built right to left
    if seed is None:
        out[..., 1] = fac[..., 0]
    else:
        np.multiply(seed, fac[..., 0], out=out[..., 1])
    for d in range(2, j):
        np.multiply(out[..., d - 1], fac[..., d - 1], out=out[..., d])
    suff = fac[..., j - 1]
    if j > 2:
        buf = (np.empty(suff.size) if buf is None else buf)[: suff.size].reshape(suff.shape)
    for d in range(j - 2, 0, -1):
        out[..., d] *= suff
        suff = np.multiply(suff, fac[..., d], out=buf)
    if seed is None:
        out[..., 0] = suff
    else:
        np.multiply(seed, suff, out=out[..., 0])


def loo_convolve(probs: np.ndarray, axis: int = -1,
                 work: np.ndarray | None = None) -> np.ndarray:
    """Leave-one-out group convolution of probability vectors.

    ``axis`` is the component axis, of length q; the leave-one-out axis
    is the last of the other axes, so the default takes shape (..., j, q).
    The result, a C-ordered array of the input's shape, holds at position
    d of that axis the convolution under component-wise XOR of the other
    j - 1 vectors. Products are taken in the transform domain with
    prefix/suffix accumulation, so no division is involved. ``work`` is
    an optional (4, n) float64 array, n at least ``probs.size``, not
    overlapping ``probs``: the transforms and products then run in it,
    and the result is a view into it, valid until the next call with the
    same ``work``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    axis = axis % probs.ndim
    if work is None:
        work = np.empty((4, probs.size))
    pair = (work[0], work[1])
    loo = probs.ndim - 2 if axis == probs.ndim - 1 else probs.ndim - 1
    spec_t = walsh_hadamard(probs, axis, work=pair)
    prod_t = work[2][: spec_t.size].reshape(spec_t.shape)
    _leave_one_out(np.moveaxis(spec_t, loo, -1), np.moveaxis(prod_t, loo, -1), work[3])
    out = walsh_hadamard(prod_t, axis, work=pair)
    out *= 1.0 / probs.shape[axis]  # exact: q is a power of two
    return out


def symbols_to_bits(code: HybridParityCheck, symbols: np.ndarray) -> np.ndarray:
    """Unpack full codeword symbols to bits, column major, LSB first."""
    symbols = np.asarray(symbols)
    p = np.log2(code.var_groups).astype(np.int64)  # orders are powers of two
    col = np.repeat(np.arange(code.n), p)
    bit = np.arange(len(col)) - np.repeat(np.cumsum(p) - p, p)
    return ((symbols[..., col] >> bit) & 1).astype(np.uint8)


def _checked_symbols(code: HybridParityCheck, symbols: np.ndarray, width: int) -> np.ndarray:
    """(F, width) int64 symbols of the first ``width`` columns, each
    checked against its column's group."""
    symbols = np.atleast_2d(np.asarray(symbols, dtype=np.int64))
    if symbols.shape[-1] != width:
        raise ValueError(f"expected {width} symbols per frame, got {symbols.shape[-1]}")
    bad = np.argwhere((symbols < 0) | (symbols >= code.var_groups[:width]))
    if len(bad):
        f, c = bad[0]
        raise ValueError(f"column {c}: symbol {symbols[f, c]} is outside G({code.var_groups[c]})")
    return symbols


def _check_sums(tables: np.ndarray, edges: np.ndarray, cols: np.ndarray,
                symbols: np.ndarray) -> np.ndarray:
    """Group sums over the last axis of (..., j) ``edges``' images of the
    symbols of ``cols``: shape (F, ...), from (F, n) ``symbols``."""
    return np.bitwise_xor.reduce(tables[edges, symbols[:, cols]], axis=-1)


def encode(code: HybridParityCheck, info_symbols: np.ndarray) -> np.ndarray:
    """Compute full codewords from information symbols, shape (F, n_info)."""
    syms = np.pad(_checked_symbols(code, info_symbols, code.n_info), ((0, 0), (0, code.m)))
    # every row's sum over its information symbols at once (the rest are
    # still zero, and maps send 0 to 0), then rows last to first add their
    # later redundancy symbols: the row's own symbol is the sum, as its
    # diagonal map is the identity
    acc = syndrome(code, syms)
    later: list = [None] * code.m
    for _j, _q, rows, edges in code.node_classes[1]:
        for r, es, cs in zip(rows.tolist(), edges.tolist(), code.edge_col[edges].tolist()):
            later[r] = [(e, c) for e, c in zip(es, cs) if c > code.n_info + r]
    for t in range(code.m - 1, -1, -1):
        total = acc[:, t]
        for e, c in later[t]:
            total ^= code.map_tables[e, syms[:, c]]
        syms[:, code.n_info + t] = total
    return syms


def syndrome(code: HybridParityCheck, symbols: np.ndarray) -> np.ndarray:
    """Group sum of mapped neighbors per check row; zero for codewords."""
    symbols = _checked_symbols(code, symbols, code.n)
    out = np.empty((len(symbols), code.m), dtype=np.int64)
    for _j, _q, rows, edges in code.node_classes[1]:
        out[:, rows] = _check_sums(code.map_tables, edges, code.edge_col[edges], symbols)
    return out


def channel_llrs(code: HybridParityCheck, y: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Per-column symbol LLRs from received values, shape (F, n, q_max).

    Received bits are column major, LSB first within each column. Components
    at or above a column's group order are padded with a large constant.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape[-1] != code.n_bits:
        raise ValueError(f"expected {code.n_bits} received values")
    frames = y.shape[0]
    q_max = int(max(code.var_groups.max(), code.check_groups.max()))
    bllr = bit_llr(y, params)
    out = np.full((frames, code.n, q_max), PAD, dtype=np.float64)
    p_col = np.log2(code.var_groups).astype(np.int64)
    start = np.cumsum(p_col) - p_col
    for q in np.unique(code.var_groups).tolist():  # one 2-D call per order
        cols, p = np.flatnonzero(code.var_groups == q), bits_per_symbol(q)
        bits = bllr[:, start[cols, None] + np.arange(p)].reshape(-1, p)
        out[:, cols, :q] = symbol_llr_array(bits, q).reshape(frames, len(cols), q)
    return out


@dataclass
class DecodeResult:
    symbols: np.ndarray       # (F, n) hard decisions
    success: np.ndarray       # (F,) syndrome reached zero
    iterations: np.ndarray    # (F,) iterations used (max_iter when failed)
    # per iteration run, iteration 0 being the channel's hard decisions:
    active_frames: np.ndarray       # frames decoded in that iteration
    unsatisfied_checks: np.ndarray  # unsatisfied checks summed over them
    posterior_llr: np.ndarray | None = None  # (F, n, q_max) when requested


def _frames_per_block(width: int) -> int:
    """Frames in one block at ``width`` values a frame: as many as fit in
    CHECK_BLOCK, and at least one."""
    return max(1, CHECK_BLOCK // width)


class _CheckClass(NamedTuple):
    edges: np.ndarray         # (C, j)
    cols: np.ndarray          # (C, j) column of each edge
    # per block of checks, for each of up to G frames in turn:
    # - (G, order, checks, j) v2c positions from the block's first row;
    # - (G, k) flat positions of the edges' image components in the
    #   block, and (G, k) the c2v positions they go to
    blocks: list


def _condition(p: np.ndarray) -> None:
    """Check results on each edge's image, in place: scaled to a largest
    component of 1 and floored at _MSG_FLOOR, which also lifts the small
    negative values the transform leaves. A message with no mass on the
    image falls back to uniform."""
    top = p.max(axis=-1, keepdims=True)
    flat = top[..., 0] <= _PROB_FLOOR
    if np.any(flat):
        p[flat] = 1.0
        top[flat] = 1.0
    p *= np.reciprocal(top, out=top)
    np.maximum(p, _MSG_FLOOR, out=p)


def _var_products(ch: np.ndarray, inc: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Variable update of (F, C, i, q) incoming probabilities ``inc`` and
    (F, C, q) channel probabilities ``ch``: ``out`` receives on each edge
    the channel times the other edges' messages, as leave-one-out prefix
    and suffix products, then scaled to a largest component of 1 and
    floored at _MSG_FLOOR. Returns the (F, C, q) product of the channel
    and every incoming message."""
    _leave_one_out(np.moveaxis(inc, 2, -1), np.moveaxis(out, 2, -1), seed=ch)
    # the last edge's message times its own incoming one: the full product
    full = out[:, :, -1] * inc[:, :, -1]
    # the largest product is at least _MSG_FLOOR^(i - 1), a normal float
    # up to degree 25; past that, the clamp keeps a product that
    # underflows to zero from dividing by zero
    top = out.max(axis=-1, keepdims=True)
    np.maximum(top, np.finfo(np.float64).tiny, out=top)
    out *= np.reciprocal(top, out=top)
    np.maximum(out, _MSG_FLOOR, out=out)
    return full


class Decoder:
    """Batched sum-product decoder for one code.

    An all-binary code runs on scalar LLR messages unless
    ``scalar_binary`` is False, which forces the vector path; both give
    the same messages up to rounding.
    """

    def __init__(self, code: HybridParityCheck, max_iter: int = 100,
                 scalar_binary: bool = True):
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        self.code = code
        self.max_iter = max_iter
        self.q_max = int(max(code.var_groups.max(), code.check_groups.max()))
        self.binary = scalar_binary and self.q_max == 2
        if self.binary:
            self._build_binary()
        else:
            self._build_classes()

    def _build_classes(self) -> None:
        # Messages of F active frames are (F, width) rows at native order,
        # variable classes in turn; v2c has a trailing zero slot. The frame
        # axis leads, so the column indices built here stay valid as
        # frames retire.
        code = self.code
        col_classes, row_classes = code.node_classes
        tables = code.map_tables
        # (degree, order, columns, start of the C * degree * order block,
        # columns per block of the variable update: all of them, or as
        # many as fit in CHECK_BLOCK)
        self.var_classes: list[tuple[int, int, np.ndarray, int, int]] = []
        first = np.empty(code.n_edges, dtype=np.int64)  # message column of component 0
        width = 0
        for i, qk, cols, edges in col_classes:
            first[edges] = width + qk * np.arange(edges.size).reshape(edges.shape)
            step = min(len(cols), max(1, CHECK_BLOCK // (i * qk)))
            self.var_classes.append((i, qk, cols, width, step))
            width += qk * edges.size
        self._msg_width = width

        # A block of the check walk is G frames of a run of checks, at most
        # CHECK_BLOCK values: a class narrower than that takes several
        # frames whole, a wider one is cut into runs of checks.
        self.check_classes: list[_CheckClass] = []
        for j, ql, _rows, edges in row_classes:
            # v2c column of each component of the class, (ql, C, j),
            # the zero slot outside each edge's image
            gather = np.full((ql,) + edges.shape, width, dtype=np.intp)
            c, d, t = np.nonzero(np.arange(ql) < code.var_groups[code.edge_col[edges]][..., None])
            gather[tables[edges[c, d], t], c, d] = first[edges[c, d]] + t
            frames = _frames_per_block(gather.size)
            step = len(edges) if frames > 1 else max(1, CHECK_BLOCK // (ql * j))
            k = np.arange(frames)[:, None]
            blocks = []
            for lo in range(0, len(edges), step):
                g = gather[:, lo: lo + step]
                src = np.flatnonzero(g != width)
                dst = g.ravel()[src]
                order = np.argsort(dst)  # c2v written in column order
                blocks.append((g[None] + (width + 1) * k[..., None, None],
                               src[order] + g.size * k, dst[order] + width * k))
            self.check_classes.append(_CheckClass(edges, code.edge_col[edges], blocks))
        self._block = max(gi.size for cc in self.check_classes for gi, _s, _d in cc.blocks)

    def _build_binary(self) -> None:
        # Messages are C-ordered (frame, edge) arrays. Edges are renumbered
        # so that each variable class is one contiguous (C, i) block of a
        # frame's row; the check side gathers and scatters through (C, j)
        # index tables.
        code = self.code
        col_classes, row_classes = code.node_classes
        self._bvar: list[tuple[np.ndarray, int, int]] = []
        internal = np.empty(code.n_edges, dtype=np.int64)
        pos = 0
        for i, _q, cols, edges in col_classes:
            internal[edges.ravel()] = np.arange(pos, pos + edges.size)
            self._bvar.append((cols, pos, i))
            pos += edges.size
        self._bchk = [(internal[edges], code.edge_col[edges]) for _j, _q, _r, edges in row_classes]

    def decode(self, chan_llr: np.ndarray, want_posteriors: bool = False,
               early_stop: bool = True) -> DecodeResult:
        """Run flooding BP on channel symbol LLRs of shape (F, n, q_max),
        for at most ``max_iter`` iterations.

        With ``early_stop`` a frame retires as soon as its hard decision
        satisfies every check; without it all frames run every iteration
        (used for exact-marginal checks on cycle-free codes).
        """
        chan = np.asarray(chan_llr, dtype=np.float64)
        if chan.ndim == 2:
            chan = chan[None]
        if chan.shape[1:] != (self.code.n, self.q_max):
            raise ValueError(
                f"channel LLRs must have shape (F, {self.code.n}, {self.q_max})"
            )
        if np.isnan(chan.max(initial=0.0)):  # max propagates NaN
            f, c = np.argwhere(np.isnan(chan).any(axis=-1))[0]
            raise ValueError(f"channel LLRs of frame {f}, column {c} hold NaN")
        F, n = chan.shape[0], self.code.n
        run = _BinaryRun(self, chan) if self.binary else _VectorRun(self, chan)

        symbols = np.zeros((F, n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, self.max_iter, dtype=np.int64)
        post_out = None
        if want_posteriors:
            # the scalar path reports L(1) - L(0) in component 1
            post_out = np.zeros((F, n, 2)) if self.binary else chan.copy()

        active = np.arange(F)
        n_active: list[int] = []
        n_unsat: list[int] = []
        it = 0
        while True:
            # iteration 0 checks the hard decisions straight off the channel
            hard, unsat = run.step(it)
            ok = unsat == 0
            n_active.append(len(active))
            n_unsat.append(int(unsat.sum()))
            symbols[active] = hard
            if want_posteriors:
                run.write_posteriors(post_out, active)
            used[active[ok & ~success[active]]] = it
            success[active[ok]] = True
            if it == self.max_iter:
                break
            if early_stop:
                keep = ~ok
                active = active[keep]
                if not len(active):
                    break
                run.keep(keep)
            it += 1
        return DecodeResult(symbols, success, used, np.array(n_active),
                            np.array(n_unsat), post_out)


class _BinaryRun:
    """Scalar LLR messages of one decode on an all-binary code, as
    C-ordered (frame, edge) arrays over the active frames."""

    def __init__(self, dec: Decoder, chan: np.ndarray):
        self.dec = dec
        F, E = chan.shape[0], dec.code.n_edges
        self.chan = chan[:, :, 1] - chan[:, :, 0]  # (F, n)
        self.c2v = np.zeros((F, E))
        self.v2c = np.empty((F, E))
        self.post = self.chan

    def step(self, it: int) -> tuple[np.ndarray, np.ndarray]:
        if it:
            self._check_update()
        self._var_update()
        hard = self.post < 0
        unsat = np.zeros(hard.shape[0], dtype=np.int64)
        for _idx, cols in self.dec._bchk:
            unsat += np.count_nonzero(np.bitwise_xor.reduce(hard[:, cols], axis=-1), axis=-1)
        return hard, unsat

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        out[active, :, 1] = self.post

    def keep(self, mask: np.ndarray) -> None:
        if mask.all():  # row selection would only copy
            return
        self.c2v, self.v2c = self.c2v[mask], self.v2c[mask]
        self.chan = self.chan[mask]

    def _var_update(self) -> None:
        """Variable update on (F, E) LLRs and the (F, n) posteriors."""
        c2v, v2c = self.c2v, self.v2c
        F = c2v.shape[0]
        post = self.chan.copy()
        for cols, start, i in self.dec._bvar:
            stop = start + len(cols) * i
            inc = c2v[:, start:stop].reshape(F, len(cols), i)
            tot = post[:, cols] + inc.sum(axis=-1)
            post[:, cols] = tot
            np.subtract(tot[..., None], inc, out=v2c[:, start:stop].reshape(F, len(cols), i))
        np.clip(v2c, -MSG_CLIP, MSG_CLIP, out=v2c)
        self.post = post

    def _check_update(self) -> None:
        """Tanh rule with leave-one-out prefix and suffix products."""
        c2v = self.c2v
        t = np.tanh(0.5 * self.v2c)
        for idx, _cols in self.dec._bchk:
            tt = t[:, idx]                                     # (F, C, j)
            loo = np.ones_like(tt)
            np.cumprod(tt[..., :-1], axis=-1, out=loo[..., 1:])
            suff = np.cumprod(tt[..., :0:-1], axis=-1)[..., ::-1]
            loo[..., :-1] *= suff
            c2v[:, idx] = loo
        cap = math.tanh(0.5 * MSG_CLIP)
        np.clip(c2v, -cap, cap, out=c2v)
        np.arctanh(c2v, out=c2v)
        c2v *= 2.0
        np.clip(c2v, -MSG_CLIP, MSG_CLIP, out=c2v)


class _VectorRun:
    """Vector messages of one decode, over the active frames, as
    probabilities at each variable's own order in (F, width) rows: v2c
    with its largest component 1, c2v as the check walk writes it until
    the variable update conditions it. Also the channel probabilities
    and the work buffers of one block of the check walk."""

    def __init__(self, dec: Decoder, chan: np.ndarray):
        self.dec = dec
        F = chan.shape[0]
        # the trailing slot stays zero: components outside an edge's image
        self.v2c = np.zeros((F, dec._msg_width + 1))
        self.c2v = np.ones((F, dec._msg_width))
        self.block = np.empty(dec._block)
        self.work = np.empty((4, dec._block))
        self.llr = chan
        # channel probabilities anchored at each column's most likely
        # symbol, so the largest is 1 whatever the codeword's labels
        self.chan = []
        for _i, qk, cols, _s, _step in dec.var_classes:
            ch = chan[:, cols, : qk]
            np.subtract(ch.min(axis=-1, keepdims=True), ch, out=ch)
            self.chan.append(np.exp(ch, out=ch))

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        """Channel LLRs plus the LLRs -log(c2v) of each column's edges."""
        rows = active[:, None]
        for i, qk, cols, start, _step in self.dec.var_classes:
            inc = self.c2v[:, start: start + len(cols) * i * qk]
            inc = inc.reshape(len(active), len(cols), i, qk)
            out[rows, cols, :qk] = self.llr[rows, cols, :qk] - np.log(inc).sum(axis=2)

    def keep(self, mask: np.ndarray) -> None:
        if mask.all():  # row selection would only copy
            return
        self.v2c, self.c2v = self.v2c[mask], self.c2v[mask]
        self.chan = [ch[mask] for ch in self.chan]

    def step(self, it: int) -> tuple[np.ndarray, np.ndarray]:
        """Check update (after iteration 0), then the variable update into
        v2c, hard decisions and syndrome check. Each variable class runs
        in blocks of frames, or of columns of one frame, each conditioning
        its c2v just before the variable update reads it."""
        dec = self.dec
        if it:
            self._check_walk()
        F = self.v2c.shape[0]
        hard = np.empty((F, dec.code.n), dtype=np.int64)
        for (i, qk, cols, start, step), ch in zip(dec.var_classes, self.chan):
            frames = _frames_per_block(step * i * qk)
            for lo in range(0, F, frames):
                g = min(frames, F - lo)
                rows = slice(lo, lo + g)
                for c0 in range(0, len(cols), step):
                    c1 = min(c0 + step, len(cols))
                    msgs = slice(start + c0 * i * qk, start + c1 * i * qk)
                    inc = self.c2v[rows, msgs].reshape(g, c1 - c0, i, qk)
                    if it:
                        _condition(inc)
                    out = self.v2c[rows, msgs].reshape(inc.shape)
                    full = _var_products(ch[rows, c0:c1], inc, out)
                    hard[rows, cols[c0:c1]] = full.argmax(axis=-1)
        unsat = np.zeros(F, dtype=np.int64)
        for cc in dec.check_classes:
            unsat += np.count_nonzero(
                _check_sums(dec.code.map_tables, cc.edges, cc.cols, hard), axis=-1)
        return hard, unsat

    def _check_walk(self) -> None:
        """Group convolution of each block of each check class, with the
        results on the edges' images written to c2v."""
        v2c, c2v = self.v2c, self.c2v
        F = v2c.shape[0]
        for cc in self.dec.check_classes:
            for gather, src, dst in cc.blocks:
                for lo in range(0, F, len(gather)):
                    g = min(len(gather), F - lo)
                    x = self.block[: g * gather[0].size].reshape((g,) + gather.shape[1:])
                    # every index is in range; "clip" only lets take fill x
                    # without a temporary
                    np.take(v2c[lo: lo + g].ravel(), gather[:g], out=x, mode="clip")
                    conv = loo_convolve(x, axis=1, work=self.work)
                    c2v[lo: lo + g].ravel()[dst[:g].ravel()] = conv.ravel()[src[:g].ravel()]
