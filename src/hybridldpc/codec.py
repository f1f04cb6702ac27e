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
(F, width) array each: variable classes in turn, each a degree-major
(degree, C, q_k) block of a frame's row, so that the d-th edges of a
class's columns form one contiguous (C, q_k) slab, and a G(8) edge
carries 8 values in a G(256) check. The variable-to-check row has one
more slot, always zero.

A decode runs its frames in consecutive passes of
``Decoder.frames_per_pass`` frames: as many as fill two CHECK_BLOCKs of
a frame's message values, and at least one (one frame on the 6144-bit
rate-1/6 codes, whose messages fill more, as in the frame-by-frame
decoders of Barnault & Declercq). The messages and channel
probabilities a decode holds are one pass's, whatever its frame count,
and a frame decodes to the same bits in any pass. Within a pass, frames
retire in place. When frames stop early, the rows of the frames still
decoding move forward inside the arrays the pass allocated
(``_retire``), so each of its per-frame arrays is a view of the first
rows of its first allocation, C-ordered as that was. Retiring frames
allocates nothing, and a pass's memory peaks in its first iteration.

The check group's width exists only inside one block of the check walk,
at most CHECK_BLOCK values: a run of checks of one class, for one frame
or, when a class is narrower, for a few frames. An index fixed when the
decoder is built gathers the block as (frames, order, checks, j), the
zero slot outside each edge's image, so that the transform is at most
two BLAS matmuls by a Hadamard matrix of 16 points or fewer, over
contiguous runs of the checks' components. The inverse transform's last
matmul writes its transpose, so that each edge's result is one run of
the check's order. An edge whose map is the identity (equal orders)
takes its run whole: one row assignment per variable class copies all
of a block's such runs into the check-to-variable row. Only an edge that
embeds a smaller group reads its image components through an index
pair. The variable update runs in blocks of the same size: a few frames
of a variable class, or a run of its columns in one frame, its products
taken over the (C, q_k) slabs of each degree. Each block first
conditions its check results (scaled to a largest component of 1,
floored), then forms its outgoing messages, so that the few passes over
a block stay close to the cache. The channel enters as probabilities
computed once per decode; posterior LLRs are computed only when asked
for, and only they and ``channel_llrs`` are padded to the largest group
order.

BLAS sums each transform output in an order that depends on the
block's column count, checks x j, and on whether it writes the
transpose; blocks of fewer than _EDGE_MAJOR_COLUMNS columns keep the
order-major inverse. A fixed-seed decode is therefore reproducible bit
for bit for a given CHECK_BLOCK, whatever the number of frames decoded
together, and gives the same bits with one or two BLAS threads; it
moves at the rounding level if CHECK_BLOCK changes.

On an all-binary graph the same sum-product messages are scalar LLRs,
and the decoder runs them directly: the check update is the tanh rule,
which is the q = 2 Walsh Hadamard transform written out. Its messages
live in two layouts of a frame's row. In variable layout each variable
class is an (i, C) block, with columns renumbered in class order; in
check layout each check class is a (j, C) block. One ``np.take`` per
direction moves a row between them, and both updates run over
contiguous (F, C) slabs: the variable update sums a column's messages
left to right, one slab after another (numpy sums a class of one column
along a contiguous run instead, pairwise from 9 messages on), and the
check update takes leave-one-out products. One kernel,
``_leave_one_out``, forms those products, the vector check update's (in
``loo_convolve``) and the vector variable update's, writing each
product where it is kept. Both paths cap every message at MSG_CLIP: the
vector path as a floor at e^-MSG_CLIP times each message's largest
component, which lands on the same components under any relabeling of
the transmitted codeword.
"""

from __future__ import annotations

import math
import operator
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
# x j, and at most in one block of the variable update, frames x degree
# x columns x order, unless a single column is wider: 768 KiB, so that the
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


def _hadamard(q: int, divisor: int = 1) -> np.ndarray:
    """Read-only q x q Sylvester Hadamard matrix, H_2n = [[H_n, H_n],
    [H_n, -H_n]], divided by ``divisor``: entry (i, k) is
    (-1)^popcount(i & k) / divisor."""
    h = np.ones((1, 1))
    while len(h) < q:
        h = np.block([[h, h], [h, -h]])
    h /= divisor
    h.flags.writeable = False
    return h


# the factors of every transform: H_q = H_16 (x) H_(q/16) above 16 points;
# the inverse's are H_q / q, so that it needs no scaling pass (exact: q is
# a power of two)
_HADAMARD = {q: _hadamard(q) for q in (1, 2, 4, 8, 16)}
_INVERSE = {q: _hadamard(q, q) for q in _HADAMARD}

# Fewest columns per block at which the inverse transform writes its
# result component-last. A narrower block gains nothing from it, and its
# order-major product keeps the bits of the scaled forward transform
# (BLAS sums a transposed product in another order at 2-4 columns).
_EDGE_MAJOR_COLUMNS = 8


def walsh_hadamard(x: np.ndarray, axis: int = -1,
                   work: tuple[np.ndarray, np.ndarray] | None = None,
                   inverse: bool = False) -> np.ndarray:
    """Unnormalized Walsh Hadamard transform along one axis.

    Self-inverse up to the factor q: applying it twice multiplies by the
    axis length, which must be a power of two. The input is not modified.
    The result has the input's shape. On the (outer, q, rest) view, a
    length of at most 16 is one matmul by H_q. A longer one is H_16 over
    the four leading bits of the index, a (16, rest) product for each
    value of the others, then H_(q/16) over the others, since H_q is
    their Kronecker product. The matmuls run in BLAS, which sums each
    output in an order of its own: values agree with a butterfly
    transform to rounding, and a block's bits depend on its column
    count, ``rest`` (BLAS tail kernels), but not on ``outer``.

    With ``inverse`` the factors are divided by their orders, so the
    result is the transform divided by q, and, from _EDGE_MAJOR_COLUMNS
    columns on, the last matmul writes its transpose: the result is then
    a view of a C-ordered (outer, rest, q) array, each column's q values
    one contiguous run. Otherwise it is C-ordered. ``work`` is an
    optional pair of flat float64 buffers of at least ``x.size``
    elements, neither overlapping ``x``; the matmuls then write into
    them instead of new arrays, and the result is a view of one of them.
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
    factors = _INVERSE if inverse else _HADAMARD
    edge_major = inverse and rest >= _EDGE_MAJOR_COLUMNS

    def view(buf: np.ndarray, transposed: bool) -> np.ndarray:
        """(outer, lead, low, rest) view of ``buf``, component-last in
        memory if ``transposed``."""
        if transposed:
            return buf[: x.size].reshape(outer, rest, lead, low).transpose(0, 2, 3, 1)
        return buf[: x.size].reshape(outer, lead, low, rest)

    # one (lead, rest) product per value of the low bits: BLAS runs these
    # strided products faster than one (lead, low * rest) product
    out = view(work[0], edge_major and low == 1)
    np.matmul(factors[lead], x.reshape(outer, lead, low, rest).transpose(0, 2, 1, 3),
              out=out.transpose(0, 2, 1, 3))
    if low > 1:
        src, out = out, view(work[1], edge_major)
        np.matmul(factors[low], src, out=out)
    return out.reshape(outer, q, rest).reshape(x.shape)


def _leave_one_out(fac: np.ndarray, out: np.ndarray,
                   seed: np.ndarray | None = None) -> None:
    """Leave-one-out products along the last axis, of length j: position
    d of ``out`` receives ``seed``, if given, times every factor in
    ``fac`` but the d-th, by prefix and suffix products, so no division
    is involved. Each product is written where it is kept: the prefixes
    s_0 ... s_(d-1) left to right into ``out``, then the suffixes s_(j-1)
    ... s_(d+1) right to left, running in position 0, which they reach
    last. ``out`` must not overlap ``fac``."""
    j = fac.shape[-1]
    if j == 1:
        out[..., 0] = 1.0 if seed is None else seed
        return
    # the first prefix: s_0 itself, or the seed times s_0 in position 1
    first = fac[..., 0] if seed is None else np.multiply(seed, fac[..., 0], out=out[..., 1])
    for d in range(2, j):
        np.multiply(first if d == 2 else out[..., d - 1], fac[..., d - 1], out=out[..., d])
    suff = fac[..., j - 1]
    for d in range(j - 2, 0, -1):
        np.multiply(first if d == 1 else out[..., d], suff, out=out[..., d])
        suff = np.multiply(suff, fac[..., d], out=out[..., 0])
    if seed is not None:
        np.multiply(suff, seed, out=out[..., 0])
    elif j == 2:
        out[..., 0] = suff
        out[..., 1] = first


def loo_convolve(probs: np.ndarray, axis: int = -1,
                 work: np.ndarray | None = None) -> np.ndarray:
    """Leave-one-out group convolution of probability vectors.

    ``axis`` is the component axis, of length q; the leave-one-out axis
    is the last of the other axes, so the default takes shape (..., j, q).
    The result, of the input's shape, holds at position d of that axis
    the convolution under component-wise XOR of the other j - 1 vectors.
    Products are taken in the transform domain with prefix/suffix
    accumulation, so no division is involved. The inverse transform
    leaves each vector's q values one contiguous run in memory when
    there are _EDGE_MAJOR_COLUMNS or more of them for each index of the
    axes before ``axis`` (see ``walsh_hadamard``). ``work`` is an
    optional (3, n) float64 array, n at least ``probs.size``, not
    overlapping ``probs``: the transforms and products then run in it,
    and the result is a view into it, valid until the next call with the
    same ``work``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    axis = axis % probs.ndim
    if work is None:
        work = np.empty((3, probs.size))
    pair = (work[0], work[1])
    loo = probs.ndim - 2 if axis == probs.ndim - 1 else probs.ndim - 1
    spec_t = walsh_hadamard(probs, axis, work=pair)
    prod_t = work[2][: spec_t.size].reshape(spec_t.shape)
    _leave_one_out(np.moveaxis(spec_t, loo, -1), np.moveaxis(prod_t, loo, -1))
    return walsh_hadamard(prod_t, axis, work=pair, inverse=True)


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
    # per block of checks:
    # - (G, order, checks, j) v2c positions from the block's first row,
    #   for each of up to G frames in turn;
    # - per variable class with identity-map edges in the block, the
    #   class's slice of a c2v row, its order, and the message rows of
    #   those edges with the rows of the block's (checks x j, order)
    #   result they copy;
    # - for the other edges, the flat positions in that result of their
    #   image components and the c2v positions they go to, or None
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
    """Variable update of (F, i, C, q) incoming probabilities ``inc``,
    degree-major, and (F, C, q) channel probabilities ``ch``: ``out``
    receives on each edge the channel times the other edges' messages,
    as leave-one-out prefix and suffix products over the (C, q) slabs of
    each frame, then scaled to a largest component of 1 and floored at
    _MSG_FLOOR. Returns the (F, C, q) product of the channel and every
    incoming message."""
    _leave_one_out(np.moveaxis(inc, 1, -1), np.moveaxis(out, 1, -1), seed=ch)
    # the last edge's message times its own incoming one: the full product
    full = out[:, -1] * inc[:, -1]
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
        # an integer: the iteration count must reach it exactly
        max_iter = operator.index(max_iter)
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
        # variable classes in turn, each a degree-major (i, C, q_k) block;
        # v2c has a trailing zero slot. The frame axis leads, so the
        # column indices built here stay valid as frames retire.
        code = self.code
        col_classes, row_classes = code.node_classes
        tables = code.map_tables
        # (degree, order, columns, start of the i * C * order block,
        # columns per block of the variable update: all of them, or as
        # many as fit in CHECK_BLOCK)
        self.var_classes: list[tuple[int, int, np.ndarray, int, int]] = []
        first = np.empty(code.n_edges, dtype=np.int64)  # message column of component 0
        # variable class of each edge, and its message row in the class
        vclass = np.empty(code.n_edges, dtype=np.int64)
        vrow = np.empty(code.n_edges, dtype=np.int64)
        width = 0
        for k, (i, qk, cols, edges) in enumerate(col_classes):
            vclass[edges] = k
            vrow[edges.T] = np.arange(edges.size).reshape(edges.T.shape)
            first[edges] = width + qk * vrow[edges]
            step = min(len(cols), max(1, CHECK_BLOCK // (i * qk)))
            self.var_classes.append((i, qk, cols, width, step))
            width += qk * edges.size
        self._msg_width = width
        qv = code.var_groups[code.edge_col]
        comp = np.arange(tables.shape[1])
        # edges whose map is the identity: their check results go to c2v
        # as whole runs
        ident = (qv == code.check_groups[code.edge_row]) & np.all(
            (tables == comp) | (comp >= qv[:, None]), axis=1)

        # A block of the check walk is G frames of a run of checks, at most
        # CHECK_BLOCK values: a class narrower than that takes several
        # frames whole, a wider one is cut into runs of checks.
        self.check_classes: list[_CheckClass] = []
        for j, ql, _rows, edges in row_classes:
            # v2c column of each component of the class, (ql, C, j),
            # the zero slot outside each edge's image: filled per edge
            # position and variable order, so that no index array spans
            # the whole class
            gather = np.full((ql,) + edges.shape, width, dtype=np.intp)
            for d, e in enumerate(edges.T):
                for qk in np.unique(qv[e]).tolist():
                    c = np.flatnonzero(qv[e] == qk)
                    t = np.arange(qk)
                    gather[tables[e[c, None], t], c[:, None], d] = first[e[c, None]] + t
            frames = _frames_per_block(gather.size)
            step = len(edges) if frames > 1 else max(1, CHECK_BLOCK // (ql * j))
            k = np.arange(frames)[:, None, None, None]
            blocks = []
            for lo in range(0, len(edges), step):
                blk = edges[lo: lo + step].ravel()  # the result's rows
                whole = ident[blk]
                runs = []
                for v in np.unique(vclass[blk[whole]]).tolist():
                    src = np.flatnonzero(whole & (vclass[blk] == v))
                    dst = vrow[blk[src]]
                    order = np.argsort(dst)  # c2v written in row order
                    i, qk, cols, start, _step = self.var_classes[v]
                    runs.append((slice(start, start + i * len(cols) * qk), qk,
                                 dst[order], src[order]))
                comps = None
                if not whole.all():
                    part = np.flatnonzero(~whole)
                    r, t = np.nonzero(comp[:ql] < qv[blk[part], None])
                    e = blk[part[r]]
                    dst = first[e] + t
                    order = np.argsort(dst)  # c2v written in column order
                    comps = ((part[r] * ql + tables[e, t])[order], dst[order])
                blocks.append((gather[:, lo: lo + step][None] + (width + 1) * k,
                               tuple(runs), comps))
            self.check_classes.append(_CheckClass(edges, code.edge_col[edges], blocks))
        self._block = max(gi.size for cc in self.check_classes for gi, *_r in cc.blocks)

    def _build_binary(self) -> None:
        """Edge layouts of the scalar path. Messages are C-ordered (frame,
        edge) arrays in one of two layouts of a frame's row. In variable
        layout each variable class is an (i, C) block, so that the d-th
        edges of its columns (in edge-index order) form one contiguous run
        of C, and columns are renumbered in class order, so that a class's
        channel and posteriors are one slice. In check layout each check
        class is a (j, C) block, so that the d-th edges of its checks form
        one contiguous run of C, over which the shared ``_leave_one_out``
        kernel takes its prefix and suffix products. One index per
        direction moves a whole row between the layouts."""
        code = self.code
        col_classes, row_classes = code.node_classes
        var_edges = np.concatenate([edges.T.ravel() for *_k, edges in col_classes])
        chk_edges = np.concatenate([edges.T.ravel() for *_k, edges in row_classes])
        self._col_order = np.concatenate([cols for _i, _q, cols, _e in col_classes])
        # by inverse permutations: the class-order position of each column,
        # the variable-layout slot of each check slot and the reverse, and
        # the class-order column of each check slot
        self._col_pos = np.argsort(self._col_order)
        self._to_chk = np.argsort(var_edges)[chk_edges]
        self._to_var = np.argsort(chk_edges)[var_edges]
        self._chk_cols = self._col_pos[code.edge_col[chk_edges]]
        # (degree, columns, first class-order column, first slot) per
        # variable class, (degree, checks, first slot) per check class
        self._bvar: list[tuple[int, int, int, int]] = []
        col = slot = 0
        for i, _q, cols, _e in col_classes:
            self._bvar.append((i, len(cols), col, slot))
            col, slot = col + len(cols), slot + i * len(cols)
        self._bchk: list[tuple[int, int, int]] = []
        slot = 0
        for j, _q, rows, _e in row_classes:
            self._bchk.append((j, len(rows), slot))
            slot += j * len(rows)

    @property
    def frames_per_pass(self) -> int:
        """Frames that ``decode`` runs together: as many as fill two
        CHECK_BLOCKs of a frame's message values, and at least one."""
        width = self.code.n_edges if self.binary else self._msg_width
        return max(1, 2 * CHECK_BLOCK // width)

    def decode(self, chan_llr: np.ndarray, want_posteriors: bool = False,
               early_stop: bool = True) -> DecodeResult:
        """Run flooding BP on channel symbol LLRs of shape (F, n, q_max),
        for at most ``max_iter`` iterations.

        With ``early_stop`` a frame retires as soon as its hard decision
        satisfies every check; without it all frames run every iteration
        (used for exact-marginal checks on cycle-free codes).

        The frames run in consecutive passes of ``frames_per_pass``, so a
        decode holds the messages of one pass whatever F is; a frame
        decodes to the same bits in any pass. ``active_frames`` and
        ``unsatisfied_checks`` are summed over the passes.
        """
        chan = np.asarray(chan_llr, dtype=np.float64)
        if chan.ndim == 2:
            chan = chan[None]
        if chan.shape[1:] != (self.code.n, self.q_max):
            raise ValueError(
                f"channel LLRs must have shape (F, {self.code.n}, {self.q_max})"
            )
        # max and min propagate NaN; an infinite LLR turns messages into
        # NaN (inf - inf) and a frame into a false success
        if not (math.isfinite(chan.max(initial=0.0)) and math.isfinite(chan.min(initial=0.0))):
            f, c = np.argwhere(~np.isfinite(chan).all(axis=-1))[0]
            what = "NaN" if np.isnan(chan[f, c]).any() else "an infinite value"
            raise ValueError(f"channel LLRs of frame {f}, column {c} hold {what}")
        F, n = chan.shape[0], self.code.n
        symbols = np.zeros((F, n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, self.max_iter, dtype=np.int64)
        post_out = None
        if want_posteriors:
            # the scalar path reports L(1) - L(0) in component 1
            post_out = np.zeros((F, n, 2)) if self.binary else chan.copy()
        step = self.frames_per_pass
        # a batch of no frames still runs one (empty) pass
        tallies = [
            self._decode_pass(chan[rows], symbols[rows], success[rows], used[rows],
                              None if post_out is None else post_out[rows], early_stop)
            for rows in (slice(lo, lo + step) for lo in range(0, max(F, 1), step))
        ]
        depth = max(len(t) for t in tallies)
        total = sum(np.pad(t, ((0, depth - len(t)), (0, 0))) for t in tallies)
        return DecodeResult(symbols, success, used, total[:, 0], total[:, 1], post_out)

    def _decode_pass(self, chan: np.ndarray, symbols: np.ndarray, success: np.ndarray,
                     used: np.ndarray, post_out: np.ndarray | None,
                     early_stop: bool) -> np.ndarray:
        """Decode one pass of frames, writing their decisions, outcomes,
        iteration counts and, if ``post_out`` is given, posteriors into
        the arrays passed. Returns, per iteration run, the active frames
        and their unsatisfied checks, as an (iterations, 2) array."""
        run = _BinaryRun(self, chan) if self.binary else _VectorRun(self, chan)
        active = np.arange(len(chan))
        tally: list[tuple[int, int]] = []
        it = 0
        while True:
            # iteration 0 checks the hard decisions straight off the channel
            hard, unsat = run.step(it)
            ok = unsat == 0
            tally.append((len(active), int(unsat.sum())))
            symbols[active] = hard
            if post_out is not None:
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
        return np.array(tally, dtype=np.int64)


def _retire(arrays: tuple, mask: np.ndarray) -> list:
    """Retire frames in place: the rows of each C-ordered (F, ...) array
    that ``mask`` keeps move forward, in order, inside the array, which
    is returned as a view of its first k rows, k kept rows. A row only
    moves to a lower index, so no copy reads a row an earlier copy wrote,
    and two distinct rows of a C-ordered array never overlap, so numpy
    copies each without a temporary; a fancy-index assignment onto an
    overlapping slice would allocate one. The views stay C-contiguous."""
    kept = np.flatnonzero(mask).tolist()
    for dst, src in enumerate(kept):
        if dst != src:
            for a in arrays:
                a[dst] = a[src]
    return [a[: len(kept)] for a in arrays]


class _BinaryRun:
    """Scalar LLR messages of one decode on an all-binary code, over the
    active frames, in the two layouts of ``Decoder._build_binary``: v2c
    in variable layout, c2v in check layout, and a work array that holds
    tanh(v2c / 2) in check layout while ``_leave_one_out`` reads it, then
    c2v in variable layout for the variable update (zero before the
    first check update). The channel and the posteriors are in class
    order; hard decisions and posteriors leave in column order."""

    def __init__(self, dec: Decoder, chan: np.ndarray):
        self.dec = dec
        F, E = chan.shape[0], dec.code.n_edges
        self.chan = np.take(chan[:, :, 1] - chan[:, :, 0], dec._col_order, axis=1)
        self.v2c = np.empty((F, E))
        self.c2v = np.empty((F, E))
        self.work = np.zeros((F, E))

    def step(self, it: int) -> tuple[np.ndarray, np.ndarray]:
        """Check update (after iteration 0), variable update, then hard
        decisions in column order and the unsatisfied checks per frame."""
        dec = self.dec
        if it:
            self._check_update()
        self._var_update()
        hard = self.post < 0
        bits = np.take(hard, dec._chk_cols, axis=1)  # check layout
        F = len(bits)
        unsat = np.zeros(F, dtype=np.int64)
        for j, C, s in dec._bchk:
            par = np.bitwise_xor.reduce(bits[:, s: s + j * C].reshape(F, j, C), axis=1)
            unsat += np.count_nonzero(par, axis=-1)
        return np.take(hard, dec._col_pos, axis=1), unsat

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        out[active, :, 1] = np.take(self.post, self.dec._col_pos, axis=1)

    def keep(self, mask: np.ndarray) -> None:
        self.v2c, self.chan = _retire((self.v2c, self.chan), mask)
        # c2v and the work array are written in full before they are read
        F = len(self.v2c)
        self.c2v, self.work = self.c2v[:F], self.work[:F]

    def _var_update(self) -> None:
        """Variable update on (F, E) LLRs, each variable class an (i, C)
        block of the work array, and the (F, n) posteriors."""
        c2v, v2c = self.work, self.v2c
        F = c2v.shape[0]
        post = np.empty_like(self.chan)
        for i, C, c0, s in self.dec._bvar:
            inc = c2v[:, s: s + i * C].reshape(F, i, C)
            tot = inc.sum(axis=1, out=post[:, c0: c0 + C])
            tot += self.chan[:, c0: c0 + C]
            np.subtract(tot[:, None], inc, out=v2c[:, s: s + i * C].reshape(F, i, C))
        np.clip(v2c, -MSG_CLIP, MSG_CLIP, out=v2c)
        self.post = post

    def _check_update(self) -> None:
        """Tanh rule: ``_leave_one_out`` takes the prefix and suffix
        products over the (F, C) slabs of each check class's (j, C) block
        and writes them into c2v."""
        dec, t, c2v = self.dec, self.work, self.c2v
        F = t.shape[0]
        # every index is in range; "clip" only lets take fill its output
        # without a temporary
        np.take(self.v2c, dec._to_chk, axis=1, out=t, mode="clip")
        t *= 0.5
        np.tanh(t, out=t)
        for j, C, s in dec._bchk:
            blk = slice(s, s + j * C)
            _leave_one_out(t[:, blk].reshape(F, j, C).transpose(0, 2, 1),
                           c2v[:, blk].reshape(F, j, C).transpose(0, 2, 1))
        cap = math.tanh(0.5 * MSG_CLIP)
        np.clip(c2v, -cap, cap, out=c2v)
        np.arctanh(c2v, out=c2v)
        c2v *= 2.0
        np.clip(c2v, -MSG_CLIP, MSG_CLIP, out=c2v)
        np.take(c2v, dec._to_var, axis=1, out=self.work, mode="clip")


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
        self.work = np.empty((3, dec._block))
        self.llr = chan
        # channel probabilities anchored at each column's most likely
        # symbol, so the largest is 1 whatever the codeword's labels
        self.chan = []
        for _i, qk, cols, _s, _step in dec.var_classes:
            ch = np.take(chan[..., : qk], cols, axis=1)  # C-ordered, for _retire
            np.subtract(ch.min(axis=-1, keepdims=True), ch, out=ch)
            self.chan.append(np.exp(ch, out=ch))

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        """Channel LLRs plus the LLRs -log(c2v) of each column's edges."""
        rows = active[:, None]
        for i, qk, cols, start, _step in self.dec.var_classes:
            inc = self.c2v[:, start: start + i * len(cols) * qk]
            inc = inc.reshape(len(active), i, len(cols), qk)
            out[rows, cols, :qk] = self.llr[rows, cols, :qk] - np.log(inc).sum(axis=1)

    def keep(self, mask: np.ndarray) -> None:
        self.v2c, self.c2v, *self.chan = _retire((self.v2c, self.c2v, *self.chan), mask)

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
            msgs = slice(start, start + i * len(cols) * qk)
            for lo in range(0, F, frames):
                g = min(frames, F - lo)
                rows = slice(lo, lo + g)
                inc = self.c2v[rows, msgs].reshape(g, i, len(cols), qk)
                out = self.v2c[rows, msgs].reshape(inc.shape)
                for c0 in range(0, len(cols), step):
                    run = slice(c0, c0 + step)
                    if it:
                        _condition(inc[:, :, run])
                    full = _var_products(ch[rows, run], inc[:, :, run], out[:, :, run])
                    hard[rows, cols[run]] = full.argmax(axis=-1)
        unsat = np.zeros(F, dtype=np.int64)
        for cc in dec.check_classes:
            unsat += np.count_nonzero(
                _check_sums(dec.code.map_tables, cc.edges, cc.cols, hard), axis=-1)
        return hard, unsat

    def _check_walk(self) -> None:
        """Group convolution of each block of each check class. The
        block's result holds each edge's values as one run of the check's
        order; identity-map edges' runs go to c2v whole, with one row
        assignment per variable class, the other edges' image components
        one by one."""
        v2c, c2v = self.v2c, self.c2v
        F = v2c.shape[0]
        for cc in self.dec.check_classes:
            for gather, runs, comps in cc.blocks:
                for lo in range(0, F, len(gather)):
                    g = min(len(gather), F - lo)
                    x = self.block[: g * gather[0].size].reshape((g,) + gather.shape[1:])
                    # every index is in range; "clip" only lets take fill x
                    # without a temporary
                    np.take(v2c[lo: lo + g].ravel(), gather[:g], out=x, mode="clip")
                    conv = loo_convolve(x, axis=1, work=self.work)
                    # (g, checks x j, order): a view of an edge-major
                    # result, a copy of a narrow block's
                    res = np.moveaxis(conv, 1, -1).reshape(g, -1, x.shape[1])
                    rows = c2v[lo: lo + g]
                    for cls, qk, dst, src in runs:
                        rows[:, cls].reshape(g, -1, qk)[:, dst] = res[:, src]
                    if comps is not None:
                        rows[:, comps[1]] = res.reshape(g, -1)[:, comps[0]]
