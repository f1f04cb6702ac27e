"""Encoding and belief propagation decoding of hybrid LDPC codes.

Encoding exploits the triangular redundancy structure: rows are processed
last to first and each row's diagonal redundancy symbol is the group sum
of the mapped contributions of its other neighbors, so the cost is one
pass over the edges. The encoder, the syndrome and both decoder paths
take their edge layout from ``HybridParityCheck.node_classes``.

The decoder is a flooding sum-product scheme working symbolwise. Check
updates run in the check group: incoming variable messages are extended
through their edge maps (probability mass placed on the map image, zero
elsewhere), combined under the group convolution via the Walsh Hadamard
transform with leave-one-out prefix and suffix products, and
the results are truncated back through each edge map (read on the image,
renormalized). Variable updates add log likelihood ratios and subtract
the edge's own contribution. Messages are batched over frames and over
node classes that share a degree and group pair.

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
check-to-variable row. Each variable class then renormalizes these,
turns them into LLRs and runs its update in frame blocks sized like the
walk's, so that the dozen passes over a block stay close to the cache.
Only ``channel_llrs`` and the reported posteriors are padded to the
largest group order.

BLAS sums each transform output in an order that depends on the
block's column count, checks x j. A fixed-seed decode is therefore
reproducible bit for bit for a given CHECK_BLOCK, whatever the number
of frames decoded together, and gives the same bits with one or two
BLAS threads; it moves at the rounding level if CHECK_BLOCK changes.

On an all-binary graph the same sum-product messages are scalar LLRs,
and the decoder runs them directly: the check update is the tanh rule,
which is the q = 2 Walsh Hadamard transform written out. Both paths cap
every message at MSG_CLIP.
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
_PROB_FLOOR = 1e-300

# Spread cap of every message the decoder emits, in both directions. The
# check update works on probabilities: a component e^-L below the largest
# one enters the transform domain only as a deviation of order e^-L from
# 1, resolved to float64 eps. Past L = ln(1/eps) = 36 the deviation is
# lost and the message arrives at the check as a certainty. The cap keeps
# the smallest component at 2^10 eps or more, so the check update resolves
# it to about 0.1 percent: ln(2^42) = 29.1.
MSG_CLIP = math.log(1.0 / (2.0**10 * np.finfo(np.float64).eps))

# Float64 values in one block of the check walk, frames x order x checks
# x j, and at most in one frame block of a variable update unless a
# single frame is wider: 768 KiB, so that the two buffers a transform
# matmul reads and writes stay in a 2 MiB L2 cache.
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
    one is H_16 over the four leading bits of the index, then H_(q/16)
    over the others, since H_q is their Kronecker product. The matmuls
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
    out = work[0][: x.size].reshape(outer, lead, low * rest)
    np.matmul(_HADAMARD[lead], x.reshape(out.shape), out=out)
    if low > 1:
        src = out.reshape(outer * lead, low, rest)
        out = work[1][: x.size].reshape(src.shape)
        np.matmul(_HADAMARD[low], src, out=out)
    return out.reshape(x.shape)


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
    spec, prod = np.moveaxis(spec_t, loo, -1), np.moveaxis(prod_t, loo, -1)
    j = spec.shape[-1]
    if j < 2:
        prod[...] = 1.0
    else:
        # prefix products s_0 s_1 ... s_(d-1) left to right, then each
        # times the suffix s_(j-1) ... s_(d+1) built right to left
        prod[..., 1] = spec[..., 0]
        for d in range(2, j):
            np.multiply(prod[..., d - 1], spec[..., d - 1], out=prod[..., d])
        suff = spec[..., j - 1]
        buf = work[3][: suff.size].reshape(suff.shape)
        for d in range(j - 2, 0, -1):
            prod[..., d] *= suff
            suff = np.multiply(suff, spec[..., d], out=buf)
        prod[..., 0] = suff
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


def _mass(p: np.ndarray, q_max: int) -> np.ndarray:
    """Row sums of messages over their last axis, keepdims.

    Numpy sums a contiguous row of 8 or more pairwise and a shorter row
    left to right. A row of 4 inside a code with larger groups is summed
    pairwise, as its zero-padded q_max-wide row would be, so the result
    does not depend on the storage width.
    """
    if p.shape[-1] == 4 and q_max > 4:
        return (p[..., 0:1] + p[..., 1:2]) + (p[..., 2:3] + p[..., 3:4])
    return p.sum(axis=-1, keepdims=True)


def _truncate(p: np.ndarray, q_max: int) -> None:
    """Check results on each edge's image, in place: renormalize over the
    last axis, then to LLRs anchored at the largest mass, spread capped."""
    qk = p.shape[-1]
    np.clip(p, 0.0, None, out=p)
    tsum = _mass(p, q_max)
    flat = tsum[..., 0] <= _PROB_FLOOR
    if np.any(flat):
        # degenerate all-zero message: fall back to uniform on the group
        p[flat] = 1.0 / qk
        tsum = _mass(p, q_max)
    p /= tsum
    np.clip(p, _PROB_FLOOR, None, out=p)
    # component 0 is not a safe anchor under codeword relabeling
    np.log(p, out=p)
    np.subtract(p.max(axis=-1, keepdims=True), p, out=p)
    np.clip(p, None, MSG_CLIP, out=p)


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
        # (degree, order, columns, start of the C * degree * order block)
        self.var_classes: list[tuple[int, int, np.ndarray, int]] = []
        first = np.empty(code.n_edges, dtype=np.int64)  # message column of component 0
        width = 0
        for i, qk, cols, edges in col_classes:
            first[edges] = width + qk * np.arange(edges.size).reshape(edges.shape)
            self.var_classes.append((i, qk, cols, width))
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
    """Vector messages of one decode, over the active frames: v2c and c2v
    at each variable's own order in (F, width) rows, and the work
    buffers of one block of the check walk."""

    def __init__(self, dec: Decoder, chan: np.ndarray):
        self.dec = dec
        F = chan.shape[0]
        # the trailing slot stays zero: components outside an edge's image
        self.v2c = np.zeros((F, dec._msg_width + 1))
        self.c2v = np.zeros((F, dec._msg_width))
        self.block = np.empty(dec._block)
        self.work = np.empty((4, dec._block))
        self.chan = [chan[:, cols, : qk] for _i, qk, cols, _s in dec.var_classes]
        self.post: list[np.ndarray] = []

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        for (_i, qk, cols, _s), post in zip(self.dec.var_classes, self.post):
            out[active[:, None], cols, : qk] = post

    def keep(self, mask: np.ndarray) -> None:
        if mask.all():  # row selection would only copy
            return
        self.v2c, self.c2v = self.v2c[mask], self.c2v[mask]
        self.chan = [ch[mask] for ch in self.chan]

    def step(self, it: int) -> tuple[np.ndarray, np.ndarray]:
        """Check update (after iteration 0), then the LLR-domain variable
        update into v2c probabilities, posteriors, hard decisions and
        syndrome check. Each variable class runs in blocks of frames, its
        c2v truncated just before the variable update reads it."""
        dec = self.dec
        if it:
            self._check_walk()
        F = self.v2c.shape[0]
        hard = np.empty((F, dec.code.n), dtype=np.int64)
        self.post = []
        for (i, qk, cols, start), ch in zip(dec.var_classes, self.chan):
            C = len(cols)
            msgs = slice(start, start + C * i * qk)
            post = np.empty((F, C, qk))
            frames = _frames_per_block(C * i * qk)
            for lo in range(0, F, frames):
                g = min(frames, F - lo)
                rows = slice(lo, lo + g)
                inc = self.c2v[rows, msgs].reshape(g, C, i, qk)
                if it:
                    _truncate(inc, dec.q_max)
                total = post[rows][:, :, None, :]
                np.add(ch[rows][:, :, None, :], inc.sum(axis=2, keepdims=True), out=total)
                out = self.v2c[rows, msgs].reshape(g, C, i, qk)
                np.subtract(total, inc, out=out)
                # to probabilities; clip the spread after re-anchoring to the
                # min so the cap lands on the same components under any
                # relabeling of the transmitted codeword. min - out is
                # exactly -(out - min).
                np.subtract(out.min(axis=-1, keepdims=True), out, out=out)
                np.clip(out, -MSG_CLIP, None, out=out)
                np.exp(out, out=out)
                out /= out.sum(axis=-1, keepdims=True)
            self.post.append(post)
            hard[:, cols] = post.argmin(axis=-1)
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
