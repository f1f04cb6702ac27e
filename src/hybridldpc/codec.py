"""Encoding and belief propagation decoding of hybrid LDPC codes.

Encoding exploits the triangular redundancy structure: rows are processed
last to first and each row's diagonal redundancy symbol is the group sum
of the mapped contributions of its other neighbors, so the cost is one
pass over the edges.

The decoder is a flooding sum-product scheme working symbolwise. Check
updates run in the check group: incoming variable messages are extended
through their edge maps (probability mass scattered onto the map image,
zero elsewhere), combined under the group convolution via the fast
Walsh Hadamard transform with leave-one-out prefix and suffix products,
and the results are truncated back through each edge map (gather on the
image, renormalize). Variable updates add log likelihood ratios and
subtract the edge's own contribution. Messages are batched over frames
and over node classes that share a degree and group pair, in two layouts:

- variable-to-check probabilities live at the check order, component
  major: each check class is an (order, C, j) block of a frame's row, so
  the transform's butterflies run along the leading axis over contiguous
  runs, and components outside an edge's image stay zero;
- check-to-variable LLRs live at the variable's own order, one
  (F, edges, q_k) array per variable order, so a G(8) edge carries 8
  values in a G(256) check.

Extension scatters and truncation gathers through flat indices fixed
when the decoder is built. Only ``channel_llrs`` and the reported
posteriors are padded to the largest group order.

On an all-binary graph the same sum-product messages are scalar LLRs,
and the decoder runs them directly: the check update is the tanh rule,
which is the q = 2 Walsh Hadamard transform written out. Both paths cap
every message at MSG_CLIP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def walsh_hadamard(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Walsh Hadamard transform along one axis.

    Self-inverse up to the factor q: applying it twice multiplies by the
    axis length, which must be a power of two. The input is not modified.
    Stages h = 1, 2, ..., q/2 run with the transform axis leading, each
    reading one buffer and writing the other, so a stage works on
    contiguous runs of h times the size of the other axes. The result is
    a view of a component-leading array.
    """
    xv = np.moveaxis(np.asarray(x, dtype=np.float64), axis, 0)
    q = xv.shape[0]
    if q & (q - 1):
        raise ValueError(f"transform length must be a power of two, got {q}")
    if q == 1:
        return np.moveaxis(xv.copy(), 0, axis)
    rest = xv.shape[1:]
    bufs = (np.empty(xv.shape), np.empty(xv.shape) if q > 2 else None)
    src, h, k = xv, 1, 0
    while h < q:
        dst = bufs[k]
        s = src.reshape((q // (2 * h), 2, h) + rest)
        d = dst.reshape(s.shape)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        src, h, k = dst, 2 * h, 1 - k
    return np.moveaxis(src, 0, axis)


def loo_convolve(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Leave-one-out group convolution of probability vectors.

    ``axis`` is the component axis, of length q; the leave-one-out axis
    is the last of the other axes, so the default takes shape (..., j, q).
    The result at position d of that axis is the convolution under
    component-wise XOR of the other j - 1 vectors. Products are taken in
    the transform domain with prefix/suffix accumulation, so no division
    is involved.
    """
    spec = np.moveaxis(walsh_hadamard(probs, axis), axis, 0)
    j = spec.shape[-1]
    prod = np.empty_like(spec)
    if j < 2:
        prod[...] = 1.0
    else:
        # prefix products s_0 s_1 ... s_(d-1) left to right, then each
        # times the suffix s_(j-1) ... s_(d+1) built right to left
        prod[..., 1] = spec[..., 0]
        for d in range(2, j):
            np.multiply(prod[..., d - 1], spec[..., d - 1], out=prod[..., d])
        suff = spec[..., j - 1]
        for d in range(j - 2, 0, -1):
            prod[..., d] *= suff
            suff = suff * spec[..., d]
        prod[..., 0] = suff
    out = walsh_hadamard(prod, 0)
    out /= spec.shape[0]
    return np.moveaxis(out, 0, axis)


def symbols_to_bits(code: HybridParityCheck, symbols: np.ndarray) -> np.ndarray:
    """Unpack full codeword symbols to bits, column major, LSB first."""
    symbols = np.asarray(symbols)
    p = np.log2(code.var_groups).astype(np.int64)  # orders are powers of two
    col = np.repeat(np.arange(code.n), p)
    bit = np.arange(len(col)) - np.repeat(np.cumsum(p) - p, p)
    return ((symbols[..., col] >> bit) & 1).astype(np.uint8)


def _row_edge_lists(code: HybridParityCheck) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(code.m)]
    for e in range(code.n_edges):
        rows[int(code.edge_row[e])].append(e)
    return rows


def encode(code: HybridParityCheck, info_symbols: np.ndarray) -> np.ndarray:
    """Compute full codewords from information symbols, shape (..., n_info)."""
    info_symbols = np.atleast_2d(np.asarray(info_symbols, dtype=np.int64))
    if info_symbols.shape[-1] != code.n_info:
        raise ValueError(f"expected {code.n_info} information symbols")
    frames = info_symbols.shape[0]
    syms = np.zeros((frames, code.n), dtype=np.int64)
    syms[:, : code.n_info] = info_symbols
    rows = _row_edge_lists(code)
    for t in range(code.m - 1, -1, -1):
        diag_col = code.n_info + t
        acc = np.zeros(frames, dtype=np.int64)
        for e in rows[t]:
            c = int(code.edge_col[e])
            if c == diag_col:
                continue
            table = code.edge_maps[e].apply_table
            acc ^= table[syms[:, c]]
        syms[:, diag_col] = acc  # identity diagonal map: symbol equals the sum
    return syms


def syndrome(code: HybridParityCheck, symbols: np.ndarray) -> np.ndarray:
    """Group sum of mapped neighbors per check row; zero for codewords."""
    symbols = np.atleast_2d(np.asarray(symbols, dtype=np.int64))
    frames = symbols.shape[0]
    out = np.zeros((frames, code.m), dtype=np.int64)
    for e in range(code.n_edges):
        r, c = int(code.edge_row[e]), int(code.edge_col[e])
        out[:, r] ^= code.edge_maps[e].apply_table[symbols[:, c]]
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
    pos = 0
    for c, q in enumerate(code.var_groups):
        q = int(q)
        p = bits_per_symbol(q)
        out[:, c, :q] = symbol_llr_array(bllr[:, pos: pos + p], q)
        pos += p
    return out


@dataclass
class DecodeResult:
    symbols: np.ndarray       # (F, n) hard decisions
    success: np.ndarray       # (F,) syndrome reached zero
    iterations: np.ndarray    # (F,) iterations used (max_iter when failed)
    posterior_llr: np.ndarray | None = None  # (F, n, q_max) when requested


class _VarClass:
    def __init__(self, degree: int, order: int, cols: np.ndarray, start: int,
                 scatter: np.ndarray):
        self.degree = degree
        self.order = order
        self.cols = cols          # (C,)
        self.start = start        # first of its C * degree edges in the order's c2v
        self.scatter = scatter    # (C * degree * order,) v2c column of each image component


class _CheckClass:
    def __init__(self, order: int, offset: int, cols: np.ndarray,
                 table_base: np.ndarray):
        self.order = order
        self.offset = offset      # first v2c and conv column of its order * C * j block
        self.cols = cols          # (C, j) column of each edge
        self.table_base = table_base  # (C, j) start of each edge's map table


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
        # Messages of F active frames:
        # - v2c: (F, width) rows, each check class an (order, C, j) block,
        #   component major for the transform;
        # - conv: the check results in the same blocks, edge major as
        #   (C, j, order), so that truncation gathers contiguous runs;
        # - c2v: one (F, edges, q_k) array per variable order.
        # The frame axis leads all three, so the flat gather and scatter
        # indices built here stay valid as frames retire.
        code = self.code
        E = code.n_edges
        col_of = code.edge_col
        row_of = code.edge_row
        cdeg = code.col_degrees()
        rdeg = code.row_degrees()

        edges_by_col: list[list[int]] = [[] for _ in range(code.n)]
        edges_by_row: list[list[int]] = [[] for _ in range(code.m)]
        for e in range(E):
            edges_by_col[int(col_of[e])].append(e)
            edges_by_row[int(row_of[e])].append(e)

        apply_tables = np.zeros((E, self.q_max), dtype=np.int64)
        for e in range(E):
            t = code.edge_maps[e].apply_table
            apply_tables[e, : len(t)] = t
        self._apply_flat = apply_tables.ravel()

        cclasses: dict[tuple[int, int], list[int]] = {}
        for r in range(code.m):
            cclasses.setdefault((int(rdeg[r]), int(code.check_groups[r])), []).append(r)
        v2c_first = np.empty(E, dtype=np.int64)   # v2c column of component 0
        v2c_step = np.empty(E, dtype=np.int64)    # v2c columns between components
        conv_first = np.empty(E, dtype=np.int64)  # conv column of component 0
        self.check_classes: list[_CheckClass] = []
        width = 0
        for (_j, ql), rows in sorted(cclasses.items()):
            edges = np.array([edges_by_row[r] for r in rows], dtype=np.int64)
            slot = np.arange(edges.size).reshape(edges.shape)
            v2c_first[edges] = width + slot
            v2c_step[edges] = edges.size
            conv_first[edges] = width + ql * slot
            self.check_classes.append(
                _CheckClass(ql, width, col_of[edges], edges * self.q_max))
            width += ql * edges.size
        self._width = width

        vclasses: dict[tuple[int, int], list[int]] = {}
        for c in range(code.n):
            vclasses.setdefault((int(code.var_groups[c]), int(cdeg[c])), []).append(c)
        self.var_classes: list[_VarClass] = []
        gather: dict[int, list[np.ndarray]] = {}
        for (qk, i), cols in sorted(vclasses.items()):
            cols = np.array(cols, dtype=np.int64)
            edges = np.array([edges_by_col[c] for c in cols], dtype=np.int64)
            img = apply_tables[edges][:, :, :qk]
            scatter = v2c_first[edges][..., None] + v2c_step[edges][..., None] * img
            parts = gather.setdefault(qk, [])
            start = sum(len(g) for g in parts) // qk
            parts.append((conv_first[edges][..., None] + img).ravel())
            self.var_classes.append(_VarClass(i, qk, cols, start, scatter.ravel()))
        # order -> conv column of each c2v entry, variable classes in turn
        self._gather = {qk: np.concatenate(parts) for qk, parts in gather.items()}

    def _build_binary(self) -> None:
        # Messages are (edge, frame) arrays. Edges are renumbered so that
        # each variable degree class is one contiguous (C, i) block; the
        # check side gathers and scatters through (C, j) index tables.
        code = self.code
        col_of, row_of = code.edge_col, code.edge_row
        cdeg, rdeg = code.col_degrees(), code.row_degrees()
        by_col = np.argsort(col_of, kind="stable")
        col_start = np.concatenate([[0], np.cumsum(cdeg)[:-1]])
        self._bvar: list[tuple[np.ndarray, int, int]] = []
        perm = []
        pos = 0
        for i in np.unique(cdeg[cdeg > 0]):
            cols = np.flatnonzero(cdeg == i)
            perm.append(by_col[col_start[cols][:, None] + np.arange(i)].ravel())
            self._bvar.append((cols, pos, int(i)))
            pos += len(cols) * int(i)
        perm = np.concatenate(perm)
        internal = np.empty(code.n_edges, dtype=np.int64)
        internal[perm] = np.arange(code.n_edges)

        by_row = np.argsort(row_of, kind="stable")
        row_start = np.concatenate([[0], np.cumsum(rdeg)[:-1]])
        self._bchk: list[tuple[np.ndarray, np.ndarray]] = []
        for j in np.unique(rdeg[rdeg > 0]):
            rows = np.flatnonzero(rdeg == j)
            edges = by_row[row_start[rows][:, None] + np.arange(j)]
            self._bchk.append((internal[edges], col_of[edges]))

    def decode(self, chan_llr: np.ndarray, max_iter: int | None = None,
               want_posteriors: bool = False, early_stop: bool = True) -> DecodeResult:
        """Run flooding BP on channel symbol LLRs of shape (F, n, q_max).

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
        iters = self.max_iter if max_iter is None else max_iter
        F, n = chan.shape[0], self.code.n
        run = _BinaryRun(self, chan) if self.binary else _VectorRun(self, chan)

        symbols = np.zeros((F, n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, iters, dtype=np.int64)
        post_out = None
        if want_posteriors:
            # the scalar path reports L(1) - L(0) in component 1
            post_out = np.zeros((F, n, 2)) if self.binary else chan.copy()

        active = np.arange(F)
        it = 0
        while True:
            # iteration 0 checks the hard decisions straight off the channel
            hard, ok = run.step(it)
            symbols[active] = hard
            if want_posteriors:
                run.write_posteriors(post_out, active)
            used[active[ok & ~success[active]]] = it
            success[active[ok]] = True
            if it == iters:
                break
            if early_stop:
                keep = ~ok
                active = active[keep]
                if not len(active):
                    break
                run.keep(keep)
            it += 1
        return DecodeResult(symbols, success, used, post_out)


class _BinaryRun:
    """Scalar LLR messages of one decode on an all-binary code, as
    (edge, frame) arrays over the active frames."""

    def __init__(self, dec: Decoder, chan: np.ndarray):
        self.dec = dec
        F, E = chan.shape[0], dec.code.n_edges
        self.chan = np.ascontiguousarray((chan[:, :, 1] - chan[:, :, 0]).T)  # (n, F)
        self.c2v = np.zeros((E, F))
        self.v2c = np.empty((E, F))
        self.post = self.chan

    def step(self, it: int) -> tuple[np.ndarray, np.ndarray]:
        if it:
            self._check_update()
        self._var_update()
        hard = self.post < 0
        ok = np.ones(hard.shape[1], dtype=bool)
        for _idx, cols in self.dec._bchk:
            ok &= ~np.bitwise_xor.reduce(hard[cols], axis=1).any(axis=0)
        return hard.T, ok

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        out[active, :, 1] = self.post.T

    def keep(self, mask: np.ndarray) -> None:
        # Column selection returns Fortran-ordered arrays, each frame's
        # edges adjacent, even when every frame stays. Under early stop the
        # selection after iteration 0 thus fixes the order in which the
        # variable update sums each degree class, the same for every frame
        # of a batch.
        self.c2v, self.v2c = self.c2v[:, mask], self.v2c[:, mask]
        self.chan = self.chan[:, mask]

    def _var_update(self) -> None:
        """Variable update on (E, F) LLRs and the (n, F) posteriors."""
        c2v, v2c = self.c2v, self.v2c
        post = self.chan.copy()
        for cols, start, i in self.dec._bvar:
            stop = start + len(cols) * i
            inc = c2v[start:stop].reshape(len(cols), i, -1)
            tot = post[cols] + inc.sum(axis=1)
            post[cols] = tot
            np.subtract(tot[:, None, :], inc,
                        out=v2c[start:stop].reshape(len(cols), i, -1))
        np.clip(v2c, -MSG_CLIP, MSG_CLIP, out=v2c)
        self.post = post

    def _check_update(self) -> None:
        """Tanh rule with leave-one-out prefix and suffix products."""
        c2v = self.c2v
        t = np.tanh(0.5 * self.v2c)
        for idx, _cols in self.dec._bchk:
            tt = t[idx]                                        # (C, j, F)
            loo = np.ones_like(tt)
            np.cumprod(tt[:, :-1], axis=1, out=loo[:, 1:])
            suff = np.cumprod(tt[:, :0:-1], axis=1)[:, ::-1]
            loo[:, :-1] *= suff
            c2v[idx] = loo
        cap = math.tanh(0.5 * MSG_CLIP)
        np.clip(c2v, -cap, cap, out=c2v)
        np.arctanh(c2v, out=c2v)
        c2v *= 2.0
        np.clip(c2v, -MSG_CLIP, MSG_CLIP, out=c2v)


class _VectorRun:
    """Vector messages of one decode, over the active frames: v2c at check
    order in (F, width) rows, c2v at each variable's own order."""

    def __init__(self, dec: Decoder, chan: np.ndarray):
        self.dec = dec
        F = chan.shape[0]
        # components outside each edge's image stay zero
        self.v2c = np.zeros((F, dec._width))
        self.conv = np.empty((F, dec._width))
        self.c2v = {qk: np.zeros((F, len(idx) // qk, qk)) for qk, idx in dec._gather.items()}
        self.chan = [chan[:, vc.cols, : vc.order] for vc in dec.var_classes]
        self.post: list[np.ndarray] = []

    def step(self, it: int) -> tuple[np.ndarray, np.ndarray]:
        if it:
            self._check_update()
        return self._var_update()

    def write_posteriors(self, out: np.ndarray, active: np.ndarray) -> None:
        for vc, post in zip(self.dec.var_classes, self.post):
            out[active[:, None], vc.cols, : vc.order] = post

    def keep(self, mask: np.ndarray) -> None:
        if mask.all():  # row selection would only copy
            return
        self.v2c = self.v2c[mask]
        self.conv = np.empty_like(self.v2c)
        self.c2v = {qk: m[mask] for qk, m in self.c2v.items()}
        self.chan = [ch[mask] for ch in self.chan]

    def _var_update(self) -> tuple[np.ndarray, np.ndarray]:
        """LLR-domain variable update, extension into the check groups,
        posteriors, hard decisions and syndrome check."""
        dec = self.dec
        F = self.v2c.shape[0]
        hard = np.empty((F, dec.code.n), dtype=np.int64)
        self.post = []
        for vc, ch in zip(dec.var_classes, self.chan):
            qk, C, i = vc.order, len(vc.cols), vc.degree
            inc = self.c2v[qk][:, vc.start: vc.start + C * i].reshape(F, C, i, qk)
            total = ch[:, :, None, :] + inc.sum(axis=2, keepdims=True)
            out = total - inc
            # to probabilities; clip the spread after re-anchoring to the min
            # so the cap lands on the same components under any relabeling of
            # the transmitted codeword. min - out is exactly -(out - min).
            np.subtract(out.min(axis=-1, keepdims=True), out, out=out)
            np.clip(out, -MSG_CLIP, None, out=out)
            np.exp(out, out=out)
            out /= out.sum(axis=-1, keepdims=True)
            # extension: each edge's mass lands on its map's image
            flat = out.reshape(F, -1)
            for f in range(F):
                self.v2c[f, vc.scatter] = flat[f]
            post = total[:, :, 0, :]
            self.post.append(post)
            hard[:, vc.cols] = post.argmin(axis=-1)
        ok = np.ones(F, dtype=bool)
        for cc in dec.check_classes:
            mapped = dec._apply_flat[cc.table_base + hard[:, cc.cols]]   # (F, C, j)
            ok &= ~np.bitwise_xor.reduce(mapped, axis=-1).any(axis=-1)
        return hard, ok

    def _check_update(self) -> None:
        """Group-convolution check update and truncation into var groups."""
        dec = self.dec
        F = self.v2c.shape[0]
        for cc in dec.check_classes:
            ql, (C, j) = cc.order, cc.cols.shape
            block = slice(cc.offset, cc.offset + ql * C * j)
            conv = loo_convolve(self.v2c[:, block].reshape(F, ql, C, j), axis=1)
            # edge major, so that the truncation gathers contiguous runs
            self.conv[:, block].reshape(F, C, j, ql)[...] = np.moveaxis(conv, 1, -1)
        for qk, idx in dec._gather.items():
            # truncation: gather the image components, renormalize, to LLRs
            p = np.take(self.conv, idx, axis=1).reshape(F, -1, qk)
            np.clip(p, 0.0, None, out=p)
            tsum = _mass(p, dec.q_max)
            flat = tsum[..., 0] <= _PROB_FLOOR
            if np.any(flat):
                # degenerate all-zero message: fall back to uniform on the group
                p[flat] = 1.0 / qk
                tsum = _mass(p, dec.q_max)
            p /= tsum
            np.clip(p, _PROB_FLOOR, None, out=p)
            # LLRs anchored at the largest mass in the group, spread capped;
            # component 0 is not a safe anchor under codeword relabeling
            np.log(p, out=p)
            llr = self.c2v[qk]
            np.subtract(p.max(axis=-1, keepdims=True), p, out=llr)
            np.clip(llr, None, MSG_CLIP, out=llr)
