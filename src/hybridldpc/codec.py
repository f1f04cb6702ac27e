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
and over node classes that share a degree and group pair, padded to the
largest group order.

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
    axis length, which must be a power of two.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    x = np.moveaxis(x, axis, -1)
    q = x.shape[-1]
    if q & (q - 1):
        raise ValueError(f"transform length must be a power of two, got {q}")
    h = 1
    while h < q:
        y = x.reshape(x.shape[:-1] + (q // (2 * h), 2, h))
        a = y[..., 0, :].copy()
        b = y[..., 1, :]
        y[..., 0, :] = a + b
        y[..., 1, :] = a - b
        h *= 2
    return np.moveaxis(x, -1, axis)


def loo_convolve(probs: np.ndarray) -> np.ndarray:
    """Leave-one-out group convolution along the second-to-last axis.

    ``probs`` holds probability vectors with shape (..., j, q); the
    result at position d is the convolution under component-wise XOR of
    the other j - 1 vectors. Products are taken in the transform domain
    with prefix/suffix accumulation, so no division is involved.
    """
    spec = walsh_hadamard(probs, axis=-1)
    j = probs.shape[-2]
    pref = np.ones_like(spec)
    for d in range(1, j):
        pref[..., d, :] = pref[..., d - 1, :] * spec[..., d - 1, :]
    suff = np.ones_like(spec)
    for d in range(j - 2, -1, -1):
        suff[..., d, :] = suff[..., d + 1, :] * spec[..., d + 1, :]
    return walsh_hadamard(pref * suff, axis=-1) / probs.shape[-1]


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
    def __init__(self, degree: int, order: int, cols: np.ndarray,
                 edges: np.ndarray, img: np.ndarray):
        self.degree = degree
        self.order = order
        self.cols = cols          # (C,)
        self.edges = edges        # (C, degree) edge ids
        self.img = img            # (C, degree, order) image index per edge


class _CheckClass:
    def __init__(self, degree: int, order: int, rows: np.ndarray,
                 edges: np.ndarray, img: np.ndarray, var_orders: np.ndarray):
        self.degree = degree
        self.order = order
        self.rows = rows
        self.edges = edges        # (C, degree)
        self.img = img            # (C, degree, q_max) gather table, padded with 0
        self.var_orders = var_orders  # (C, degree)
        self.mask = np.arange(img.shape[-1])[None, None, :] < var_orders[..., None]


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
        self.apply_tables = apply_tables

        vclasses: dict[tuple[int, int], list[int]] = {}
        for c in range(code.n):
            vclasses.setdefault((int(cdeg[c]), int(code.var_groups[c])), []).append(c)
        self.var_classes: list[_VarClass] = []
        for (i, qk), cols in sorted(vclasses.items()):
            cols = np.array(cols, dtype=np.int64)
            edges = np.array([edges_by_col[c] for c in cols], dtype=np.int64)
            img = apply_tables[edges][:, :, :qk]
            self.var_classes.append(_VarClass(i, qk, cols, edges, img))

        cclasses: dict[tuple[int, int], list[int]] = {}
        for r in range(code.m):
            cclasses.setdefault((int(rdeg[r]), int(code.check_groups[r])), []).append(r)
        self.check_classes: list[_CheckClass] = []
        for (j, ql), rows in sorted(cclasses.items()):
            rows = np.array(rows, dtype=np.int64)
            edges = np.array([edges_by_row[r] for r in rows], dtype=np.int64)
            img = apply_tables[edges]
            vord = code.var_groups[col_of[edges]]
            self.check_classes.append(_CheckClass(j, ql, rows, edges, img, vord))

        # syndrome helper: per check class, column ids of each edge
        self._synd_cols = [code.edge_col[cc.edges] for cc in self.check_classes]

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

    # ---------------- scalar binary message passing ----------------

    def _bin_var_update(self, c2v: np.ndarray, chan: np.ndarray,
                        v2c: np.ndarray) -> np.ndarray:
        """Variable update on (E, F) LLRs; returns the (n, F) posteriors."""
        post = chan.copy()
        for cols, start, i in self._bvar:
            stop = start + len(cols) * i
            inc = c2v[start:stop].reshape(len(cols), i, -1)
            tot = post[cols] + inc.sum(axis=1)
            post[cols] = tot
            np.subtract(tot[:, None, :], inc,
                        out=v2c[start:stop].reshape(len(cols), i, -1))
        np.clip(v2c, -MSG_CLIP, MSG_CLIP, out=v2c)
        return post

    def _bin_check_update(self, v2c: np.ndarray, c2v: np.ndarray) -> None:
        """Tanh rule with leave-one-out prefix and suffix products."""
        t = np.tanh(0.5 * v2c)
        for idx, _cols in self._bchk:
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

    def _bin_syndrome_ok(self, hard: np.ndarray) -> np.ndarray:
        ok = np.ones(hard.shape[1], dtype=bool)
        for _idx, cols in self._bchk:
            ok &= ~np.bitwise_xor.reduce(hard[cols], axis=1).any(axis=0)
        return ok

    def _decode_binary(self, chan: np.ndarray, iters: int,
                       want_posteriors: bool, early_stop: bool) -> DecodeResult:
        n, E = self.code.n, self.code.n_edges
        F = chan.shape[0]
        symbols = np.zeros((F, n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, iters, dtype=np.int64)
        post_out = np.zeros((F, n, 2)) if want_posteriors else None

        active = np.arange(F)
        ch = np.ascontiguousarray((chan[:, :, 1] - chan[:, :, 0]).T)  # (n, F)
        c2v = np.zeros((E, F))
        v2c = np.empty((E, F))
        it = 0
        while True:
            if it:
                self._bin_check_update(v2c, c2v)
            post = self._bin_var_update(c2v, ch, v2c)
            hard = post < 0
            ok = self._bin_syndrome_ok(hard)
            symbols[active] = hard.T
            if want_posteriors:
                post_out[active, :, 1] = post.T
            used[active[ok & ~success[active]]] = it
            success[active[ok]] = True
            if early_stop and not ok.all():
                keep = ~ok
                active = active[keep]
                c2v, v2c, ch = c2v[:, keep], v2c[:, keep], ch[:, keep]
            elif early_stop:
                break
            if it == iters:
                break
            it += 1
        return DecodeResult(symbols, success, used, post_out)

    # ---------------- message passing steps ----------------

    def _var_update(self, m_cv: np.ndarray, chan: np.ndarray, m_vc: np.ndarray) -> None:
        """LLR-domain variable update and extension into the check groups."""
        F = m_cv.shape[0]
        for vc in self.var_classes:
            qk = vc.order
            inc = m_cv[:, vc.edges, :qk]                       # (F, C, i, qk)
            ch = chan[:, vc.cols, :qk]                         # (F, C, qk)
            total = ch[:, :, None, :] + inc.sum(axis=2, keepdims=True)
            out = total - inc
            # to probabilities; clip the spread after re-anchoring to the min
            # so the cap lands on the same components under any relabeling of
            # the transmitted codeword
            out -= out.min(axis=-1, keepdims=True)
            np.clip(out, None, MSG_CLIP, out=out)
            np.exp(-out, out=out)
            out /= out.sum(axis=-1, keepdims=True)
            # extension: scatter mass onto each edge map's image
            C, i = vc.edges.shape
            ext = np.zeros((F, C, i, self.q_max), dtype=np.float64)
            idx = np.broadcast_to(vc.img[None], (F, C, i, qk))
            np.put_along_axis(ext, idx, out, axis=-1)
            m_vc[:, vc.edges.reshape(-1), :] = ext.reshape(F, C * i, self.q_max)

    def _check_update(self, m_vc: np.ndarray, m_cv: np.ndarray) -> None:
        """Group-convolution check update and truncation into var groups."""
        F = m_vc.shape[0]
        for cc in self.check_classes:
            ql = cc.order
            probs = m_vc[:, cc.edges, :ql]                     # (F, C, j, ql)
            conv = loo_convolve(probs)
            np.clip(conv, 0.0, None, out=conv)
            # truncation: gather the image components, renormalize, to LLRs
            full = np.zeros((F,) + cc.edges.shape + (self.q_max,), dtype=np.float64)
            full[..., :ql] = conv
            idx = np.broadcast_to(cc.img[None], full.shape)
            trunc = np.take_along_axis(full, idx, axis=-1)
            trunc = np.where(cc.mask[None], trunc, 0.0)
            tsum = trunc.sum(axis=-1, keepdims=True)
            flat = tsum[..., 0] <= _PROB_FLOOR
            if np.any(flat):
                # degenerate all-zero message: fall back to uniform on the group
                unif = cc.mask.astype(np.float64) / cc.var_orders[..., None]
                trunc = np.where(flat[..., None], np.broadcast_to(unif[None], trunc.shape), trunc)
                tsum = trunc.sum(axis=-1, keepdims=True)
            trunc /= tsum
            np.clip(trunc, _PROB_FLOOR, None, out=trunc)
            # LLRs anchored at the largest mass in the group, spread capped;
            # component 0 is not a safe anchor under codeword relabeling
            logp = np.log(trunc)
            ref = np.max(np.where(cc.mask[None], logp, -np.inf), axis=-1, keepdims=True)
            llr = ref - logp
            np.clip(llr, None, MSG_CLIP, out=llr)
            llr = np.where(cc.mask[None], llr, PAD)
            m_cv[:, cc.edges.reshape(-1), :] = llr.reshape(F, -1, self.q_max)

    def _posteriors(self, m_cv: np.ndarray, chan: np.ndarray) -> np.ndarray:
        F = m_cv.shape[0]
        post = np.array(chan, copy=True)
        for vc in self.var_classes:
            qk = vc.order
            inc = m_cv[:, vc.edges, :qk].sum(axis=2)
            post[:, vc.cols, :qk] += inc
        return post

    def _syndrome_ok(self, symbols: np.ndarray) -> np.ndarray:
        F = symbols.shape[0]
        ok = np.ones(F, dtype=bool)
        for cc, cols in zip(self.check_classes, self._synd_cols):
            syms = symbols[:, cols]                            # (F, C, j)
            tables = self.apply_tables[cc.edges]               # (C, j, q_max)
            mapped = np.take_along_axis(
                np.broadcast_to(tables[None], (F,) + tables.shape),
                syms[..., None], axis=-1)[..., 0]
            row_sum = np.bitwise_xor.reduce(mapped, axis=-1)   # (F, C)
            ok &= ~row_sum.any(axis=-1)
        return ok

    # ---------------- main loop ----------------

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
        if self.binary:
            return self._decode_binary(chan, iters, want_posteriors, early_stop)
        F = chan.shape[0]
        E = self.code.n_edges

        symbols = np.zeros((F, self.code.n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, iters, dtype=np.int64)
        post_out = np.zeros((F, self.code.n, self.q_max)) if want_posteriors else None

        active = np.arange(F)
        chan_a = chan
        m_cv = np.zeros((F, E, self.q_max), dtype=np.float64)
        m_vc = np.zeros((F, E, self.q_max), dtype=np.float64)
        self._var_update(m_cv, chan_a, m_vc)

        # iteration 0 state: check hard decisions straight off the channel
        post = self._posteriors(m_cv, chan_a)
        hard = np.argmin(np.where(np.isfinite(post), post, PAD), axis=-1)
        ok = self._syndrome_ok(hard)
        symbols[active] = hard
        success[active] = ok
        used[active[ok]] = 0
        if want_posteriors:
            post_out[active] = post
        if early_stop:
            keep = ~ok
            active = active[keep]
            m_cv, m_vc, chan_a = m_cv[keep], m_vc[keep], chan_a[keep]

        it = 0
        while len(active) and it < iters:
            it += 1
            self._check_update(m_vc, m_cv)
            self._var_update(m_cv, chan_a, m_vc)
            post = self._posteriors(m_cv, chan_a)
            hard = np.argmin(np.where(np.isfinite(post), post, PAD), axis=-1)
            ok = self._syndrome_ok(hard)
            symbols[active] = hard
            if want_posteriors:
                post_out[active] = post
            newly = ok & ~success[active]
            success[active[ok]] = True
            used[active[newly]] = it
            if early_stop:
                keep = ~ok
                active = active[keep]
                m_cv, m_vc, chan_a = m_cv[keep], m_vc[keep], chan_a[keep]

        return DecodeResult(symbols, success, used, post_out)
