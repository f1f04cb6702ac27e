"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms from
the package internals: direct convolutions instead of transforms,
codeword enumeration instead of message passing, the scalar tanh rule
instead of vector messages, and histogram densities instead of Gaussian
functionals. The plain walks of the density-evolution kernels, the
whole-chunk kernel that the package now streams, and the padded vector
decoder are the exception: they keep the package's arithmetic in its
direct evaluation order, so that the package agrees with them bit for
bit, or, where its transforms sum in another order, to a stated bound.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from scipy.interpolate import PchipInterpolator

from hybridldpc.channel import ChannelParams, bit_llr, symbol_llr_array
from hybridldpc.codec import MSG_CLIP, PAD, DecodeResult
from hybridldpc.codec import _PROB_FLOOR as PROB_FLOOR
from hybridldpc.construction import HybridParityCheck
from hybridldpc.density_evolution import (
    _JV_POINTS,
    _JV_SAMPLES,
    _M_MAX,
    _TABLE_POINTS,
    _TABLE_SAMPLES,
    _TABLE_SEED,
    JTable,
    _grid,
    _pav_increasing,
    jc,
    jc_inv,
    jv_channel_offset,
)
from hybridldpc.ensembles import Ensemble, EnsembleError
from hybridldpc.groups import (
    SymbolMap,
    bits_per_symbol,
    identity_map,
    random_injective_map,
    validate_order,
)


def ebn0_db(sigma: float, rate: float) -> float:
    """Eb/N0 in dB of the channel of noise ``sigma`` for a code of the
    given rate: the inverse of ``ChannelParams.from_ebn0_db``."""
    return 10.0 * math.log10(1.0 / (2.0 * rate * sigma * sigma))


# ---------------------------------------------------------------------------
# marginals of an ensemble and the closed-form rates


def lambda_marginal(ens: Ensemble) -> dict[int, float]:
    """Edge mass per variable degree."""
    out: dict[int, float] = {}
    for (i, _j, _qk, _ql), m in ens.pi.items():
        out[i] = out.get(i, 0.0) + m
    return dict(sorted(out.items()))


def rho_marginal(ens: Ensemble) -> dict[int, float]:
    """Edge mass per check degree."""
    out: dict[int, float] = {}
    for (_i, j, _qk, _ql), m in ens.pi.items():
        out[j] = out.get(j, 0.0) + m
    return dict(sorted(out.items()))


def gamma_given_degree(ens: Ensemble, degree: int) -> dict[int, float]:
    """Group profile of edges conditioned on the variable degree."""
    li = lambda_marginal(ens).get(degree, 0.0)
    if li <= 0.0:
        raise EnsembleError(f"no edge mass at variable degree {degree}")
    out: dict[int, float] = {}
    for (i, _j, qk, _ql), m in ens.pi.items():
        if i == degree:
            out[qk] = out.get(qk, 0.0) + m / li
    return dict(sorted(out.items()))


def rate_lambda_profile(
    lambda_: Mapping[int, float],
    rho: Mapping[int, float],
    gamma: Mapping[int, Mapping[int, float]],
    q_max: int,
) -> float:
    """Rate from the variable profile, all checks in the largest group."""
    num = sum(rj / j for j, rj in rho.items()) * math.log2(q_max)
    den = 0.0
    for i, li in lambda_.items():
        if li <= 0:
            continue
        den += (li / i) * sum(g * math.log2(q) for q, g in gamma[i].items())
    if den <= 0:
        raise EnsembleError("zero denominator in profile rate")
    return 1.0 - num / den


def rate_regular(
    d_v: int, d_c: int, gamma_tilde: Mapping[int, float], q_max: int
) -> float:
    """Rate of a (d_v, d_c)-regular hybrid ensemble from node-wise group
    proportions, all checks in the largest group."""
    if d_v < 1 or d_c < 1:
        raise EnsembleError("degrees must be positive")
    den = (1.0 / d_v) * sum(f * math.log2(q) for q, f in gamma_tilde.items())
    if den <= 0:
        raise EnsembleError("zero denominator in regular rate")
    return 1.0 - (math.log2(q_max) / d_c) / den


# ---------------------------------------------------------------------------
# direct group convolution


def direct_pair_convolve(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """XOR convolution of two probability arrays (..., q), O(q^2)."""
    q = u.shape[-1]
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=np.float64)
    for a in range(q):
        for b in range(q):
            out[..., a ^ b] += u[..., a] * v[..., b]
    return out


def direct_loo_convolve(probs: np.ndarray) -> np.ndarray:
    """Leave-one-out XOR convolution along axis -2 by pairwise folding."""
    j = probs.shape[-2]
    out = np.empty_like(probs)
    for d in range(j):
        acc = None
        for e in range(j):
            if e == d:
                continue
            cur = probs[..., e, :]
            acc = cur.copy() if acc is None else direct_pair_convolve(acc, cur)
        out[..., d, :] = acc
    return out


# ---------------------------------------------------------------------------
# random cycle-free hybrid codes and exact posteriors


def random_tree_code(rng: np.random.Generator, max_symbols: int = 12,
                     groups: tuple[int, ...] = (2, 4, 8)) -> HybridParityCheck:
    """Sample a small hybrid code whose graph is a forest.

    One redundancy column per row carries only its diagonal edge, and
    information columns never join two rows that are already connected,
    so no cycle can appear.
    """
    m = int(rng.integers(1, 4))
    row_groups = np.sort(rng.choice(groups, size=m))
    n_info = int(rng.integers(1, max_symbols - m + 1))

    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edge_row: list[int] = []
    edge_col: list[int] = []
    edge_maps: list[SymbolMap] = []
    info_groups: list[int] = []

    for c in range(n_info):
        deg = int(rng.integers(1, min(m, 3) + 1))
        # keep only rows in distinct components
        order = rng.permutation(m)
        rows: list[int] = []
        comps: set[int] = set()
        for r in order:
            root = find(int(r))
            if root not in comps:
                rows.append(int(r))
                comps.add(root)
            if len(rows) == deg:
                break
        rows.sort()
        for r in rows[1:]:
            parent[find(r)] = find(rows[0])
        qmax_allowed = int(min(row_groups[r] for r in rows))
        choices = [g for g in groups if g <= qmax_allowed]
        qk = int(choices[rng.integers(0, len(choices))])
        info_groups.append(qk)
        for r in rows:
            edge_row.append(r)
            edge_col.append(c)
            edge_maps.append(random_injective_map(rng, qk, int(row_groups[r])))

    # sort information columns by (group, degree) to honor the layout
    degs = [edge_col.count(c) for c in range(n_info)]
    perm = sorted(range(n_info), key=lambda c: (info_groups[c], degs[c]))
    remap = {old: new for new, old in enumerate(perm)}
    edge_col = [remap[c] for c in edge_col]
    info_groups = [info_groups[old] for old in perm]

    for t in range(m):
        edge_row.append(t)
        edge_col.append(n_info + t)
        edge_maps.append(identity_map(int(row_groups[t])))

    var_groups = np.array(info_groups + list(row_groups), dtype=np.int64)
    order = np.lexsort((np.array(edge_row), np.array(edge_col)))
    code = HybridParityCheck(
        var_groups=var_groups,
        check_groups=np.array(row_groups, dtype=np.int64),
        n_info=n_info,
        edge_row=np.array(edge_row, dtype=np.int64)[order],
        edge_col=np.array(edge_col, dtype=np.int64)[order],
        edge_maps=[edge_maps[i] for i in order],
    )
    code.validate()
    return code


def reference_peg_place(peg, col: int, candidates: np.ndarray) -> None:
    """The placement rule of ``construction._Peg.place`` by a full
    breadth-first search over dicts and sets of the graph in ``peg.edges``:
    every reachable row gets its distance, unreachable rows count as
    infinitely far, and no component label or early stop is used. Draws
    from ``peg.rng`` exactly as the package does."""
    col_rows: dict[int, list[int]] = {}
    row_cols: dict[int, list[int]] = {}
    for r, c in peg.edges:
        col_rows.setdefault(c, []).append(r)
        row_cols.setdefault(r, []).append(c)
    taken = set(col_rows.get(col, []))
    cand = np.array([r for r in candidates.tolist() if r not in taken], dtype=np.int64)
    under = cand[peg.row_fill[cand] < peg.lay.row_target[cand]]
    if len(under):
        cand = under
    dist: dict[int, int] = {}
    seen = {col}
    front = [col]
    depth = 1
    while front:
        nxt = []
        for c in front:
            for r in col_rows.get(c, []):
                if r in dist:
                    continue
                dist[r] = depth
                for c2 in row_cols[r]:
                    if c2 not in seen:
                        seen.add(c2)
                        nxt.append(c2)
        front = nxt
        depth += 2
    d = np.array([dist.get(r, math.inf) for r in cand.tolist()])
    fill = peg.row_fill[cand]
    far = d == d.max()
    pool = cand[far & (fill == fill[far].min())]
    row = int(pool[peg.rng.integers(0, len(pool))]) if len(pool) > 1 else int(pool[0])
    peg.add_edge(row, col)


def enumerate_codewords(code: HybridParityCheck) -> np.ndarray:
    """All codewords by brute force over information symbols."""
    from hybridldpc.codec import encode

    ranges = [int(q) for q in code.var_groups[: code.n_info]]
    total = int(np.prod(ranges)) if ranges else 1
    info = np.zeros((total, code.n_info), dtype=np.int64)
    rep = 1
    for c, q in enumerate(ranges):
        info[:, c] = (np.arange(total) // rep) % q
        rep *= q
    return encode(code, info)


def brute_force_posteriors(code: HybridParityCheck,
                           chan_llr: np.ndarray) -> np.ndarray:
    """Exact per-symbol posterior probabilities by codeword enumeration.

    ``chan_llr`` has shape (n, q_max); returns the same shape with
    P(symbol c = a | y) in components a < q_c and zero elsewhere.
    Symbol values no codeword attains get exact zeros.
    """
    words = enumerate_codewords(code)
    # unnormalized log-likelihood of each word
    ll = -chan_llr[np.arange(code.n)[None, :], words].sum(axis=1)
    mx = ll.max()
    weight = np.exp(ll - mx)
    q_max = chan_llr.shape[-1]
    out = np.zeros((code.n, q_max))
    for c in range(code.n):
        q = int(code.var_groups[c])
        for a in range(q):
            out[c, a] = weight[words[:, c] == a].sum()
        out[c] /= out[c].sum()
    return out


def posterior_llrs_to_probs(post: np.ndarray, var_groups: np.ndarray) -> np.ndarray:
    """Decoder posterior LLRs (n, q_max) to normalized probabilities."""
    n, q_max = post.shape
    out = np.zeros((n, q_max))
    for c in range(n):
        q = int(var_groups[c])
        z = -post[c, :q]
        z -= z.max()
        p = np.exp(z)
        out[c, :q] = p / p.sum()
    return out


# ---------------------------------------------------------------------------
# reference binary sum-product decoder (scalar tanh rule)


def edges_by_degree(node: np.ndarray, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Edges of ``count`` nodes grouped by node degree: one (nodes, edges)
    pair per degree present, ``edges`` an (N, degree) array whose row c
    lists the edges of ``nodes[c]`` in ascending edge index."""
    deg = np.bincount(node, minlength=count)
    by_node = np.argsort(node, kind="stable")
    start = np.cumsum(deg) - deg
    groups = []
    for d in np.unique(deg[deg > 0]).tolist():
        nodes = np.flatnonzero(deg == d)
        groups.append((nodes, by_node[start[nodes, None] + np.arange(d)]))
    return groups


class ReferenceBinaryBP:
    """Flooding sum-product decoder for an all-binary code.

    Scalar LLR messages and the explicit tanh product rule, over rows and
    columns grouped by degree: each group's messages are one (F, nodes,
    degree) array. No shared machinery with the package decoder beyond
    the graph itself.
    """

    def __init__(self, code: HybridParityCheck, max_iter: int = 100):
        if set(np.unique(code.var_groups)) != {2}:
            raise ValueError("reference decoder handles binary codes only")
        self.code = code
        self.max_iter = max_iter
        self.row_edges = [edges for _rows, edges in edges_by_degree(code.edge_row, code.m)]
        self.row_cols = [code.edge_col[edges] for edges in self.row_edges]
        self.col_groups = edges_by_degree(code.edge_col, code.n)
        self.edge_col = code.edge_col

    def _check_pass(self, v2c: np.ndarray) -> np.ndarray:
        c2v = np.empty_like(v2c)
        t = np.tanh(np.clip(v2c, -30.0, 30.0) / 2.0)
        for edges in self.row_edges:
            sub = t[:, edges.T]  # (F, j, rows)
            j = edges.shape[1]
            pref = np.ones_like(sub)
            for d in range(1, j):
                pref[:, d] = pref[:, d - 1] * sub[:, d - 1]
            suff = np.ones_like(sub)
            for d in range(j - 2, -1, -1):
                suff[:, d] = suff[:, d + 1] * sub[:, d + 1]
            prod = np.clip(pref * suff, -1.0 + 1e-15, 1.0 - 1e-15)
            c2v[:, edges.T] = 2.0 * np.arctanh(prod)
        return c2v

    def _var_pass(self, chan: np.ndarray, c2v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        total = chan.copy()
        for cols, edges in self.col_groups:
            total[:, cols] += c2v[:, edges].sum(axis=-1)
        v2c = total[:, self.edge_col] - c2v
        return v2c, total

    def _syndrome_ok(self, hard: np.ndarray) -> np.ndarray:
        ok = np.ones(hard.shape[0], dtype=bool)
        for cols in self.row_cols:
            ok &= (hard[:, cols].sum(axis=-1) % 2 == 0).all(axis=-1)
        return ok

    def decode(self, chan: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (hard bits, success mask, iterations used)."""
        chan = np.atleast_2d(chan)
        F = chan.shape[0]
        out = (chan < 0).astype(np.int64)
        success = self._syndrome_ok(out)
        used = np.zeros(F, dtype=np.int64)
        active = np.nonzero(~success)[0]
        v2c = chan[:, self.edge_col][active]
        ch = chan[active]
        for it in range(1, self.max_iter + 1):
            if not len(active):
                break
            c2v = self._check_pass(v2c)
            v2c, total = self._var_pass(ch, c2v)
            hard = (total < 0).astype(np.int64)
            ok = self._syndrome_ok(hard)
            out[active] = hard
            used[active] = it
            success[active[ok]] = True
            keep = ~ok
            active, v2c, ch = active[keep], v2c[keep], ch[keep]
        return out, success, used


class CumprodBinaryDecoder:
    """The package decoder's scalar path for all-binary codes, written
    with ``np.cumprod``: (frame, edge) LLR arrays in one layout, each
    variable class a (C, i) block of a frame's row, and per check class an
    (F, C, j) gather, prefix products by ``np.cumprod``, suffix products
    by ``np.cumprod`` of the reversed factors, and a scatter. The
    decoder's leave-one-out kernel multiplies in the same order, so the
    two agree bit for bit; ``decode`` returns what ``Decoder.decode``
    returns on the scalar path."""

    def __init__(self, code: HybridParityCheck, max_iter: int = 100):
        if set(np.unique(code.var_groups)) != {2}:
            raise ValueError("reference decoder handles binary codes only")
        col_classes, row_classes = code.node_classes
        slot = np.empty(code.n_edges, dtype=np.int64)
        self.var = []
        pos = 0
        for i, _q, cols, edges in col_classes:
            slot[edges.ravel()] = np.arange(pos, pos + edges.size)
            self.var.append((cols, pos, i))
            pos += edges.size
        self.chk = [(slot[edges], code.edge_col[edges]) for *_k, edges in row_classes]
        self.code = code
        self.max_iter = max_iter

    def _var_update(self, chan: np.ndarray, c2v: np.ndarray, v2c: np.ndarray) -> np.ndarray:
        F = len(c2v)
        post = chan.copy()
        for cols, start, i in self.var:
            stop = start + len(cols) * i
            inc = c2v[:, start:stop].reshape(F, len(cols), i)
            tot = post[:, cols] + inc.sum(axis=-1)
            post[:, cols] = tot
            np.subtract(tot[..., None], inc, out=v2c[:, start:stop].reshape(F, len(cols), i))
        np.clip(v2c, -MSG_CLIP, MSG_CLIP, out=v2c)
        return post

    def _check_update(self, v2c: np.ndarray, c2v: np.ndarray) -> None:
        t = np.tanh(0.5 * v2c)
        for idx, _cols in self.chk:
            tt = t[:, idx]  # (F, C, j)
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

    def decode(self, chan_llr: np.ndarray, want_posteriors: bool = False,
               early_stop: bool = True) -> DecodeResult:
        """Channel LLRs of shape (F, n, 2); posteriors report L(1) - L(0)
        in component 1."""
        chan = np.asarray(chan_llr, dtype=np.float64)
        F, n, E = chan.shape[0], self.code.n, self.code.n_edges
        ch = chan[:, :, 1] - chan[:, :, 0]
        c2v, v2c = np.zeros((F, E)), np.empty((F, E))
        symbols = np.zeros((F, n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, self.max_iter, dtype=np.int64)
        post_out = np.zeros((F, n, 2)) if want_posteriors else None
        active = np.arange(F)
        n_active, n_unsat = [], []
        for it in range(self.max_iter + 1):
            if it:
                self._check_update(v2c, c2v)
            post = self._var_update(ch, c2v, v2c)
            hard = post < 0
            unsat = sum(np.count_nonzero(np.bitwise_xor.reduce(hard[:, cols], axis=-1), axis=-1)
                        for _idx, cols in self.chk)
            ok = unsat == 0
            n_active.append(len(active))
            n_unsat.append(int(unsat.sum()))
            symbols[active] = hard
            if want_posteriors:
                post_out[active, :, 1] = post
            used[active[ok & ~success[active]]] = it
            success[active[ok]] = True
            if early_stop and it < self.max_iter:
                keep = ~ok
                active = active[keep]
                if not len(active):
                    break
                c2v, v2c, ch = c2v[keep], v2c[keep], ch[keep]
        return DecodeResult(symbols, success, used, np.array(n_active),
                            np.array(n_unsat), post_out)


# ---------------------------------------------------------------------------
# reference vector decoder (padded messages)


def reference_walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Walsh Hadamard transform along the last axis, stage by stage with a
    copy: the butterflies, log2(q) additions per output. The package's
    matmuls sum in another order, so they agree with it bit for bit on
    integer values and to the summation bound on others."""
    x = np.array(x, dtype=np.float64, copy=True)
    q = x.shape[-1]
    h = 1
    while h < q:
        y = x.reshape(x.shape[:-1] + (q // (2 * h), 2, h))
        a = y[..., 0, :].copy()
        b = y[..., 1, :]
        y[..., 0, :] = a + b
        y[..., 1, :] = a - b
        h *= 2
    return x


def reference_loo_convolve(probs: np.ndarray) -> np.ndarray:
    """Leave-one-out group convolution of (..., j, q) by transform with
    explicit prefix and suffix product arrays."""
    spec = reference_walsh_hadamard(probs)
    j = probs.shape[-2]
    pref = np.ones_like(spec)
    for d in range(1, j):
        pref[..., d, :] = pref[..., d - 1, :] * spec[..., d - 1, :]
    suff = np.ones_like(spec)
    for d in range(j - 2, -1, -1):
        suff[..., d, :] = suff[..., d + 1, :] * spec[..., d + 1, :]
    return reference_walsh_hadamard(pref * suff) / probs.shape[-1]


def reference_check_gathers(code: HybridParityCheck) -> list[np.ndarray]:
    """Per check class of ``code.node_classes``, the (ql, C, j) v2c
    column that ``codec.Decoder``'s check walk gathers for each component
    of each edge, by one ``np.nonzero`` over the class's (C, j, ql) mask
    of edge images, the formula the decoder was first built with. The
    v2c row holds the variable classes in turn, each a degree-major
    (i, C, q_k) block; components outside an edge's image read the zero
    slot past the row's messages."""
    col_classes, row_classes = code.node_classes
    first = np.empty(code.n_edges, dtype=np.int64)
    width = 0
    for _i, qk, _cols, edges in col_classes:
        first[edges] = width + qk * np.arange(edges.size).reshape(edges.T.shape).T
        width += qk * edges.size
    qv = code.var_groups[code.edge_col]
    comp = np.arange(code.map_tables.shape[1])
    out = []
    for _j, ql, _rows, edges in row_classes:
        gather = np.full((ql,) + edges.shape, width, dtype=np.intp)
        c, d, t = np.nonzero(comp[:ql] < qv[edges][..., None])
        gather[code.map_tables[edges[c, d], t], c, d] = first[edges[c, d]] + t
        out.append(gather)
    return out


class ReferenceVectorDecoder:
    """The sum-product decoder with every message padded to q_max.

    Messages are (F, edges, q_max) arrays: v2c probabilities extended onto
    each map image with zeros elsewhere, c2v LLRs padded with
    ``codec.PAD``. Extension and truncation go through broadcast
    ``put_along_axis``/``take_along_axis`` index arrays and masks. Its
    variable update adds LLRs, and its transforms are butterflies, where
    ``codec.Decoder``'s vector path multiplies probabilities and runs
    matmuls. The two compute the same messages, capped alike, so
    fixed-seed decodes agree in every decision and count, with
    posteriors within a stated bound.
    """

    def __init__(self, code: HybridParityCheck, max_iter: int = 100):
        self.code = code
        self.max_iter = max_iter
        self.q_max = q_max = int(max(code.var_groups.max(), code.check_groups.max()))
        E = code.n_edges
        self.tables = np.zeros((E, q_max), dtype=np.int64)
        for e in range(E):
            t = code.edge_maps[e].apply_table
            self.tables[e, : len(t)] = t
        cdeg, rdeg = code.col_degrees(), code.row_degrees()
        by_col = [np.flatnonzero(code.edge_col == c) for c in range(code.n)]
        by_row = [np.flatnonzero(code.edge_row == r) for r in range(code.m)]
        self.var_classes = []   # (order, cols (C,), edges (C, i), image (C, i, order))
        keys = sorted({(int(cdeg[c]), int(code.var_groups[c])) for c in range(code.n)})
        for i, qk in keys:
            cols = np.array([c for c in range(code.n)
                             if (cdeg[c], code.var_groups[c]) == (i, qk)], dtype=np.int64)
            edges = np.array([by_col[c] for c in cols], dtype=np.int64).reshape(len(cols), i)
            self.var_classes.append((qk, cols, edges, self.tables[edges][:, :, :qk]))
        self.check_classes = []  # (order, edges (C, j), var orders (C, j), mask)
        keys = sorted({(int(rdeg[r]), int(code.check_groups[r])) for r in range(code.m)})
        for j, ql in keys:
            edges = np.array([by_row[r] for r in range(code.m)
                              if (rdeg[r], code.check_groups[r]) == (j, ql)], dtype=np.int64)
            vord = code.var_groups[code.edge_col[edges]]
            mask = np.arange(q_max)[None, None, :] < vord[..., None]
            self.check_classes.append((ql, edges, vord, mask))

    def _var_update(self, m_cv: np.ndarray, chan: np.ndarray, m_vc: np.ndarray) -> None:
        F = m_cv.shape[0]
        for qk, cols, edges, img in self.var_classes:
            inc = m_cv[:, edges, :qk]
            ch = chan[:, cols, :qk]
            total = ch[:, :, None, :] + inc.sum(axis=2, keepdims=True)
            out = total - inc
            out -= out.min(axis=-1, keepdims=True)
            np.clip(out, None, MSG_CLIP, out=out)
            np.exp(-out, out=out)
            out /= out.sum(axis=-1, keepdims=True)
            C, i = edges.shape
            ext = np.zeros((F, C, i, self.q_max))
            np.put_along_axis(ext, np.broadcast_to(img[None], (F, C, i, qk)), out, axis=-1)
            m_vc[:, edges.reshape(-1), :] = ext.reshape(F, C * i, self.q_max)

    def _check_update(self, m_vc: np.ndarray, m_cv: np.ndarray) -> None:
        F = m_vc.shape[0]
        for ql, edges, vord, mask in self.check_classes:
            conv = reference_loo_convolve(m_vc[:, edges, :ql])
            np.clip(conv, 0.0, None, out=conv)
            full = np.zeros((F,) + edges.shape + (self.q_max,))
            full[..., :ql] = conv
            idx = np.broadcast_to(self.tables[edges][None], full.shape)
            trunc = np.where(mask[None], np.take_along_axis(full, idx, axis=-1), 0.0)
            tsum = trunc.sum(axis=-1, keepdims=True)
            flat = tsum[..., 0] <= PROB_FLOOR
            if np.any(flat):
                unif = mask.astype(np.float64) / vord[..., None]
                trunc = np.where(flat[..., None], np.broadcast_to(unif[None], trunc.shape), trunc)
                tsum = trunc.sum(axis=-1, keepdims=True)
            trunc /= tsum
            np.clip(trunc, PROB_FLOOR, None, out=trunc)
            logp = np.log(trunc)
            ref = np.max(np.where(mask[None], logp, -np.inf), axis=-1, keepdims=True)
            llr = np.clip(ref - logp, None, MSG_CLIP)
            m_cv[:, edges.reshape(-1), :] = np.where(mask[None], llr, PAD).reshape(F, -1, self.q_max)

    def _posteriors(self, m_cv: np.ndarray, chan: np.ndarray) -> np.ndarray:
        post = np.array(chan, copy=True)
        for qk, cols, edges, _img in self.var_classes:
            post[:, cols, :qk] += m_cv[:, edges, :qk].sum(axis=2)
        return post

    def _unsatisfied(self, symbols: np.ndarray) -> np.ndarray:
        """Unsatisfied checks of each frame."""
        F = symbols.shape[0]
        count = np.zeros(F, dtype=np.int64)
        for _ql, edges, _vord, _mask in self.check_classes:
            syms = symbols[:, self.code.edge_col[edges]]
            tables = self.tables[edges]
            mapped = np.take_along_axis(
                np.broadcast_to(tables[None], (F,) + tables.shape), syms[..., None], axis=-1)[..., 0]
            count += (np.bitwise_xor.reduce(mapped, axis=-1) != 0).sum(axis=-1)
        return count

    def _hard(self, post: np.ndarray) -> np.ndarray:
        return np.argmin(np.where(np.isfinite(post), post, PAD), axis=-1)

    def decode(self, chan: np.ndarray, max_iter: int | None = None,
               want_posteriors: bool = False, early_stop: bool = True) -> DecodeResult:
        chan = np.asarray(chan, dtype=np.float64)
        if chan.ndim == 2:
            chan = chan[None]
        iters = self.max_iter if max_iter is None else max_iter
        F, n, E = chan.shape[0], self.code.n, self.code.n_edges
        symbols = np.zeros((F, n), dtype=np.int64)
        success = np.zeros(F, dtype=bool)
        used = np.full(F, iters, dtype=np.int64)
        post_out = np.zeros((F, n, self.q_max)) if want_posteriors else None

        active = np.arange(F)
        chan_a = chan
        m_cv = np.zeros((F, E, self.q_max))
        m_vc = np.zeros((F, E, self.q_max))
        self._var_update(m_cv, chan_a, m_vc)
        post = self._posteriors(m_cv, chan_a)
        hard = self._hard(post)
        unsat = self._unsatisfied(hard)
        ok = unsat == 0
        n_active, n_unsat = [F], [int(unsat.sum())]
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
            hard = self._hard(post)
            unsat = self._unsatisfied(hard)
            ok = unsat == 0
            n_active.append(len(active))
            n_unsat.append(int(unsat.sum()))
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
        return DecodeResult(symbols, success, used, np.array(n_active), np.array(n_unsat),
                            post_out)


# ---------------------------------------------------------------------------
# binary mutual information by quadrature

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(96)


def binary_j_quadrature(m: float) -> float:
    """MI of a symmetric binary Gaussian LLR, by Gauss-Hermite quadrature."""
    if m <= 0:
        return 0.0
    v = m + 2.0 * math.sqrt(m) * _GH_NODES
    vals = np.logaddexp(0.0, -v) / math.log(2.0)
    return float(1.0 - (vals * _GH_WEIGHTS).sum() / math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# quantized binary density evolution

_PAIR_RULE_CACHE: dict[tuple, np.ndarray] = {}


def _pair_rule_table(grid: np.ndarray) -> np.ndarray:
    """Bin index of the check combination of every grid value pair."""
    key = (len(grid), float(grid[0]), float(grid[-1]))
    if key in _PAIR_RULE_CACHE:
        return _PAIR_RULE_CACHE[key]
    x = grid[:, None]
    y = grid[None, :]
    sign = np.sign(x) * np.sign(y)
    ax, ay = np.abs(x), np.abs(y)
    mag = (np.minimum(ax, ay)
           + np.log1p(np.exp(-(ax + ay)))
           - np.log1p(np.exp(-np.abs(ax - ay))))
    val = sign * mag
    step = grid[1] - grid[0]
    idx = np.clip(np.rint((val - grid[0]) / step), 0, len(grid) - 1)
    table = idx.astype(np.int32)
    _PAIR_RULE_CACHE[key] = table
    return table


class QuantizedBinaryDE:
    """Histogram density evolution for binary ensembles.

    Check combination uses the exact pairwise rule on a quantized LLR
    grid; variable combination is an FFT convolution with mass beyond
    the grid saturated into the edge bins.
    """

    def __init__(self, lambda_: dict[int, float], rho: dict[int, float],
                 l_max: float = 30.0, bins: int = 1025):
        if bins % 2 == 0:
            # an odd count aligns the convolution window on whole bins
            # and puts one bin exactly at zero
            raise ValueError("bins must be odd")
        self.lambda_ = dict(lambda_)
        self.rho = dict(rho)
        self.grid = np.linspace(-l_max, l_max, bins)
        self.step = self.grid[1] - self.grid[0]
        self.table = _pair_rule_table(self.grid)

    def _channel_density(self, sigma: float) -> np.ndarray:
        from scipy.stats import norm

        m = 2.0 / sigma**2
        edges = np.concatenate((
            [-np.inf], self.grid[:-1] + self.step / 2.0, [np.inf]))
        cdf = norm.cdf(edges, loc=m, scale=math.sqrt(2.0 * m))
        return np.diff(cdf)

    def _check_combine(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        w = np.outer(p, q).ravel()
        return np.bincount(self.table.ravel(), weights=w,
                           minlength=len(self.grid))

    def _check_update(self, p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        acc = p
        max_j = max(self.rho)
        for j in range(2, max_j + 1):
            # acc is the combination of j - 1 densities
            rj = self.rho.get(j, 0.0)
            if rj:
                out += rj * acc
            if j < max_j:
                acc = self._check_combine(acc, p)
        # roundoff deficits compound tenfold per iteration through the
        # degree products; keep the density normalized
        return out / out.sum()

    def _var_convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        full = np.convolve(a, b)
        bins = len(self.grid)
        half = (len(full) - bins) // 2
        mid = full[half: half + bins].copy()
        mid[0] += full[: half].sum()
        mid[-1] += full[half + bins:].sum()
        return mid

    def _var_update(self, chan: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(chan)
        acc = chan
        max_i = max(self.lambda_)
        for i in range(1, max_i + 1):
            # acc is the channel convolved with i - 1 check densities
            li = self.lambda_.get(i, 0.0)
            if li:
                out += li * acc
            if i < max_i:
                acc = self._var_convolve(acc, c2v)
        return out / out.sum()

    def error_probability(self, p: np.ndarray) -> float:
        neg = p[self.grid < 0].sum()
        zero = p[np.isclose(self.grid, 0.0)].sum()
        return float(neg + 0.5 * zero)

    def converges(self, sigma: float, target: float = 1e-6,
                  max_iter: int = 2000) -> bool:
        chan = self._channel_density(sigma)
        v2c = chan.copy()
        prev = 1.0
        for _ in range(max_iter):
            c2v = self._check_update(v2c)
            v2c = self._var_update(chan, c2v)
            pe = self.error_probability(v2c)
            if pe < target:
                return True
            if pe >= prev - 1e-12:
                return False
            prev = pe
        return False

    def threshold_sigma(self, lo: float, hi: float, tol: float = 1e-4) -> float:
        """Largest converging sigma in [lo, hi] by bisection."""
        if not self.converges(lo):
            raise ValueError(f"does not converge even at sigma={lo}")
        if self.converges(hi):
            return hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.converges(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Gaussian-message Monte-Carlo of one hybrid iteration


def sample_channel_ldr(rng: np.random.Generator, order: int, m_bc: float,
                       n: int) -> np.ndarray:
    """Exact channel LDR vectors of the all-zero symbol, shape (n, q-1)."""
    p = bits_per_symbol(order)
    bit_llrs = rng.normal(m_bc, math.sqrt(2.0 * m_bc), size=(n, p))
    a = np.arange(1, order)
    sel = ((a[:, None] >> np.arange(p)[None, :]) & 1).astype(np.float64)
    return bit_llrs @ sel.T


def ldr_mi(v: np.ndarray, order: int) -> float:
    """Empirical MI of LDR samples (n, q-1) under the all-zero symbol."""
    z = np.concatenate([np.zeros((len(v), 1)), -v], axis=1)
    mx = z.max(axis=1)
    lse = mx + np.log(np.exp(z - mx[:, None]).sum(axis=1))
    return float(1.0 - lse.mean() / math.log(order))


def extend_probs(probs: np.ndarray, smap: SymbolMap, q_out: int) -> np.ndarray:
    """Scatter probability vectors (n, q_in) onto the map image."""
    n = probs.shape[0]
    out = np.zeros((n, q_out))
    img = smap.apply_table
    out[:, img] = probs
    return out


def truncate_probs(probs: np.ndarray, smap: SymbolMap) -> np.ndarray:
    """Gather the image components of (n, q_out) and renormalize."""
    img = smap.apply_table
    sel = probs[:, img]
    s = sel.sum(axis=1, keepdims=True)
    s[s <= 0] = 1.0
    return sel / s


def ldr_to_probs(neg: np.ndarray) -> np.ndarray:
    """(n, q-1) LDR vectors to (n, q) probability vectors."""
    n, qm1 = neg.shape
    z = np.concatenate([np.zeros((n, 1)), -neg], axis=1)
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=1, keepdims=True)


def probs_to_ldr(p: np.ndarray) -> np.ndarray:
    tiny = 1e-300
    return np.log(np.clip(p[:, :1], tiny, None)) - np.log(np.clip(p[:, 1:], tiny, None))


# ---------------------------------------------------------------------------
# general-mean symmetric Gaussian messages


class InadmissibleMeanError(ValueError):
    pass


def covariance_from_mean(mean: np.ndarray, order: int) -> np.ndarray:
    """Covariance implied by symmetry: Sigma_ab = m_a + m_b - m_xor(a,b)."""
    q = validate_order(order)
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (q - 1,):
        raise ValueError(f"mean must have {q - 1} components")
    mfull = np.concatenate([[0.0], mean])
    a = np.arange(1, q)
    cov = mfull[a][:, None] + mfull[a][None, :] - mfull[a[:, None] ^ a[None, :]]
    w = np.linalg.eigvalsh(cov)
    if w.min() < -1e-9:
        raise InadmissibleMeanError(
            f"mean vector implies a non PSD covariance (min eigenvalue {w.min():.3e})"
        )
    return cov


def _ldr_mi_from_samples(neg_v: np.ndarray, order: int) -> np.ndarray:
    """Per-sample 1 - log_q(1 + sum_a exp(-v_a)) from -v of shape (n, q-1)."""
    mx = neg_v.max(axis=1)
    lse = mx + np.log(np.exp(neg_v - mx[:, None]).sum(axis=1))
    log1p_term = np.logaddexp(0.0, lse)
    return 1.0 - log1p_term / math.log(order)


def mutual_info_mc(mean: np.ndarray, order: int, n_samples: int = 100_000,
                   seed: int = 0) -> tuple[float, float]:
    """MI of a symmetric Gaussian LDR vector with the given mean vector,
    sampled through the full covariance. Returns the Monte Carlo estimate
    and its standard error.
    """
    q = validate_order(order)
    cov = covariance_from_mean(mean, order)
    w, vecs = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    root = vecs * np.sqrt(w)
    rng = np.random.default_rng(seed)
    vals = np.empty(n_samples)
    done = 0
    mean = np.asarray(mean, dtype=np.float64)
    while done < n_samples:
        c = min(50_000, n_samples - done)
        z = rng.normal(size=(c, q - 1))
        v = mean + z @ root.T
        vals[done: done + c] = _ldr_mi_from_samples(-v, q)
        done += c
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def exit_iteration_gfq(x: float, lambda_: dict[int, float], rho: dict[int, float],
                       m_bc: float, order: int) -> float:
    """One density evolution step of a single-group ensemble, written
    directly from the scalar recursion."""
    a = jc_inv(1.0 - x, order)
    s = sum(rj * jc((j - 1) * a, order) for j, rj in sorted(rho.items()))
    b = jc_inv(1.0 - s, order)
    out = 0.0
    for i, li in sorted(lambda_.items()):
        out += li * jv_channel_offset(order, m_bc, (i - 1) * b)
    return out


# ---------------------------------------------------------------------------
# plain walks of the density-evolution kernels, for bit-identity checks


def reference_jc_grid_i(order: int, n_samples: int = _TABLE_SAMPLES,
                        seed: int = _TABLE_SEED,
                        points: int = _TABLE_POINTS) -> np.ndarray:
    """``JTable.build(order, ...).grid_i`` computed the direct way: the
    same draws, each whole chunk through one numpy expression per grid
    point (the log-sum-exp of the z part first, then the common terms
    subtracted), and the same post-processing. Equal to the blocked build
    up to rounding, not bit for bit, since the sums are grouped
    differently."""
    q = validate_order(order)
    grid = _grid(_M_MAX, points)
    rng = np.random.default_rng(np.random.SeedSequence([seed, q]))
    acc = np.zeros(len(grid))
    done = 0
    while done < n_samples:
        c = min(20_000, n_samples - done)
        z = rng.normal(size=(c, q - 1))
        z0 = rng.normal(size=c)
        for gi, m in enumerate(grid):
            if m == 0.0:
                continue
            rt = math.sqrt(m)
            neg = -rt * z
            mx = neg.max(axis=1)
            lse = mx + np.log(np.exp(neg - mx[:, None]).sum(axis=1))
            lse = lse - m - rt * z0
            acc[gi] += np.logaddexp(0.0, lse).sum()
        done += c
    vals = 1.0 - acc / n_samples / math.log(q)
    vals[0] = 0.0
    vals = _pav_increasing(vals)
    vals[0] = 0.0
    return vals


def reference_jv_grid_i(order: int, m_bc: float, points: int = _JV_POINTS,
                        n_samples: int = _JV_SAMPLES, seed: int = _TABLE_SEED,
                        c_max: float = _M_MAX) -> np.ndarray:
    """``JvFamily(order, m_bc, ...).grid_i`` computed the direct way: the
    same draws, each whole chunk through one numpy expression per grid
    point, and the same post-processing."""
    q = validate_order(order)
    p = bits_per_symbol(q)
    rng = np.random.default_rng(np.random.SeedSequence([seed, q, 7, int(m_bc * 1e9) & 0x7FFFFFFF]))
    grid = _grid(c_max, points)
    acc = np.zeros(len(grid))
    done = 0
    chunk = max(1, min(n_samples, 8_000_000 // q))
    while done < n_samples:
        csz = min(chunk, n_samples - done)
        bit = rng.normal(float(m_bc), math.sqrt(2.0 * m_bc), size=(csz, p))
        masks = ((np.arange(1, q)[:, None] >> np.arange(p)[None, :]) & 1)
        w_ch = bit @ masks.T.astype(np.float64)
        z = rng.normal(size=(csz, q - 1))
        z0 = rng.normal(size=csz)
        for gi, c in enumerate(grid):
            rt = math.sqrt(c)
            neg = -(w_ch + c + rt * z + rt * z0[:, None])
            mx = neg.max(axis=1)
            lse = mx + np.log(np.exp(neg - mx[:, None]).sum(axis=1))
            acc[gi] += np.logaddexp(0.0, lse).sum()
        done += csz
    vals = _pav_increasing(1.0 - acc / n_samples / math.log(q))
    grid_i = np.clip(vals, 0.0, 1.0)
    for k in range(1, len(grid_i)):
        if grid_i[k] <= grid_i[k - 1]:
            grid_i[k] = min(1.0, grid_i[k - 1] + 1e-15)
    return grid_i


def reference_mi_grid(q: int, grid: np.ndarray, n_samples: int,
                      rng: np.random.Generator, chunk: int,
                      m_bc: float | None = None,
                      block_elems: int = 32_768) -> np.ndarray:
    """The density-evolution kernel as it stood before it streamed, frozen:
    ``density_evolution._mi_grid`` must equal it bit for bit.

    Each chunk holds a (grid, chunk) array of per-sample log-sum-exps,
    built from the same draws in the same order (bit LLRs, then z one
    block of about ``block_elems`` components at a time, then z0), and
    each grid row is summed whole by numpy after an in-place softplus.
    """
    acc = np.zeros(len(grid))
    done = 0
    while done < n_samples:
        csz = min(chunk, n_samples - done)
        lse = _reference_lse(q, grid, csz, rng, m_bc, block_elems)
        t = np.empty(csz)
        for gi in range(len(grid)):
            row = lse[gi]
            np.abs(row, out=t)
            np.negative(t, out=t)
            np.exp(t, out=t)
            np.log1p(t, out=t)
            np.maximum(row, 0.0, out=row)
            row += t
            acc[gi] += row.sum()
        done += csz
    return 1.0 - acc / n_samples / math.log(q)


def _reference_lse(q: int, grid: np.ndarray, rows: int, rng: np.random.Generator,
                   m_bc: float | None, block_elems: int) -> np.ndarray:
    """Per-sample log sum_a exp(-(w_a + c + rt (z_a + z0))), one row per
    offset c of the grid, with c, rt (z0 + z*) and w* = min_a w_a taken
    out of the sum (the factoring `_mi_grid`'s docstring derives)."""
    k = q - 1
    step = max(1, block_elems // k)
    rts = [math.sqrt(c) for c in grid.tolist()]
    out = np.empty((len(grid), rows))
    w_min = np.zeros(rows)
    z_min = np.empty(rows)
    if m_bc is not None:
        p = bits_per_symbol(q)
        bit = rng.normal(m_bc, math.sqrt(2.0 * m_bc), size=(rows, p))
        masks = ((np.arange(1, q)[:, None] >> np.arange(p)[None, :]) & 1).astype(np.float64)
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        z = np.ascontiguousarray(rng.normal(size=(r1 - r0, k)).T)
        np.min(z, axis=0, out=z_min[r0:r1])
        z -= z_min[r0:r1]
        if m_bc is None:
            w = np.ones_like(z)
        else:
            w = masks @ bit[r0:r1].T
            np.min(w, axis=0, out=w_min[r0:r1])
            np.subtract(w_min[r0:r1], w, out=w)
            np.exp(w, out=w)
        t = np.empty_like(z)
        for gi, rt in enumerate(rts):
            np.multiply(z, -rt, out=t)
            np.exp(t, out=t)
            np.einsum("ij,ij->j", t, w, out=out[gi, r0:r1])
    np.log(out, out=out)
    z_min += rng.normal(size=rows)
    t = np.empty(rows)
    for gi, (c, rt) in enumerate(zip(grid.tolist(), rts)):
        row = out[gi]
        row -= w_min
        row -= c
        np.multiply(z_min, rt, out=t)
        row -= t
    return out


class ReferenceJTable:
    """J_c lookups of one table through scipy calls on its own pchip
    interpolator. Each method returns the value and the number of clamps
    the package's lookup should count for it."""

    def __init__(self, table: JTable):
        self.m_max = float(table.grid_m[-1])
        self.i_max = float(table.grid_i[-1])
        self.interp = PchipInterpolator(table.grid_m, table.grid_i, extrapolate=False)

    def jc(self, m: float) -> tuple[float, int]:
        hits = int(m > self.m_max) + int(m < 0.0)
        return float(self.interp(np.clip(m, 0.0, self.m_max))), hits

    def jc_inv(self, targets: np.ndarray) -> tuple[np.ndarray, int]:
        """The 80-step bisection of J_c, run on all targets at once; every
        step is one scipy call. Targets at or below 0 give 0, and targets
        at or above the table's top give the top mean with one clamp."""
        t = np.asarray(targets, dtype=np.float64)
        lo = np.zeros_like(t)
        hi = np.full_like(t, self.m_max)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.interp(mid) < t
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        top = (t > 0.0) & (t >= self.i_max)
        out[top] = self.m_max
        out[t <= 0.0] = 0.0
        return out, int(np.count_nonzero(top))


# ---------------------------------------------------------------------------
# structure and syndrome of built codes, edge by edge


def diagonal_edge_index(code: HybridParityCheck, row: int) -> int:
    """The edge joining ``row`` to its redundancy column, from a scan of
    every edge; fails unless there is exactly one."""
    hits = np.flatnonzero((code.edge_row == row) & (code.edge_col == code.n_info + row))
    assert len(hits) == 1, f"row {row} lacks a unique diagonal edge"
    return int(hits[0])


def reference_syndrome(code: HybridParityCheck, symbols: np.ndarray) -> np.ndarray:
    """Group sum of the mapped neighbours of each check row, one edge at a
    time through each map's own table."""
    symbols = np.atleast_2d(np.asarray(symbols, dtype=np.int64))
    out = np.zeros((symbols.shape[0], code.m), dtype=np.int64)
    for e in range(code.n_edges):
        r, c = int(code.edge_row[e]), int(code.edge_col[e])
        out[:, r] ^= code.edge_maps[e].apply_table[symbols[:, c]]
    return out


def reference_channel_llrs(code: HybridParityCheck, y: np.ndarray,
                           params: ChannelParams) -> np.ndarray:
    """``codec.channel_llrs`` one column at a time: one
    ``symbol_llr_array`` call on each column's own bits."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    q_max = int(max(code.var_groups.max(), code.check_groups.max()))
    bllr = bit_llr(y, params)
    out = np.full((y.shape[0], code.n, q_max), PAD, dtype=np.float64)
    pos = 0
    for c, q in enumerate(code.var_groups.tolist()):
        p = bits_per_symbol(q)
        out[:, c, :q] = symbol_llr_array(bllr[:, pos: pos + p], q)
        pos += p
    return out


# ---------------------------------------------------------------------------
# statistics and bit packing of built codes


def _edge_class_mass(degrees: np.ndarray, groups: np.ndarray,
                     n_edges: int) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for d, q in zip(degrees.tolist(), groups.tolist()):
        out[(d, q)] = out.get((d, q), 0.0) + d
    return {k: v / n_edges for k, v in sorted(out.items())}


def empirical_pi_var(code: HybridParityCheck) -> dict[tuple[int, int], float]:
    """Edge mass per (column degree, column group) of a built code."""
    return _edge_class_mass(code.col_degrees(), code.var_groups, code.n_edges)


def empirical_pi_check(code: HybridParityCheck) -> dict[tuple[int, int], float]:
    """Edge mass per (row degree, row group) of a built code."""
    return _edge_class_mass(code.row_degrees(), code.check_groups, code.n_edges)


def bits_to_symbols(code: HybridParityCheck, bits: np.ndarray,
                    cols: slice | None = None) -> np.ndarray:
    """Pack per-column bits (LSB first within a column) into symbols.

    ``bits`` has shape (..., total bits of the selected columns); columns
    default to the information block.
    """
    sel = code.var_groups[: code.n_info] if cols is None else code.var_groups[cols]
    bits = np.asarray(bits)
    out = np.zeros(bits.shape[:-1] + (len(sel),), dtype=np.int64)
    pos = 0
    for c, q in enumerate(sel):
        p = bits_per_symbol(int(q))
        chunk = bits[..., pos: pos + p].astype(np.int64)
        out[..., c] = (chunk << np.arange(p)).sum(axis=-1)
        pos += p
    if pos != bits.shape[-1]:
        raise ValueError(f"expected {pos} bits, got {bits.shape[-1]}")
    return out
