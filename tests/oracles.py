"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms from
the package internals: direct convolutions instead of transforms,
codeword enumeration instead of message passing, the scalar tanh rule
instead of vector messages, and histogram densities instead of Gaussian
functionals.
"""

from __future__ import annotations

import math

import numpy as np

from hybridldpc.construction import HybridParityCheck
from hybridldpc.density_evolution import jc, jc_inv, jv_channel_offset
from hybridldpc.groups import (
    SymbolMap,
    bits_per_symbol,
    identity_map,
    random_injective_map,
    validate_order,
)


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
        seed=None,
    )
    code.validate()
    return code


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


class ReferenceBinaryBP:
    """Flooding sum-product decoder for an all-binary code.

    Scalar LLR messages and the explicit tanh product rule: no shared
    machinery with the vector decoder beyond the graph itself.
    """

    def __init__(self, code: HybridParityCheck, max_iter: int = 100):
        if set(np.unique(code.var_groups)) != {2}:
            raise ValueError("reference decoder handles binary codes only")
        self.code = code
        self.max_iter = max_iter
        self.row_edges = [
            np.nonzero(code.edge_row == r)[0] for r in range(code.m)
        ]
        self.col_edges = [
            np.nonzero(code.edge_col == c)[0] for c in range(code.n)
        ]
        self.edge_col = code.edge_col

    def _check_pass(self, v2c: np.ndarray) -> np.ndarray:
        c2v = np.empty_like(v2c)
        t = np.tanh(np.clip(v2c, -30.0, 30.0) / 2.0)
        for edges in self.row_edges:
            sub = t[:, edges]
            j = len(edges)
            pref = np.ones_like(sub)
            for d in range(1, j):
                pref[:, d] = pref[:, d - 1] * sub[:, d - 1]
            suff = np.ones_like(sub)
            for d in range(j - 2, -1, -1):
                suff[:, d] = suff[:, d + 1] * sub[:, d + 1]
            prod = np.clip(pref * suff, -1.0 + 1e-15, 1.0 - 1e-15)
            c2v[:, edges] = 2.0 * np.arctanh(prod)
        return c2v

    def _var_pass(self, chan: np.ndarray, c2v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        total = chan.copy()
        for c, edges in enumerate(self.col_edges):
            total[:, c] += c2v[:, edges].sum(axis=1)
        v2c = total[:, self.edge_col] - c2v
        return v2c, total

    def _syndrome_ok(self, hard: np.ndarray) -> np.ndarray:
        ok = np.ones(hard.shape[0], dtype=bool)
        for r, edges in enumerate(self.row_edges):
            cols = self.edge_col[edges]
            ok &= hard[:, cols].sum(axis=1) % 2 == 0
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
