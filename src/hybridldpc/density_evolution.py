"""Density evolution under the Gaussian approximation.

Messages are modeled as symmetric Gaussian LDR vectors: a mean vector m
(component 0 fixed at zero) determines the covariance entrywise through
Sigma_ab = m_a + m_b - m_xor(a,b). Two mutual information functionals
drive the analysis. mutual_info_check, called J_c here and below, is the
MI of an equal-mean vector and depends on one scalar; it is tabulated per
group order and inverted by bisection. mutual_info_var (J_v) is the MI of
a channel-plus-offset mean vector m_ch + c * 1, tabulated per (order,
channel mean) as a one dimensional family in the offset c and memoized
for one channel at a time (`_family`). Both clamp their argument into
the grid with one lookup, `_clamped_eval`.

One Monte Carlo kernel estimates both: a J_c table is the J_v family
without a channel part. `_mi_grid` samples the message as w_ch + c +
sqrt(c) (z_a + z_0) with one fixed sample block for every grid offset.
The terms c and sqrt(c) z_0 are common to every component, so it takes
them and the per-sample minima of w_ch and z out of the log-sum-exp,
which leaves one multiply, one exp and one dot product per component and
offset, with every factor at most 1 and the sum at least about e^-90
(the bound is in its docstring). The factored sum agrees with the plain
walk up to rounding (2.2e-16 measured), not bit for bit.

The kernel streams. z_0 enters every value, so each sample chunk draws
its z twice: once to reach z0, then again from the saved generator state
as the walk consumes it. The walk cuts the chunk into consecutive nodes
of at most _LEAF_SAMPLES = 2048 samples and takes them one at a time: z
one cache-sized block at a time across the whole grid, then the
log-sum-exp, the common terms and the softplus on the (grid, node)
block while it is in cache, and each node's sums are added to the
running total in order. So every table and family equals the
whole-chunk walk it replaced within rounding, not bit for bit (3.3e-16
measured on J_v families, 1.2e-15 on J_c tables), while it holds two
(grid, node) blocks next to the chunk's bit LLRs and z_0 instead of a
(grid, chunk) array. Traced peaks: a J_v family 5.7 MB at q = 8 and
7.1 MB at q = 256 (33.6 and 32.7 MB whole-chunk), a 512-point table
18 MB (165 MB whole-chunk, which kept one chunk's array alive while it
built the next). The second draw of z costs about 0.15 s per q = 256
family. Tables and families keep their own seeds, chunking and
post-processing.

J_c lookups and the bisection that inverts J_c evaluate the pchip
segment with `_pchip_scalar`, in scipy's arithmetic but without its
per-call overhead; once the bisection's bracket lies inside one segment,
it evaluates that segment's cubic without looking it up again. scipy is
imported by the first table or family that is built, so encoding,
decoding and construction never load it. The plain walks, and the
whole-chunk kernel, live on in the tests as the references these
kernels must match.

One step of the EXIT recursion, `exit_iteration_hybrid`, applies the dual
equal-mean update in each check group and adds the channel to the
weighted check-side offset at each variable; the LP design rows of
`optimization` are one such step, and `initial_state` its variable half
without check information. Check outputs are truncated into each
variable group, variable outputs extended into each check group.
Truncation maps MI through J_c of the smaller group at the same scalar
mean (the image subvector of an equal-mean Gaussian stays equal-mean);
extension rescales the information content by the bit-width ratio. Both
are exact identities when the groups coincide. `threshold_search` and
`optimization.best_sigma` share one bisection, `bisect_edge`.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from hybridldpc.channel import ChannelParams
from hybridldpc.ensembles import Ensemble
from hybridldpc.groups import MAX_ORDER, bits_per_symbol, validate_order

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

__all__ = [
    "JTable",
    "jc",
    "jc_inv",
    "JvFamily",
    "mi_extend",
    "mi_truncate",
    "exit_iteration_hybrid",
    "initial_state",
    "aggregate_mi",
    "de_trajectory",
    "de_converges",
    "bisect_edge",
    "threshold_search",
    "clamp_stats",
    "DEFAULT_TARGET",
    "DEFAULT_MAX_ITER",
]

DEFAULT_TARGET = 1.0 - 1e-4
DEFAULT_MAX_ITER = 2000
_TABLE_SEED = 20260815
_TABLE_POINTS = 512
_TABLE_SAMPLES = 200_000
_TABLE_CHUNK = 20_000
_M_MAX = 60.0
_LO_DB = -6.0           # threshold_search bracket, Eb/N0 in dB
_HI_DB = 10.0
_JV_POINTS = 96
_JV_SAMPLES = 40_000
_BLOCK_ELEMS = 32_768
_LEAF_SAMPLES = 2048


class ClampStats:
    """Counts how often table lookups were clamped to the grid edge."""

    def __init__(self) -> None:
        self.count = 0

    def hit(self) -> None:
        self.count += 1


clamp_stats = ClampStats()


def _clamped_eval(ev: Callable[[float], float], x: float, x_max: float) -> float:
    """``ev(x)`` with x clamped into [0, x_max], each clamp counted."""
    if x > x_max:
        clamp_stats.hit()
        x = x_max
    elif x < 0.0:
        clamp_stats.hit()
        x = 0.0
    return ev(x)


class DivergingEnsembleError(RuntimeError):
    pass


# ---------------- J_c tables ----------------


def _grid(m_max: float, points: int) -> np.ndarray:
    return np.concatenate([[0.0], np.logspace(-3, math.log10(m_max), points - 1)])


def _pav_increasing(y: np.ndarray) -> np.ndarray:
    # pool adjacent violators, then break flats with a tiny slope
    vals: list[float] = []
    wts: list[int] = []
    for v in np.asarray(y, dtype=np.float64).tolist():
        vals.append(v)
        wts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, w2 = vals.pop(), wts.pop()
            v1, w1 = vals.pop(), wts.pop()
            vals.append((v1 * w1 + v2 * w2) / (w1 + w2))
            wts.append(w1 + w2)
    res = np.repeat(vals, wts)
    for k in range(1, len(res)):
        if res[k] <= res[k - 1]:
            res[k] = res[k - 1] + 1e-12
    return res


def _pchip_scalar(interp: PchipInterpolator):
    """Evaluator of one point that returns ``float(interp(x))`` bit for bit,
    and the bisection that inverts it.

    A scipy call costs microseconds of overhead per scalar, which the J_c
    bisection pays 80 times per inversion. This reads the interpolator's
    piecewise-cubic form (breakpoints ``x``, coefficients ``c`` with the
    highest degree first), finds the interval as scipy does (closed on the
    right at the last breakpoint) and sums the segment in scipy's order:
    ``res = res + c[3-k] * s**k`` with the powers built by repeated
    multiplication. Points outside the breakpoints give NaN, as with
    ``extrapolate=False``.

    ``bisect(target)`` halves [x_0, x_last] 80 times, moving the low end
    to each midpoint whose value is below ``target``, and returns the last
    midpoint (or the first one that no later step can move). Once the
    bracket lies inside one segment, every later midpoint does too, so it
    evaluates that segment's cubic without looking the interval up.
    """
    xs = interp.x.tolist()
    c0, c1, c2, c3 = (row.tolist() for row in interp.c)
    x_lo, x_hi, n = xs[0], xs[-1], len(xs)

    def ev(x: float) -> float:
        if not x_lo <= x <= x_hi:
            return math.nan
        i = bisect_right(xs, x, 1, n - 1) - 1
        s = x - xs[i]
        s2 = s * s
        return (0.0 + c3[i]) + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    def bisect(target: float) -> float:
        lo, hi = x_lo, x_hi
        steps = 80
        while steps:
            steps -= 1
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # no later step moves the bracket: this is what all 80 return
                return mid
            i = bisect_right(xs, mid, 1, n - 1) - 1
            s = mid - xs[i]
            s2 = s * s
            if (0.0 + c3[i]) + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s) < target:
                lo = mid
            else:
                hi = mid
            if xs[i] <= lo and hi <= xs[i + 1]:
                break
        x_i, a0, a1, a2, a3 = xs[i], 0.0 + c3[i], c2[i], c1[i], c0[i]
        while steps:
            steps -= 1
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            s = mid - x_i
            s2 = s * s
            if a0 + a1 * s + a2 * s2 + a3 * (s2 * s) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return ev, bisect


@dataclass
class JTable:
    """Tabulated equal-mean MI functional for one group order."""

    order: int
    grid_m: np.ndarray
    grid_i: np.ndarray
    n_samples: int
    seed: int
    _eval1: Callable[[float], float] = field(init=False, repr=False)
    _inverse1: Callable[[float], float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.grid_m = np.asarray(self.grid_m, dtype=np.float64)
        self.grid_i = np.asarray(self.grid_i, dtype=np.float64)
        if np.any(np.diff(self.grid_i) <= 0):
            raise ValueError("table MI values must be strictly increasing")
        from scipy.interpolate import PchipInterpolator

        self._eval1, self._inverse1 = _pchip_scalar(
            PchipInterpolator(self.grid_m, self.grid_i, extrapolate=False))

    @property
    def i_max(self) -> float:
        return float(self.grid_i[-1])

    @property
    def m_max(self) -> float:
        return float(self.grid_m[-1])

    def eval(self, m: float) -> float:
        return _clamped_eval(self._eval1, float(m), self.m_max)

    def inverse(self, i_target: float) -> float:
        if i_target <= 0.0:
            return 0.0
        if i_target >= self.i_max:
            clamp_stats.hit()
            return self.m_max
        return self._inverse1(i_target)

    # -------- construction and persistence --------

    @classmethod
    def build(cls, order: int, n_samples: int = _TABLE_SAMPLES,
              points: int = _TABLE_POINTS) -> "JTable":
        """Monte Carlo table with common random numbers across the grid."""
        q = validate_order(order)
        grid = _grid(_M_MAX, points)
        rng = np.random.default_rng(np.random.SeedSequence([_TABLE_SEED, q]))
        vals = _mi_grid(q, grid, n_samples, rng, _TABLE_CHUNK)
        vals[0] = 0.0
        vals = _pav_increasing(vals)
        vals[0] = 0.0
        return cls(q, grid, vals, n_samples, _TABLE_SEED)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "grid_m": self.grid_m.tolist(),
            "grid_i": self.grid_i.tolist(),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path: str) -> "JTable":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(doc["order"], np.array(doc["grid_m"]), np.array(doc["grid_i"]),
                   doc["n_samples"], doc["seed"])


def _table_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "jtables")


@cache
def get_table(order: int) -> JTable:
    """The shipped J_c table of one group order, loaded once."""
    q = validate_order(order)
    path = os.path.join(_table_dir(), f"jc_q{q}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no J_c table for order {q} at {path}; build it with "
            f"scripts/build_tables.py --orders {q}")
    return JTable.load(path)


def jc(m: float, order: int) -> float:
    """Equal-mean MI functional J_c(m, q) from the cached table."""
    return get_table(order).eval(m)


def jc_inv(i_target: float, order: int) -> float:
    """Inverse of jc in the scalar mean."""
    return get_table(order).inverse(i_target)


# ---------------- J_v: channel plus offset means ----------------


class JvFamily:
    """MI of channel-plus-offset Gaussian LDR messages for one group and
    one channel parameter, interpolated over the equal-mean offset c.

    The mean vector family is m_ch + c * 1 where m_ch has component a equal
    to m_bc times the bit weight of a. Sampling splits the vector into the
    exact channel part (sums of bit LLR draws) plus the equal-mean part
    c + sqrt(c) (z_a + z_0), using one fixed sample block for every c.
    """

    def __init__(self, order: int, m_bc: float, points: int = _JV_POINTS,
                 n_samples: int = _JV_SAMPLES):
        q = validate_order(order)
        self.order = q
        self.m_bc = float(m_bc)
        rng = np.random.default_rng(np.random.SeedSequence([_TABLE_SEED, q, 7, int(m_bc * 1e9) & 0x7FFFFFFF]))
        grid = _grid(_M_MAX, points)
        chunk = max(1, min(n_samples, 8_000_000 // q))
        vals = _pav_increasing(_mi_grid(q, grid, n_samples, rng, chunk, self.m_bc))
        self.grid_c = grid
        self.grid_i = np.clip(vals, 0.0, 1.0)
        for k in range(1, len(self.grid_i)):
            if self.grid_i[k] <= self.grid_i[k - 1]:
                self.grid_i[k] = min(1.0, self.grid_i[k - 1] + 1e-15)
        from scipy.interpolate import PchipInterpolator

        self._eval1, _ = _pchip_scalar(
            PchipInterpolator(self.grid_c, self.grid_i, extrapolate=False))
        self._c_max = float(grid[-1])

    def eval(self, c: float) -> float:
        return _clamped_eval(self._eval1, float(c), self._c_max)


def _mi_grid(q: int, grid: np.ndarray, n_samples: int,
             rng: np.random.Generator, chunk: int,
             m_bc: float | None = None) -> np.ndarray:
    """Monte Carlo MI of the message m_ch + c * 1 at every offset c of the
    grid, with common random numbers across the grid.

    Component a of the message at offset c is w_a + c + rt (z_a + z0),
    with rt = sqrt(c) and w the channel part (zero without ``m_bc``, the
    equal-mean vector of J_c). The terms c and rt z0 are common to every
    component, so with w* = min_a w_a and z* = min_a z_a per sample, both
    fixed across the grid,

        log sum_a exp(-(w_a + c + rt (z_a + z0)))
            = -(c + rt (z0 + z*) + w*) + log sum_a W_a exp(-rt (z_a - z*))

    where W_a = exp(w* - w_a) is computed once per sample (W = 1 for J_c).
    Every factor is at most 1, and the component with w_a = w* contributes
    at least exp(-sqrt(c_max) range(z)): about e^-90 at c_max = 60 with the
    range of 255 standard normals below 12. So the sum neither overflows
    nor underflows, and each offset costs one multiply, one exp and one
    dot product with W per component. The component-0 term log(1 + e^lse)
    is the softplus max(lse, 0) + log1p(e^-|lse|).

    Each chunk of at most ``chunk`` samples draws, from ``rng`` and in this
    order, the bit LLRs of the channel part (only with ``m_bc``), then z,
    then z0. z0 enters every value, so the chunk's z is drawn twice: once
    to reach z0, then again from the saved generator state as the walk
    consumes it, after which the generator resumes past z0. The walk cuts
    the chunk into consecutive nodes of at most _LEAF_SAMPLES samples and
    takes them one at a time: z one block of about _BLOCK_ELEMS
    components at a time, held as (component, sample) so that the dot
    products run along contiguous rows, then the log-sum-exp, the common
    terms and the softplus on the (grid, node) block, whose row sums are
    added to the total node after node. So the result equals summing
    whole (grid, chunk) arrays within rounding, not bit for bit.
    """
    k = q - 1
    step = max(1, _BLOCK_ELEMS // k)
    node = min(_LEAF_SAMPLES, chunk, n_samples)
    rts = [math.sqrt(c) for c in grid.tolist()]
    rt_col = np.array(rts)[:, None]
    c_col = grid[:, None]
    # the working set, reused by every node: about 2 * grid * node doubles
    # plus 4 z blocks, next to the chunk's bit LLRs and z0
    lse_buf = np.empty(len(grid) * node)
    tmp_buf = np.empty(len(grid) * node)
    zs = np.empty(node)             # z* per sample, then z0 + z*
    ws = np.zeros(node)             # w* per sample
    drawn, z_buf, t_buf = (np.empty(step * k) for _ in range(3))
    w_buf = np.ones(step * k)
    if m_bc is not None:
        p = bits_per_symbol(q)
        masks = ((np.arange(1, q)[:, None] >> np.arange(p)[None, :]) & 1).astype(np.float64)

    def node_sums(r0: int, n: int) -> np.ndarray:
        lse = lse_buf[:len(grid) * n].reshape(len(grid), n)
        for s0 in range(0, n, step):
            b = min(step, n - s0)
            raw = drawn[:b * k].reshape(b, k)
            rng.standard_normal(out=raw)
            z = z_buf[:k * b].reshape(k, b)
            np.copyto(z, raw.T)
            np.min(z, axis=0, out=zs[s0:s0 + b])
            z -= zs[s0:s0 + b]
            w = w_buf[:k * b].reshape(k, b)
            if m_bc is not None:
                np.matmul(masks, bit[r0 + s0:r0 + s0 + b].T, out=w)
                np.min(w, axis=0, out=ws[s0:s0 + b])
                np.subtract(ws[s0:s0 + b], w, out=w)
                np.exp(w, out=w)                          # W
            t = t_buf[:k * b].reshape(k, b)
            for gi, rt in enumerate(rts):
                if rt == 0.0:
                    t.fill(1.0)                           # exp(-0 z)
                else:
                    np.multiply(z, -rt, out=t)
                    np.exp(t, out=t)
                np.einsum("ij,ij->j", t, w, out=lse[gi, s0:s0 + b])
        np.log(lse, out=lse)
        # log S - w* - c - rt (z0 + z*), in this order: the last bits
        # reach de_trajectory's stop rule where a trajectory stalls
        zs[:n] += z0[r0:r0 + n]
        tmp = tmp_buf[:len(grid) * n].reshape(len(grid), n)
        lse -= ws[:n]
        lse -= c_col
        np.multiply(zs[:n], rt_col, out=tmp)
        lse -= tmp
        np.abs(lse, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        np.log1p(tmp, out=tmp)
        np.maximum(lse, 0.0, out=lse)
        lse += tmp
        return lse.sum(axis=1)

    acc = np.zeros(len(grid))
    done = 0
    while done < n_samples:
        csz = min(chunk, n_samples - done)
        if m_bc is not None:
            bit = rng.normal(m_bc, math.sqrt(2.0 * m_bc), size=(csz, p))
        start = rng.bit_generator.state
        for d in range(0, csz * k, drawn.size):           # skip to z0
            rng.standard_normal(out=drawn[:min(drawn.size, csz * k - d)])
        z0 = rng.normal(size=csz)
        past_z0 = rng.bit_generator.state
        rng.bit_generator.state = start
        for r0 in range(0, csz, node):
            acc += node_sums(r0, min(node, csz - r0))
        rng.bit_generator.state = past_z0
        done += csz
    return 1.0 - acc / n_samples / math.log(q)


# A DE trajectory and an LP design each evaluate one channel, so the memo
# holds one channel's families: one per order above G(2), which J_c serves.
# The bound trades against repeated bisections: a second threshold search
# at the same rate in one process probes the same channels and rebuilds
# their families (scripts/optimize_designs.py does this for its two
# rate-1/6 fixtures: 66.6 s -> 88.4 s for the whole script on 2 Xeon cores).
@lru_cache(maxsize=bits_per_symbol(MAX_ORDER) - 1)
def _family(order: int, m_bc: float) -> JvFamily:
    return JvFamily(order, m_bc)


def jv_channel_offset(order: int, m_bc: float, c: float) -> float:
    """J_v at mean (channel of m_bc) + c * 1, the only family DE needs.

    The binary case collapses exactly: channel and offset merge into one
    scalar Gaussian, so the tabulated equal-mean functional applies.
    """
    if order == 2:
        return float(jc(m_bc + c, 2))
    return _family(order, m_bc).eval(c)


# ---------------- MI domain changes ----------------


def mi_extend(x: float, q_from: int, q_to: int) -> float:
    """Information content is conserved in bits when a message is embedded
    into a larger group; exact identity, no approximation."""
    if q_from == q_to:
        return x
    if q_from > q_to:
        raise ValueError("extension must not shrink the group")
    return 1.0 - (1.0 - x) * math.log2(q_from) / math.log2(q_to)


def mi_truncate(x: float, q_from: int, q_to: int) -> float:
    """MI after gathering the image subvector in the smaller group.

    The image components of an equal-mean symmetric Gaussian vector form
    an equal-mean symmetric Gaussian vector of the smaller order with the
    same scalar mean, so the MI maps through the two tables at equal m.
    """
    if q_from == q_to:
        return x
    if q_from < q_to:
        raise ValueError("truncation must not grow the group")
    if x <= 0.0:
        return 0.0
    return float(jc(jc_inv(x, q_from), q_to))


# ---------------- EXIT recursions ----------------


def _variable_update(ens: Ensemble, m_bc: float, x_cv: dict | None) -> dict:
    """Variable half of the EXIT step: per (i, qk), the channel plus the
    weighted check-side offset, extended into each check group. Without
    check information (``x_cv`` None) the offset is zero."""
    state: dict[tuple[tuple[int, int], int], float] = {}
    for (i, qk), _mass in sorted(ens.pi_var().items()):
        w = ens.check_class_given_var_class(i, qk)
        c = 0.0
        if x_cv is not None:
            z = sum(wj * x_cv[((j, ql), qk)] for (j, ql), wj in sorted(w.items()))
            c = (i - 1) * jc_inv(min(z, 1.0), qk)
        y = jv_channel_offset(qk, m_bc, c)
        for (j, ql) in w:
            state[((i, qk), ql)] = mi_extend(y, qk, ql)
    return state


def initial_state(ens: Ensemble, m_bc: float) -> dict:
    """Variable-to-check MI per ((i, qk), ql): channel-only messages."""
    return _variable_update(ens, m_bc, None)


def exit_iteration_hybrid(state: dict, ens: Ensemble, m_bc: float) -> dict:
    """One full iteration: check update with truncation, then variable
    update with extension. Returns the new variable-to-check MI state."""
    # check side: per (j, ql) combine incoming, dual update, truncate per qk
    x_cv: dict[tuple[tuple[int, int], int], float] = {}
    for (j, ql), _mass in sorted(ens.pi_check().items()):
        w = ens.var_class_given_check_class(j, ql)
        s = sum(wi * state[((i, qk), ql)] for (i, qk), wi in sorted(w.items()))
        x_check = 1.0 - jc((j - 1) * jc_inv(1.0 - s, ql), ql)
        for (i, qk) in w:
            if ((j, ql), qk) not in x_cv:
                x_cv[((j, ql), qk)] = mi_truncate(x_check, ql, qk)
    return _variable_update(ens, m_bc, x_cv)


def aggregate_mi(state: dict, ens: Ensemble) -> float:
    """Edge-averaged MI in the largest group: the tracked scalar."""
    q_max = ens.groups[-1]
    out = 0.0
    for (i, j, qk, ql), mass in sorted(ens.pi.items()):
        y_l = state[((i, qk), ql)]
        # undo the extension into ql, redo it into q_max
        y = 1.0 - (1.0 - y_l) * math.log2(ql) / math.log2(qk)
        out += mass * mi_extend(min(y, 1.0), qk, q_max)
    return out


def de_trajectory(ens: Ensemble, sigma: float) -> tuple[bool, list[float]]:
    """Iterate density evolution; stop at DEFAULT_TARGET, after
    DEFAULT_MAX_ITER iterations, or at the first non-increasing step of
    the aggregate MI."""
    m_bc = ChannelParams(sigma).m_bc
    state = initial_state(ens, m_bc)
    traj = [aggregate_mi(state, ens)]
    if traj[-1] >= DEFAULT_TARGET:
        return True, traj
    for _ in range(DEFAULT_MAX_ITER):
        state = exit_iteration_hybrid(state, ens, m_bc)
        x = aggregate_mi(state, ens)
        traj.append(x)
        if x >= DEFAULT_TARGET:
            return True, traj
        if x <= traj[-2]:
            return False, traj
    return False, traj


def de_converges(ens: Ensemble, sigma: float) -> bool:
    ok, _ = de_trajectory(ens, sigma)
    return ok


def bisect_edge(ok: Callable[[float], bool], lo: float, hi: float,
                tol: float, good_hi: bool) -> float | None:
    """Edge of a monotone predicate on [lo, hi], from the side where ``ok``
    holds: above the edge when ``good_hi``, below it otherwise. Probes the
    good end (None if it fails), then the bad end (returned if it holds),
    then halves the bracket at 0.5 * (lo + hi) while it is wider than
    ``tol`` and has a midpoint strictly inside; returns its good end."""
    if not tol > 0.0:
        raise ValueError(f"bisection tolerance must be positive, got {tol!r}")
    if not lo < hi:
        raise ValueError(f"bisection needs lo < hi, got lo={lo!r}, hi={hi!r}")
    good, bad = (hi, lo) if good_hi else (lo, hi)
    if not ok(good):
        return None
    if ok(bad):
        return bad
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if bool(ok(mid)) == good_hi:    # mid joins the good side
            hi = mid
        else:
            lo = mid
    return hi if good_hi else lo


def threshold_search(ens: Ensemble, tol_db: float = 0.01) -> float:
    """Smallest Eb/N0 (dB) in [-6, 10] where density evolution converges,
    by bisection to within ``tol_db`` > 0."""
    rate = ens.rate()

    def ok(db: float) -> bool:
        sigma = ChannelParams.from_ebn0_db(db, rate).sigma
        return de_converges(ens, sigma)

    db = bisect_edge(ok, _LO_DB, _HI_DB, tol_db, good_hi=True)
    if db is None:
        raise DivergingEnsembleError(
            f"density evolution does not converge even at {_HI_DB} dB"
        )
    return db
