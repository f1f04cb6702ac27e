"""Density evolution under the Gaussian approximation.

Messages are modeled as symmetric Gaussian LDR vectors: a mean vector m
(component 0 fixed at zero) determines the covariance entrywise through
Sigma_ab = m_a + m_b - m_xor(a,b). Two mutual information functionals
drive the analysis. mutual_info_check, called J_c here and below, is the
MI of an equal-mean vector and depends on one scalar; it is tabulated per
group order by Monte Carlo on a fixed grid and inverted by bisection.
mutual_info_var (J_v) is the MI of a channel-plus-offset mean vector,
evaluated by structured Monte Carlo with common random numbers and cached
per (order, channel mean) as a one dimensional family in the offset.

The EXIT style recursion runs per class: check classes combine incoming
MI, apply the dual equal-mean update in the check group, and truncate the
result into each variable group; variable classes add the channel and the
weighted check-side offset and extend back into each check group.
Truncation maps MI through J_c of the smaller group at the same scalar
mean (the image subvector of an equal-mean Gaussian stays equal-mean);
extension rescales the information content by the bit-width ratio. Both
are exact identities when source and target group coincide.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from hybridldpc.channel import ChannelParams
from hybridldpc.ensembles import Ensemble
from hybridldpc.groups import bits_per_symbol, symbol_weights, validate_order

__all__ = [
    "JTable",
    "jc",
    "jc_inv",
    "JvFamily",
    "jv_family",
    "mi_extend",
    "mi_truncate",
    "exit_iteration_hybrid",
    "initial_state",
    "aggregate_mi",
    "de_trajectory",
    "de_converges",
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
_M_MAX = 60.0
_JV_POINTS = 96
_JV_SAMPLES = 40_000


class ClampStats:
    """Counts how often table lookups were clamped to the grid edge."""

    def __init__(self) -> None:
        self.count = 0

    def hit(self, n: int = 1) -> None:
        self.count += n


clamp_stats = ClampStats()


class DivergingEnsembleError(RuntimeError):
    pass


# ---------------- J_c tables ----------------


def _grid(m_max: float, points: int) -> np.ndarray:
    return np.concatenate([[0.0], np.logspace(-3, math.log10(m_max), points - 1)])


def _pav_increasing(y: np.ndarray) -> np.ndarray:
    # pool adjacent violators, then break flats with a tiny slope
    y = y.astype(np.float64).copy()
    n = len(y)
    vals = list(y)
    wts = [1.0] * n
    out_vals: list[float] = []
    out_wts: list[float] = []
    for v, w in zip(vals, wts):
        out_vals.append(v)
        out_wts.append(w)
        while len(out_vals) > 1 and out_vals[-2] > out_vals[-1]:
            v2, w2 = out_vals.pop(), out_wts.pop()
            v1, w1 = out_vals.pop(), out_wts.pop()
            out_vals.append((v1 * w1 + v2 * w2) / (w1 + w2))
            out_wts.append(w1 + w2)
    res = np.empty(n)
    idx = 0
    for v, w in zip(out_vals, out_wts):
        res[idx: idx + int(w)] = v
        idx += int(w)
    for k in range(1, n):
        if res[k] <= res[k - 1]:
            res[k] = res[k - 1] + 1e-12
    return res


@dataclass
class JTable:
    """Tabulated equal-mean MI functional for one group order."""

    order: int
    grid_m: np.ndarray
    grid_i: np.ndarray
    n_samples: int
    seed: int
    _interp: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.grid_m = np.asarray(self.grid_m, dtype=np.float64)
        self.grid_i = np.asarray(self.grid_i, dtype=np.float64)
        if np.any(np.diff(self.grid_i) <= 0):
            raise ValueError("table MI values must be strictly increasing")
        self._interp = PchipInterpolator(self.grid_m, self.grid_i, extrapolate=False)

    @property
    def i_max(self) -> float:
        return float(self.grid_i[-1])

    def eval(self, m) -> np.ndarray | float:
        m_arr = np.asarray(m, dtype=np.float64)
        clip_hi = m_arr > self.grid_m[-1]
        clip_lo = m_arr < 0.0
        n_clip = int(np.count_nonzero(clip_hi) + np.count_nonzero(clip_lo))
        if n_clip:
            clamp_stats.hit(n_clip)
        m_arr = np.clip(m_arr, 0.0, self.grid_m[-1])
        out = self._interp(m_arr)
        return float(out) if np.isscalar(m) else out

    def inverse(self, i_target: float) -> float:
        if i_target <= 0.0:
            return 0.0
        if i_target >= self.i_max:
            clamp_stats.hit()
            return float(self.grid_m[-1])
        lo, hi = 0.0, float(self.grid_m[-1])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(self._interp(mid)) < i_target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -------- construction and persistence --------

    @classmethod
    def build(cls, order: int, n_samples: int = _TABLE_SAMPLES,
              seed: int | None = None, points: int = _TABLE_POINTS,
              m_max: float = _M_MAX, chunk: int = 20_000) -> "JTable":
        """Monte Carlo table with common random numbers across the grid."""
        q = validate_order(order)
        if seed is None:
            seed = _TABLE_SEED
        grid = _grid(m_max, points)
        rng = np.random.default_rng(np.random.SeedSequence([seed, q]))
        acc = np.zeros(len(grid))
        done = 0
        while done < n_samples:
            c = min(chunk, n_samples - done)
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
        return cls(q, grid, vals, n_samples, seed)

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


_tables: dict[int, JTable] = {}


def _table_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "jtables")


def get_table(order: int) -> JTable:
    q = validate_order(order)
    tab = _tables.get(q)
    if tab is None:
        path = os.path.join(_table_dir(), f"jc_q{q}.json")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"no J_c table for order {q} at {path}; build it with "
                f"scripts/build_tables.py --orders {q}")
        tab = _tables[q] = JTable.load(path)
    return tab


def jc(m, order: int):
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
                 n_samples: int = _JV_SAMPLES, seed: int = _TABLE_SEED,
                 c_max: float = _M_MAX):
        q = validate_order(order)
        self.order = q
        self.m_bc = float(m_bc)
        p = bits_per_symbol(q)
        rng = np.random.default_rng(np.random.SeedSequence([seed, q, 7, int(m_bc * 1e9) & 0x7FFFFFFF]))
        grid = _grid(c_max, points)
        weights = symbol_weights(q)[1:]
        acc = np.zeros(len(grid))
        done = 0
        chunk = max(1, min(n_samples, 8_000_000 // q))
        while done < n_samples:
            csz = min(chunk, n_samples - done)
            bit = rng.normal(self.m_bc, math.sqrt(2.0 * self.m_bc), size=(csz, p))
            masks = ((np.arange(1, q)[:, None] >> np.arange(p)[None, :]) & 1)
            w_ch = bit @ masks.T.astype(np.float64)          # (csz, q-1)
            z = rng.normal(size=(csz, q - 1))
            z0 = rng.normal(size=csz)
            for gi, c in enumerate(grid):
                rt = math.sqrt(c)
                neg = -(w_ch + c + rt * z + rt * z0[:, None])
                mx = neg.max(axis=1)
                lse = mx + np.log(np.exp(neg - mx[:, None]).sum(axis=1))
                acc[gi] += np.logaddexp(0.0, lse).sum()
            done += csz
        vals = 1.0 - acc / n_samples / math.log(q)
        vals = _pav_increasing(vals)
        self.grid_c = grid
        self.grid_i = np.clip(vals, 0.0, 1.0)
        for k in range(1, len(self.grid_i)):
            if self.grid_i[k] <= self.grid_i[k - 1]:
                self.grid_i[k] = min(1.0, self.grid_i[k - 1] + 1e-15)
        self._interp = PchipInterpolator(self.grid_c, self.grid_i, extrapolate=False)

    def eval(self, c: float) -> float:
        if c < 0.0:
            clamp_stats.hit()
            c = 0.0
        if c > self.grid_c[-1]:
            clamp_stats.hit()
            c = float(self.grid_c[-1])
        return float(self._interp(c))


_jv_families: dict[tuple[int, float], JvFamily] = {}


def jv_family(order: int, m_bc: float) -> JvFamily:
    key = (validate_order(order), round(float(m_bc), 9))
    fam = _jv_families.get(key)
    if fam is None:
        fam = JvFamily(order, m_bc)
        _jv_families[key] = fam
    return fam


def jv_channel_offset(order: int, m_bc: float, c: float) -> float:
    """J_v at mean (channel of m_bc) + c * 1, the only family DE needs.

    The binary case collapses exactly: channel and offset merge into one
    scalar Gaussian, so the tabulated equal-mean functional applies.
    """
    if order == 2:
        return float(jc(m_bc + c, 2))
    return jv_family(order, m_bc).eval(c)


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


def initial_state(ens: Ensemble, m_bc: float) -> dict:
    """Variable-to-check MI per ((i, qk), ql): channel-only messages."""
    state: dict[tuple[tuple[int, int], int], float] = {}
    for (i, j, qk, ql), _mass in sorted(ens.pi.items()):
        key = ((i, qk), ql)
        if key not in state:
            y = jv_channel_offset(qk, m_bc, 0.0)
            state[key] = mi_extend(y, qk, ql)
    return state


def exit_iteration_hybrid(state: dict, ens: Ensemble, m_bc: float) -> dict:
    """One full iteration: check update with truncation, then variable
    update with extension. Returns the new variable-to-check MI state."""
    # check side: per (j, ql) combine incoming, dual update, truncate per qk
    x_cv: dict[tuple[tuple[int, int], int], float] = {}
    for (j, ql), _mass in sorted(ens.pi_check().items()):
        w = ens.var_class_given_check_class(j, ql)
        s = sum(wi * state[((i, qk), ql)] for (i, qk), wi in sorted(w.items()))
        a = jc_inv(1.0 - s, ql)
        x_check = 1.0 - jc((j - 1) * a, ql)
        for (i, qk) in w:
            if ((j, ql), qk) not in x_cv:
                x_cv[((j, ql), qk)] = mi_truncate(x_check, ql, qk)
    # variable side: per (i, qk) combine, channel plus offset, extend per ql
    new_state: dict[tuple[tuple[int, int], int], float] = {}
    for (i, qk), _mass in sorted(ens.pi_var().items()):
        w = ens.check_class_given_var_class(i, qk)
        z = sum(wj * x_cv[((j, ql), qk)] for (j, ql), wj in sorted(w.items()))
        z = min(z, 1.0)
        c = jc_inv(z, qk)
        y = jv_channel_offset(qk, m_bc, (i - 1) * c)
        for (j, ql) in w:
            new_state[((i, qk), ql)] = mi_extend(y, qk, ql)
    return new_state


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


def de_trajectory(ens: Ensemble, sigma: float, target: float = DEFAULT_TARGET,
                  max_iter: int = DEFAULT_MAX_ITER) -> tuple[bool, list[float]]:
    """Iterate density evolution; stop at the target, the iteration cap,
    or the first non-increasing step of the aggregate MI."""
    m_bc = ChannelParams(sigma).m_bc
    state = initial_state(ens, m_bc)
    traj = [aggregate_mi(state, ens)]
    if traj[-1] >= target:
        return True, traj
    for _ in range(max_iter):
        state = exit_iteration_hybrid(state, ens, m_bc)
        x = aggregate_mi(state, ens)
        traj.append(x)
        if x >= target:
            return True, traj
        if x <= traj[-2]:
            return False, traj
    return False, traj


def de_converges(ens: Ensemble, sigma: float, target: float = DEFAULT_TARGET,
                 max_iter: int = DEFAULT_MAX_ITER) -> bool:
    ok, _ = de_trajectory(ens, sigma, target, max_iter)
    return ok


def threshold_search(ens: Ensemble, tol_db: float = 0.01, lo_db: float = -6.0,
                     hi_db: float = 10.0, target: float = DEFAULT_TARGET,
                     max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Smallest Eb/N0 (dB) where density evolution converges, by bisection."""
    rate = ens.rate()

    def ok(db: float) -> bool:
        sigma = ChannelParams.from_ebn0_db(db, rate).sigma
        return de_converges(ens, sigma, target, max_iter)

    if not ok(hi_db):
        raise DivergingEnsembleError(
            f"density evolution does not converge even at {hi_db} dB"
        )
    if ok(lo_db):
        return lo_db
    lo, hi = lo_db, hi_db
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
