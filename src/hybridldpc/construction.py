"""Instantiating codes from ensembles.

A concrete parity-check structure is built in four steps. Degree classes
are first quantized to integer node counts so that the bit budget and the
edge budget are met exactly (largest remainder apportionment with a small
exact-repair search); when a requested length cannot be met exactly,
the longest realisable length a few bits below it is built instead (see
``build_code``). Columns and rows are then laid out sorted ascending
by group order, with one redundancy column per check row taking the group
of its row. The redundancy block is upper triangular: column t carries an
identity map on its diagonal row t and may reach only earlier rows of the
same group block, so back substitution can encode in linear time. The
remaining edges are placed by progressive edge growth, maximizing the
local girth greedily, and every edge joining distinct groups receives an
injective linear map drawn uniformly at random from the full-rank set.

The redundancy boundary has a structural degree shortfall: the first
column of each redundancy block can hold 1 edge, the second 2, and so on,
whatever degree its class asked for. Shortfalls are recorded on the built
code and exempted from degree-statistics checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hybridldpc.ensembles import Ensemble, EnsembleError, node_proportions
from hybridldpc.groups import (
    SymbolMap,
    bits_per_symbol,
    random_injective_map,
    validate_order,
)

__all__ = ["ConstructionError", "HybridParityCheck", "build_code", "built_length", "length_window", "save_code", "load_code", "apportion"]


class ConstructionError(ValueError):
    pass


def apportion(targets: dict, coins: dict, total: int) -> dict:
    """Integer counts n_c near the real targets with sum(n_c * coin_c) == total.

    Floor first, then spend the deficit one coin at a time on the classes
    with the largest remainders. If the greedy run cannot land exactly on
    the total, a small breadth-first search over +-1 adjustments finds an
    exact combination or proves none exists within reach.
    """
    keys = sorted(targets)
    counts = {c: int(math.floor(targets[c] + 1e-9)) for c in keys}
    rem = {c: targets[c] - counts[c] for c in keys}
    deficit = total - sum(counts[c] * coins[c] for c in keys)
    if deficit < 0:
        raise ConstructionError(
            f"floor counts already exceed the budget by {-deficit} (targets inconsistent)"
        )
    while deficit > 0:
        usable = [c for c in keys if coins[c] <= deficit]
        if not usable:
            break
        pick = max(usable, key=lambda c: (rem[c], -coins[c]))
        counts[pick] += 1
        rem[pick] -= 1.0
        deficit -= coins[pick]
    if deficit == 0:
        return counts
    # exact repair: fewest +-1 coin moves that land on the residual
    moves = [({c: sgn}, sgn * coins[c]) for c in keys for sgn in (1, -1)]
    best = _coin_search(deficit, moves, counts, max_moves=8)
    if best is None:
        raise ConstructionError(
            f"cannot hit budget {total}: residual {deficit} not representable "
            f"with class coins {sorted(set(coins.values()))}"
        )
    for c, delta in best.items():
        counts[c] += delta
    return counts


def _coin_search(target: int, moves: list, counts: dict, max_moves: int):
    """Fewest moves whose steps sum to ``target``, breadth first.

    A move is (per-class count adjustment, step). No class count may go
    negative. Returns the summed adjustment, or None when no combination
    of at most ``max_moves`` moves reaches the target."""
    if target == 0:
        return {}
    if not moves:
        return None
    bound = abs(target) + max(abs(step) for _, step in moves)
    seen = {0: {}}
    frontier = [0]
    for _ in range(max_moves):
        nxt = []
        for s in frontier:
            for adj, step in moves:
                s2 = s + step
                if s2 in seen or abs(s2) > bound:
                    continue
                total = dict(seen[s])
                for c, d in adj.items():
                    total[c] = total.get(c, 0) + d
                if any(counts[c] + total[c] < 0 for c in adj):
                    continue
                seen[s2] = total
                if s2 == target:
                    return total
                nxt.append(s2)
        frontier = nxt
        if not frontier:
            break
    return seen.get(target)


@dataclass
class HybridParityCheck:
    """Sparse hybrid parity-check structure.

    Columns 0..n_info-1 are information symbols; column n_info + t is the
    redundancy symbol of check row t. Edges are stored as parallel arrays
    plus a map per edge.
    """

    var_groups: np.ndarray
    check_groups: np.ndarray
    n_info: int
    edge_row: np.ndarray
    edge_col: np.ndarray
    edge_maps: list[SymbolMap]
    degree_shortfall: int = 0
    seed: int | None = None

    @property
    def n(self) -> int:
        return len(self.var_groups)

    @property
    def m(self) -> int:
        return len(self.check_groups)

    @property
    def n_edges(self) -> int:
        return len(self.edge_row)

    @property
    def n_bits(self) -> int:
        return int(sum(bits_per_symbol(int(q)) for q in self.var_groups))

    @property
    def info_bits(self) -> int:
        return int(sum(bits_per_symbol(int(q)) for q in self.var_groups[: self.n_info]))

    def rate(self) -> float:
        return self.info_bits / self.n_bits

    def col_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_col, minlength=self.n)

    def row_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_row, minlength=self.m)

    def diagonal_edge_index(self, row: int) -> int:
        col = self.n_info + row
        hits = np.flatnonzero((self.edge_row == row) & (self.edge_col == col))
        if len(hits) != 1:
            raise ConstructionError(f"row {row} lacks a unique diagonal edge")
        return int(hits[0])

    def validate(self) -> None:
        n, m = self.n, self.m
        if self.n_info + m != n:
            raise ConstructionError("column count must be n_info + number of rows")
        vg, cg = self.var_groups, self.check_groups
        for q in vg:
            validate_order(int(q))
        for q in cg:
            validate_order(int(q))
        info = vg[: self.n_info]
        red = vg[self.n_info:]
        if np.any(np.diff(info) < 0) or np.any(np.diff(red) < 0):
            raise ConstructionError("group orders must ascend within each column block")
        if np.any(np.diff(cg) < 0):
            raise ConstructionError("row group orders must ascend")
        if not np.array_equal(red, cg):
            raise ConstructionError("redundancy column groups must match their row groups")
        seen = set()
        for e in range(self.n_edges):
            r, c = int(self.edge_row[e]), int(self.edge_col[e])
            if (r, c) in seen:
                raise ConstructionError(f"duplicate edge ({r}, {c})")
            seen.add((r, c))
            qc, qr = int(vg[c]), int(cg[r])
            if qc > qr:
                raise ConstructionError(
                    f"edge ({r}, {c}): variable group {qc} exceeds check group {qr}"
                )
            mp = self.edge_maps[e]
            if mp.in_order != qc or mp.out_order != qr:
                raise ConstructionError(f"edge ({r}, {c}): map orders do not match groups")
            if qc == qr and not mp.is_identity:
                raise ConstructionError(f"edge ({r}, {c}): same-group edge must carry identity")
            if c >= self.n_info and r > c - self.n_info:
                raise ConstructionError(
                    f"edge ({r}, {c}) below the redundancy diagonal breaks triangularity"
                )
        for t in range(m):
            self.diagonal_edge_index(t)


# ---------------- quantization of an ensemble ----------------


def _quantize(ens: Ensemble, n_bits: int):
    pv = ens.pi_var()
    bits_per_edge = sum(m * bits_per_symbol(qk) / i for (i, qk), m in pv.items())
    e_nominal = n_bits / bits_per_edge
    var_targets = {key: e_nominal * m / key[0] for key, m in pv.items()}
    var_coins = {key: bits_per_symbol(key[1]) for key in pv}
    var_counts = apportion(var_targets, var_coins, n_bits)
    e_int = sum(c * i for (i, _qk), c in var_counts.items())

    pc = ens.pi_check()
    chk_coins = {key: key[0] for key in pc}
    # the check side may not be able to tile the exact edge total (for a
    # single check degree it must divide it); nudge the total with
    # bit-neutral variable node moves until the check side fits
    keys = sorted(var_counts)
    moves = [({src: -1, dst: 1}, dst[0] - src[0]) for src in keys for dst in keys
             if src[1] == dst[1] and src[0] != dst[0]]
    max_j = max(j for j, _ql in pc)
    last_err = None
    for mag in range(max_j):
        for delta in ((0,) if mag == 0 else (-mag, mag)):
            adj = _coin_search(delta, moves, var_counts, max_moves=16)
            if adj is None:
                continue
            vc = {k: var_counts[k] + adj.get(k, 0) for k in var_counts}
            e_t = e_int + delta
            chk_targets = {key: e_t * m / key[0] for key, m in pc.items()}
            try:
                chk_counts = apportion(chk_targets, chk_coins, e_t)
            except ConstructionError as err:
                last_err = err
                continue
            return vc, chk_counts, e_t
    raise last_err if last_err is not None else ConstructionError(
        f"cannot reconcile edge total {e_int} with check degrees "
        f"{sorted(j for j, _ in pc)}"
    )


# ---------------- layout ----------------


@dataclass
class _Layout:
    var_groups: np.ndarray
    check_groups: np.ndarray
    n_info: int
    col_target: np.ndarray
    row_target: np.ndarray
    degree_shortfall: int


def _layout(ens: Ensemble, var_counts: dict, chk_counts: dict) -> _Layout:
    # rows sorted ascending by group; higher target degrees first in a block
    rows: list[tuple[int, int]] = []
    for (j, ql), cnt in sorted(chk_counts.items()):
        rows.extend([(ql, j)] * cnt)
    rows.sort(key=lambda t: (t[0], -t[1]))
    check_groups = np.array([q for q, _ in rows], dtype=np.int64)
    row_target = np.array([j for _, j in rows], dtype=np.int64)
    m = len(rows)

    # redundancy pulls the lowest degrees of each group's class pool
    pool: dict[int, list[int]] = {}
    for (i, qk), cnt in sorted(var_counts.items()):
        pool.setdefault(qk, []).extend([i] * cnt)
    for q in pool:
        pool[q].sort()
    red_deg: list[int] = []
    shortfall = 0
    r0 = 0
    while r0 < m:
        q = int(check_groups[r0])
        r1 = r0
        while r1 < m and check_groups[r1] == q:
            r1 += 1
        block = r1 - r0
        avail = pool.get(q, [])
        if len(avail) < block:
            raise ConstructionError(
                f"group {q}: {block} redundancy columns needed but only "
                f"{len(avail)} variable nodes available"
            )
        take, pool[q] = avail[:block], avail[block:]
        for s, d in enumerate(take):
            capacity = s + 1
            got = min(d, capacity)
            shortfall += d - got
            red_deg.append(got)
        r0 = r1

    info_cols: list[tuple[int, int]] = []
    for q in sorted(pool):
        for d in pool[q]:
            info_cols.append((q, d))
    info_cols.sort()
    n_info = len(info_cols)
    var_groups = np.array(
        [q for q, _ in info_cols] + [int(q) for q in check_groups], dtype=np.int64
    )
    col_target = np.array(
        [d for _, d in info_cols] + red_deg, dtype=np.int64
    )
    return _Layout(var_groups, check_groups, n_info, col_target, row_target, shortfall)


# ---------------- progressive edge growth ----------------


class _Peg:
    """Greedy girth-aware edge placement over the growing bipartite graph.

    Adjacency lives in padded arrays (-1 marks a free slot): one row of
    ``col_rows`` per column, one row of ``row_cols`` per check row. The
    row table widens when a row overflows its target degree. Every column
    and row carries the label of its connected component (``col_comp``,
    ``row_comp``), merged as edges join components, so that a search can
    tell unreachable rows without walking the graph.
    """

    def __init__(self, layout: _Layout, rng: np.random.Generator):
        self.lay = layout
        self.rng = rng
        self.n = len(layout.var_groups)
        self.m = len(layout.check_groups)
        self.col_rows = np.full((self.n, max(1, int(layout.col_target.max()))), -1, dtype=np.int64)
        self.row_cols = np.full((self.m, max(1, int(layout.row_target.max()))), -1, dtype=np.int64)
        self.col_deg = np.zeros(self.n, dtype=np.int64)
        self.row_fill = np.zeros(self.m, dtype=np.int64)
        self._dist = np.empty(self.m, dtype=np.int64)
        self._cdist = np.empty(self.n, dtype=np.int64)
        self._taken = np.zeros(self.m, dtype=bool)
        self.col_comp = np.arange(self.n, dtype=np.int64)
        self.row_comp = np.arange(self.n, self.n + self.m, dtype=np.int64)
        self.edges: list[tuple[int, int]] = []

    def add_edge(self, row: int, col: int) -> None:
        fill = self.row_fill[row]
        if fill == self.row_cols.shape[1]:
            wider = np.full((self.m, 2 * fill), -1, dtype=np.int64)
            wider[:, :fill] = self.row_cols
            self.row_cols = wider
        self.row_cols[row, fill] = col
        self.col_rows[col, self.col_deg[col]] = row
        self.row_fill[row] += 1
        self.col_deg[col] += 1
        self.edges.append((row, col))
        keep, gone = self.row_comp[row], self.col_comp[col]
        if keep != gone:
            self.col_comp[self.col_comp == gone] = keep
            self.row_comp[self.row_comp == gone] = keep

    def _bfs_row_dists(self, col: int, cand: np.ndarray) -> np.ndarray:
        # distances from col to the rows cand through the current graph, one
        # breadth-first level per pass: rows at odd, columns at even depth;
        # every row of cand lies in col's component, and the walk stops at
        # the level that reaches the last of them
        dist = self._dist
        cdist = self._cdist
        dist.fill(-1)
        cdist.fill(-1)
        cdist[col] = 0
        front = np.array([col])
        depth = 1
        while True:
            rows = self.col_rows[front].ravel()
            rows = rows[rows >= 0]
            rows = rows[dist[rows] < 0]
            if not len(rows):
                break
            dist[rows] = depth
            if dist[cand].min() >= 0:
                break
            cols = self.row_cols[np.flatnonzero(dist == depth)].ravel()
            cols = cols[cols >= 0]
            cols = cols[cdist[cols] < 0]
            if not len(cols):
                break
            cdist[cols] = depth + 1
            front = np.flatnonzero(cdist == depth + 1)
            depth += 2
        return dist[cand]

    def place(self, col: int, candidates: np.ndarray) -> None:
        """Connect col to an admissible row, keeping target degrees.

        Rows still under their target fill are used when any exist
        (overflow only when every admissible row is full). Among those the
        row at maximal graph distance from col wins, ties broken by lowest
        fill, remaining ties by seeded RNG. Rows in another component than
        col are unreachable, hence the farthest, and need no search."""
        if len(candidates) == 0:
            raise ConstructionError(f"column {col}: no admissible check row")
        taken = self.col_rows[col, : self.col_deg[col]]
        self._taken[taken] = True
        cand = candidates[~self._taken[candidates]]
        self._taken[taken] = False
        if len(cand) == 0:
            raise ConstructionError(f"column {col}: admissible rows exhausted")
        under = cand[self.row_fill[cand] < self.lay.row_target[cand]]
        if len(under):
            cand = under
        far = self.row_comp[cand] != self.col_comp[col]
        if not far.any():
            dist = self._bfs_row_dists(col, cand)
            far = dist == dist.max()
        fill = self.row_fill[cand]
        pool = cand[far & (fill == fill[far].min())]
        row = int(pool[self.rng.integers(0, len(pool))]) if len(pool) > 1 else int(pool[0])
        self.add_edge(row, col)


def length_window(ens: Ensemble) -> int:
    """Bits below a requested length that ``build_code`` may give up:
    one check row's worth of symbols of the largest group, the step at
    which both the bit budget and the check degrees can tile again."""
    p_max = bits_per_symbol(max(ens.groups))
    j_max = max(j for j, _ql in ens.pi_check())
    return p_max * j_max


def _plan(ens: Ensemble, n_bits: int) -> _Layout:
    """Layout of the longest realisable code of at most ``n_bits`` bits
    (see ``build_code``)."""
    if n_bits <= 0:
        raise ConstructionError("n_bits must be positive")
    try:
        node_proportions(ens)
    except EnsembleError as exc:
        raise ConstructionError(f"ensemble cannot be laid out: {exc}") from None
    lowest = max(1, n_bits - length_window(ens) + 1)
    cause = None
    for length in range(n_bits, lowest - 1, -1):
        try:
            var_counts, chk_counts, _ = _quantize(ens, length)
            return _layout(ens, var_counts, chk_counts)
        except ConstructionError as exc:
            cause = cause or exc
    raise ConstructionError(
        f"no length in [{lowest}, {n_bits}] bits is realisable; "
        f"at {n_bits} bits: {cause}")


def built_length(ens: Ensemble, n_bits: int) -> int:
    """Codeword bits of ``build_code(ens, n_bits, seed)`` for every seed,
    from the length rule alone: no graph is drawn."""
    lay = _plan(ens, n_bits)
    return int(sum(bits_per_symbol(int(q)) for q in lay.var_groups))


def build_code(ens: Ensemble, n_bits: int, seed: int) -> HybridParityCheck:
    """Instantiate a code of at most ``n_bits`` codeword bits.

    Length rule: the code has the largest length L <= n_bits, with
    n_bits - L < ``length_window(ens)``, at which quantization and the
    triangular layout both succeed. L equals n_bits whenever n_bits
    itself is realisable; otherwise the symbol sizes, the check degrees
    or the group hosting the redundancy block forbid it (a GF(8) code has
    a multiple of 3 bits). ``code.n_bits`` is the length built. When no
    length in the window is realisable, or the ensemble cannot host its
    redundancy block at any length, ``ConstructionError`` names the cause.
    """
    lay = _plan(ens, n_bits)
    rng = np.random.default_rng(seed)
    peg = _Peg(lay, rng)
    n_info, m = lay.n_info, len(lay.check_groups)

    # diagonal edges first, exempt from placement search
    for t in range(m):
        peg.add_edge(t, n_info + t)

    # first row of each row's group block (rows ascend by group)
    block_start = np.searchsorted(lay.check_groups, lay.check_groups)

    rows_by_group = {}
    order = np.arange(m)
    for q in np.unique(lay.check_groups):
        rows_by_group[int(q)] = order[lay.check_groups == q]

    cols = sorted(range(peg.n), key=lambda c: (lay.col_target[c], c))
    for c in cols:
        need = int(lay.col_target[c]) - int(peg.col_deg[c])
        if need <= 0:
            continue
        if c >= n_info:
            t = c - n_info
            candidates = np.arange(block_start[t], t, dtype=np.int64)
        else:
            qc = int(lay.var_groups[c])
            allowed = [rows_by_group[q] for q in rows_by_group if q >= qc]
            candidates = np.concatenate(allowed) if allowed else np.empty(0, dtype=np.int64)
        for _ in range(need):
            peg.place(c, candidates)

    edge_row = np.array([r for r, _ in peg.edges], dtype=np.int64)
    edge_col = np.array([c for _, c in peg.edges], dtype=np.int64)
    srt = np.lexsort((edge_row, edge_col))
    edge_row, edge_col = edge_row[srt], edge_col[srt]
    maps = [
        random_injective_map(
            rng, int(lay.var_groups[c]), int(lay.check_groups[r])
        )
        for r, c in zip(edge_row, edge_col)
    ]
    code = HybridParityCheck(
        var_groups=lay.var_groups,
        check_groups=lay.check_groups,
        n_info=n_info,
        edge_row=edge_row,
        edge_col=edge_col,
        edge_maps=maps,
        degree_shortfall=lay.degree_shortfall,
        seed=seed,
    )
    code.validate()
    return code


# ---------------- extended alist serialization ----------------

_MAGIC = "hybrid-alist 1"


def save_code(code: HybridParityCheck, path: str) -> None:
    """Write the documented extended-alist text format (see README)."""
    cdeg = code.col_degrees()
    rdeg = code.row_degrees()
    by_col: list[list[str]] = [[] for _ in range(code.n)]
    by_row: list[list[int]] = [[] for _ in range(code.m)]
    for e in range(code.n_edges):
        r, c = int(code.edge_row[e]), int(code.edge_col[e])
        by_col[c].append(f"{r + 1}:{code.edge_maps[e].code()}")
        by_row[r].append(c + 1)
    lines = [
        _MAGIC,
        f"{code.n} {code.m}",
        str(code.n_info),
        " ".join(str(int(q)) for q in code.var_groups),
        " ".join(str(int(q)) for q in code.check_groups),
        f"{int(cdeg.max())} {int(rdeg.max())}",
        " ".join(str(int(d)) for d in cdeg),
        " ".join(str(int(d)) for d in rdeg),
    ]
    lines.extend(" ".join(tokens) for tokens in by_col)
    lines.extend(" ".join(str(c) for c in sorted(cols)) for cols in by_row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class AlistParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def load_code(path: str) -> HybridParityCheck:
    with open(path) as fh:
        raw = fh.read().splitlines()

    def get(idx: int) -> str:
        if idx >= len(raw):
            raise AlistParseError(idx + 1, "unexpected end of file")
        return raw[idx]

    def ints(idx: int, count: int | None = None) -> list[int]:
        try:
            vals = [int(tok) for tok in get(idx).split()]
        except ValueError as exc:
            raise AlistParseError(idx + 1, f"expected integers: {exc}") from None
        if count is not None and len(vals) != count:
            raise AlistParseError(idx + 1, f"expected {count} values, got {len(vals)}")
        return vals

    if get(0).strip() != _MAGIC:
        raise AlistParseError(1, f"bad magic, expected {_MAGIC!r}")
    n, m = ints(1, 2)
    (n_info,) = ints(2, 1)
    var_groups = np.array(ints(3, n), dtype=np.int64)
    check_groups = np.array(ints(4, m), dtype=np.int64)
    ints(5, 2)
    col_deg = ints(6, n)
    ints(7, m)
    erow, ecol, maps = [], [], []
    for c in range(n):
        lineno = 8 + c
        tokens = get(lineno).split()
        if len(tokens) != col_deg[c]:
            raise AlistParseError(
                lineno + 1, f"column {c}: {len(tokens)} edges, degree says {col_deg[c]}"
            )
        for tok in tokens:
            try:
                rpart, mcode = tok.split(":", 1)
                r = int(rpart) - 1
            except ValueError:
                raise AlistParseError(lineno + 1, f"bad edge token {tok!r}") from None
            if not 0 <= r < m:
                raise AlistParseError(lineno + 1, f"row index {r + 1} out of range")
            try:
                mp = SymbolMap.from_code(
                    mcode, int(var_groups[c]), int(check_groups[r])
                )
            except ValueError as exc:
                raise AlistParseError(lineno + 1, f"bad map code {mcode!r}: {exc}") from None
            erow.append(r)
            ecol.append(c)
            maps.append(mp)
    code = HybridParityCheck(
        var_groups=var_groups,
        check_groups=check_groups,
        n_info=n_info,
        edge_row=np.array(erow, dtype=np.int64),
        edge_col=np.array(ecol, dtype=np.int64),
        edge_maps=maps,
    )
    code.validate()
    return code
