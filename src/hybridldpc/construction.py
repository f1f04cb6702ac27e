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
local girth greedily; its search walks check rows only, a level per pass,
through a bit-packed adjacency of the rows that share a column. Every
edge joining distinct groups receives an injective linear map drawn
uniformly at random from the full-rank set.
``HybridParityCheck.node_classes`` groups a code's edges by column and by
row into degree and group classes, once; validation, ``save_code``, the
encoder, the syndrome and both decoder paths take their edge layout from it.

The redundancy boundary has a structural degree shortfall: the first
column of each redundancy block can hold 1 edge, the second 2, and so on,
whatever degree its class asked for. Shortfalls are recorded on the built
code and exempted from degree-statistics checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hybridldpc.ensembles import Ensemble, EnsembleError, node_proportions
from hybridldpc.groups import (
    SymbolMap,
    bits_per_symbol,
    identity_map,
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


def _total_bits(groups: np.ndarray) -> int:
    """Bits carried by symbols of the given group orders: one
    ``bits_per_symbol`` call per distinct order, which raises on an
    invalid one."""
    orders, counts = np.unique(np.asarray(groups), return_counts=True)
    return sum(bits_per_symbol(int(q)) * int(k) for q, k in zip(orders, counts))


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
        return _total_bits(self.var_groups)

    @property
    def info_bits(self) -> int:
        return _total_bits(self.var_groups[: self.n_info])

    def rate(self) -> float:
        return self.info_bits / self.n_bits

    def col_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_col, minlength=self.n)

    def row_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_row, minlength=self.m)

    @cached_property
    def node_classes(self) -> tuple[list, list]:
        """Edges grouped by column and by row, from one stable argsort of
        each side's edges at first use, then kept: the edge arrays must not
        change. Each side lists (degree, group, nodes, edges) classes in
        ascending key order, columns keyed (group, degree) and rows (degree,
        group); ``nodes`` ascend and ``edges[c]``, the edges of
        ``nodes[c]`` in edge-index order, form one (C, degree) array."""
        sides = []
        for node, groups, group_major in ((self.edge_col, self.var_groups, True),
                                          (self.edge_row, self.check_groups, False)):
            deg = np.bincount(node, minlength=len(groups))
            major, minor = (groups, deg) if group_major else (deg, groups)
            cls = major * (int(minor.max()) + 1) + minor
            nodes = np.argsort(cls, kind="stable")
            edges = np.argsort(cls[node] * len(cls) + node, kind="stable")
            runs = np.split(nodes, np.flatnonzero(np.diff(cls[nodes])) + 1)
            blocks = np.split(edges, np.cumsum([deg[run].sum() for run in runs])[:-1])
            sides.append([(int(deg[run[0]]), int(groups[run[0]]), run,
                           block.reshape(len(run), -1)) for run, block in zip(runs, blocks)])
        return sides[0], sides[1]

    @cached_property
    def map_tables(self) -> np.ndarray:
        """(E, q_max) images of the symbols 0..q_k-1 under each edge's map,
        zero past the column's order; built at first use and kept."""
        q_max = int(max(self.var_groups.max(), self.check_groups.max()))
        tables = np.zeros((self.n_edges, q_max), dtype=np.int64)
        for e, mp in enumerate(self.edge_maps):
            tables[e, : mp.in_order] = mp.apply_table
        return tables

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
        # every edge check at once; the first bad edge in edge order is
        # named, with the first check it fails
        row, col = self.edge_row, self.edge_col
        dup = np.ones(self.n_edges, dtype=bool)
        dup[np.unique(row * n + col, return_index=True)[1]] = False
        qc, qr = vg[col], cg[row]
        # map attributes, read once per distinct map object (identities are shared)
        distinct: dict[int, tuple] = {}
        which = [distinct.setdefault(id(mp), (len(distinct), mp))[0] for mp in self.edge_maps]
        in_q, out_q, ident = np.array(
            [(mp.in_order, mp.out_order, mp.is_identity) for _k, mp in distinct.values()],
            dtype=np.int64).reshape(-1, 3)[which].T
        checks = [
            (dup, "duplicate edge ({r}, {c})"),
            (qc > qr, "edge ({r}, {c}): variable group {qc} exceeds check group {qr}"),
            ((in_q != qc) | (out_q != qr), "edge ({r}, {c}): map orders do not match groups"),
            ((qc == qr) & (ident == 0), "edge ({r}, {c}): same-group edge must carry identity"),
            ((col >= self.n_info) & (row > col - self.n_info),
             "edge ({r}, {c}) below the redundancy diagonal breaks triangularity"),
        ]
        fails = np.array([mask for mask, _ in checks])
        bad = fails.any(axis=0)
        if bad.any():
            e = int(bad.argmax())
            raise ConstructionError(checks[int(fails[:, e].argmax())][1].format(
                r=int(row[e]), c=int(col[e]), qc=int(qc[e]), qr=int(qr[e])))
        lacking = np.concatenate([
            rows[(self.edge_col[edges] == self.n_info + rows[:, None]).sum(axis=1) != 1]
            for _j, _q, rows, edges in self.node_classes[1]])
        if len(lacking):
            raise ConstructionError(f"row {lacking.min()} lacks a unique diagonal edge")


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

    The search walks rows only: two rows are adjacent when they share a
    column, and a row at level k of the walk from a column's own rows
    (level 1) lies at graph distance 2k - 1 from the column; a path back
    through the column is never shorter, as all its rows are at level 1.
    ``adj`` holds the adjacency bit-packed, bit s of word s // 64 in row r
    set when rows r and s share a column (ceil(m / 64) little-endian words
    a row), and ``col_bits`` holds each column's rows the same way. Every
    column and row carries the label of its connected component
    (``col_comp``, ``row_comp``), merged as edges join components, so that
    a search can tell unreachable rows without walking the graph.
    """

    def __init__(self, layout: _Layout, rng: np.random.Generator):
        self.lay = layout
        self.rng = rng
        self.n = len(layout.var_groups)
        self.m = len(layout.check_groups)
        self.adj = np.zeros((self.m, -(-self.m // 64)), dtype="<u8")
        self.col_bits = np.zeros((self.n, self.adj.shape[1]), dtype="<u8")
        self.col_deg = np.zeros(self.n, dtype=np.int64)
        self.row_fill = np.zeros(self.m, dtype=np.int64)
        self.col_comp = np.arange(self.n, dtype=np.int64)
        self.row_comp = np.arange(self.n, self.n + self.m, dtype=np.int64)
        self.edges: list[tuple[int, int]] = []

    def add_edge(self, row: int, col: int) -> None:
        bits = self.col_bits[col]
        bits[row >> 6] |= np.uint64(1 << (row & 63))
        # the column's rows, the new one among them, now all share it
        self.adj[_rows(bits)] |= bits
        self.row_fill[row] += 1
        self.col_deg[col] += 1
        self.edges.append((row, col))
        keep, gone = self.row_comp[row], self.col_comp[col]
        if keep != gone:
            self.col_comp[self.col_comp == gone] = keep
            self.row_comp[self.row_comp == gone] = keep

    def _farthest(self, col: int, cand: np.ndarray) -> np.ndarray:
        # which rows of cand lie farthest from col: one pass per row level
        # up to the one that reaches the last candidate (unreached is farther)
        front = self.col_bits[col]
        unseen = ~front
        left = np.zeros(len(front) * 64, dtype=bool)
        left[cand] = True
        left = np.packbits(left, bitorder="little").view("<u8")
        while True:
            new = np.bitwise_or.reduce(self.adj[_rows(front)], axis=0) & unseen
            unseen ^= new
            left &= unseen
            if not np.count_nonzero(left) or not np.count_nonzero(new):
                break
            front = new
        return _unpack(left if np.count_nonzero(left) else new)[cand] == 1

    def place(self, col: int, candidates: np.ndarray) -> None:
        """Connect col to an admissible row, keeping target degrees.

        Rows still under their target fill are used when any exist
        (overflow only when every admissible row is full). Among those the
        row at maximal graph distance from col wins, ties broken by lowest
        fill, remaining ties by seeded RNG. Rows in another component than
        col are unreachable, hence the farthest, and need no search."""
        if len(candidates) == 0:
            raise ConstructionError(f"column {col}: no admissible check row")
        cand = candidates[_unpack(self.col_bits[col])[candidates] == 0]
        if len(cand) == 0:
            raise ConstructionError(f"column {col}: admissible rows exhausted")
        under = cand[self.row_fill[cand] < self.lay.row_target[cand]]
        if len(under):
            cand = under
        far = self.row_comp[cand] != self.col_comp[col]
        if not far.any():
            far = self._farthest(col, cand)
        fill = self.row_fill[cand]
        pool = cand[far & (fill == fill[far].min())]
        row = int(pool[self.rng.integers(0, len(pool))]) if len(pool) > 1 else int(pool[0])
        self.add_edge(row, col)


def _unpack(words: np.ndarray) -> np.ndarray:
    """One uint8 0/1 per bit of a row of little-endian words."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")


def _rows(words: np.ndarray) -> np.ndarray:
    """Indices of the set bits of a row of little-endian words."""
    return _unpack(words).nonzero()[0]


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
    return _total_bits(_plan(ens, n_bits).var_groups)


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

    cols = sorted(range(peg.n), key=lambda c: (lay.col_target[c], c))
    for c in cols:
        need = int(lay.col_target[c]) - int(peg.col_deg[c])
        if need <= 0:
            continue
        if c >= n_info:
            t = c - n_info
            candidates = np.arange(block_start[t], t, dtype=np.int64)
        else:  # the rows of groups at least the column's
            candidates = np.arange(np.searchsorted(lay.check_groups, lay.var_groups[c]), m)
        for _ in range(need):
            peg.place(c, candidates)

    edge_row = np.array([r for r, _ in peg.edges], dtype=np.int64)
    edge_col = np.array([c for _, c in peg.edges], dtype=np.int64)
    srt = np.lexsort((edge_row, edge_col))
    edge_row, edge_col = edge_row[srt], edge_col[srt]
    # only edges joining two orders draw a map; the identity consumes no
    # random numbers, so skipping the draw leaves the rng stream unchanged
    maps = [
        identity_map(qv) if qv == qc else random_injective_map(rng, qv, qc)
        for qv, qc in zip(lay.var_groups[edge_col].tolist(),
                          lay.check_groups[edge_row].tolist())
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
    codes = {id(mp): mp.code() for mp in {id(mp): mp for mp in code.edge_maps}.values()}
    tokens = [f"{r + 1}:{codes[id(mp)]}" for r, mp in zip(code.edge_row.tolist(), code.edge_maps)]
    by_col, by_row = [""] * code.n, [""] * code.m
    for _i, _q, cols, edges in code.node_classes[0]:
        for c, es in zip(cols.tolist(), edges.tolist()):
            by_col[c] = " ".join(tokens[e] for e in es)
    for _j, _q, rows, edges in code.node_classes[1]:
        for r, cs in zip(rows.tolist(), np.sort(code.edge_col[edges], axis=1).tolist()):
            by_row[r] = " ".join(str(c + 1) for c in cs)
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
    lines += by_col + by_row
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
        line = get(idx)
        try:
            vals = [int(tok) for tok in line.split()]
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
    max_deg = ints(5, 2)
    col_deg = ints(6, n)
    row_deg = ints(7, m)
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
    # the header's degrees must describe the edges read; the row lines
    # repeat the edges, so only their presence is checked
    edges_per_row = np.bincount(np.array(erow, dtype=np.int64), minlength=m)
    seen = [max(col_deg, default=0), int(edges_per_row.max(initial=0))]
    if max_deg != seen:
        raise AlistParseError(6, f"max degrees {max_deg[0]} {max_deg[1]}, "
                                 f"edges give {seen[0]} {seen[1]}")
    bad = np.flatnonzero(edges_per_row != row_deg)
    if bad.size:
        r = int(bad[0])
        raise AlistParseError(8, f"row {r}: {edges_per_row[r]} edges, degree says {row_deg[r]}")
    get(7 + n + m)
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
