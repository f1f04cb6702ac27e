"""Degree distribution bookkeeping for hybrid LDPC ensembles.

An ensemble is described by the detailed edge distribution pi(i, j, k, l):
the probability that a uniformly drawn edge of the Tanner graph connects a
variable node of degree i in the group of order q_k to a check node of
degree j in the group of order q_l. Group orders are powers of two and an
edge never goes from a larger variable group to a smaller check group.

The module provides the marginals and conditionals of pi used by density
evolution, the edge-to-node perspective conversion, and the three code rate
formulas (general node-proportion form, variable-profile form, regular
form), which agree wherever more than one applies.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from hybridldpc.groups import validate_order

MASS_TOL = 1e-12

__all__ = [
    "Ensemble",
    "NodeProportions",
    "fixture_path",
    "node_proportions",
    "rate_general",
    "rate_lambda_profile",
    "rate_regular",
]


def fixture_path(name: str) -> str:
    """Path of a packaged ensemble fixture, by bare name."""
    return os.path.join(os.path.dirname(__file__), "data", "fixtures",
                        name + ".json")


class EnsembleError(ValueError):
    pass


def _norm_items(d: Mapping) -> dict:
    out = {}
    for key, v in d.items():
        out[int(key)] = float(v)
    return out


@dataclass(frozen=True)
class Ensemble:
    """Detailed edge-degree distribution of a hybrid LDPC ensemble.

    ``pi`` maps (var_degree, check_degree, var_order, check_order) to edge
    probability mass. Orders appear in ``groups`` sorted ascending.
    """

    groups: tuple[int, ...]
    pi: dict[tuple[int, int, int, int], float]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.groups:
            raise EnsembleError("ensemble needs at least one group")
        orders = [validate_order(q) for q in self.groups]
        if list(orders) != sorted(set(orders)):
            raise EnsembleError("groups must be distinct and sorted ascending")
        object.__setattr__(self, "groups", tuple(orders))
        clean: dict[tuple[int, int, int, int], float] = {}
        total = 0.0
        for (i, j, qk, ql), mass in self.pi.items():
            i, j, qk, ql = int(i), int(j), int(qk), int(ql)
            mass = float(mass)
            if mass < -MASS_TOL:
                raise EnsembleError(f"negative mass {mass} on class {(i, j, qk, ql)}")
            if mass <= 0.0:
                continue
            if i < 1 or j < 1:
                raise EnsembleError(f"degrees must be >= 1, got {(i, j)}")
            if qk not in self.groups or ql not in self.groups:
                raise EnsembleError(f"class {(i, j, qk, ql)} uses an order outside groups")
            if qk > ql:
                raise EnsembleError(
                    f"class {(i, j, qk, ql)}: variable group exceeds check group"
                )
            clean[(i, j, qk, ql)] = clean.get((i, j, qk, ql), 0.0) + mass
            total += mass
        if abs(total - 1.0) > 1e-9:
            raise EnsembleError(f"edge masses sum to {total!r}, expected 1")
        # renormalize residual float error so downstream sums are clean
        clean = {key: v / total for key, v in clean.items()}
        object.__setattr__(self, "pi", clean)

    # ---------------- marginals ----------------

    def lambda_marginal(self) -> dict[int, float]:
        """Edge mass per variable degree."""
        out: dict[int, float] = {}
        for (i, _j, _qk, _ql), m in self.pi.items():
            out[i] = out.get(i, 0.0) + m
        return dict(sorted(out.items()))

    def rho_marginal(self) -> dict[int, float]:
        """Edge mass per check degree."""
        out: dict[int, float] = {}
        for (_i, j, _qk, _ql), m in self.pi.items():
            out[j] = out.get(j, 0.0) + m
        return dict(sorted(out.items()))

    def pi_var(self) -> dict[tuple[int, int], float]:
        """Edge mass per (variable degree, variable order) class."""
        out: dict[tuple[int, int], float] = {}
        for (i, _j, qk, _ql), m in self.pi.items():
            out[(i, qk)] = out.get((i, qk), 0.0) + m
        return dict(sorted(out.items()))

    def pi_check(self) -> dict[tuple[int, int], float]:
        """Edge mass per (check degree, check order) class."""
        out: dict[tuple[int, int], float] = {}
        for (_i, j, _qk, ql), m in self.pi.items():
            out[(j, ql)] = out.get((j, ql), 0.0) + m
        return dict(sorted(out.items()))

    # ---------------- conditionals ----------------

    def gamma_given_degree(self, degree: int) -> dict[int, float]:
        """Group profile of edges conditioned on the variable degree."""
        li = self.lambda_marginal().get(degree, 0.0)
        if li <= 0.0:
            raise EnsembleError(f"no edge mass at variable degree {degree}")
        out: dict[int, float] = {}
        for (i, _j, qk, _ql), m in self.pi.items():
            if i == degree:
                out[qk] = out.get(qk, 0.0) + m / li
        return dict(sorted(out.items()))

    def var_class_given_check_class(
        self, j: int, ql: int
    ) -> dict[tuple[int, int], float]:
        """Distribution of the (i, q_k) class at the far end of an edge
        known to sit on a (j, q_l) check class."""
        denom = self.pi_check().get((j, ql), 0.0)
        if denom <= 0.0:
            raise EnsembleError(f"no edge mass on check class {(j, ql)}")
        out: dict[tuple[int, int], float] = {}
        for (i, jj, qk, qll), m in self.pi.items():
            if jj == j and qll == ql:
                out[(i, qk)] = out.get((i, qk), 0.0) + m / denom
        return dict(sorted(out.items()))

    def check_class_given_var_class(
        self, i: int, qk: int
    ) -> dict[tuple[int, int], float]:
        """Distribution of the (j, q_l) class at the far end of an edge
        known to sit on an (i, q_k) variable class."""
        denom = self.pi_var().get((i, qk), 0.0)
        if denom <= 0.0:
            raise EnsembleError(f"no edge mass on variable class {(i, qk)}")
        out: dict[tuple[int, int], float] = {}
        for (ii, j, qkk, ql), m in self.pi.items():
            if ii == i and qkk == qk:
                out[(j, ql)] = out.get((j, ql), 0.0) + m / denom
        return dict(sorted(out.items()))

    # ---------------- node perspective and rate ----------------

    def var_group_node_fractions(self) -> dict[int, float]:
        """Node-wise group proportions: fraction of variable nodes per order.

        Edge mass divided by degree makes mass proportional to node counts.
        """
        acc: dict[int, float] = {}
        for (i, _j, qk, _ql), m in self.pi.items():
            acc[qk] = acc.get(qk, 0.0) + m / i
        total = sum(acc.values())
        return {q: v / total for q, v in sorted(acc.items())}

    def avg_inverse_var_degree(self) -> float:
        return sum(m / i for (i, _j, _qk, _ql), m in self.pi.items())

    def rate(self) -> float:
        """Design rate via the general node-proportion formula."""
        return rate_general(node_proportions(self))

    # ---------------- serialization ----------------

    def to_json_dict(self) -> dict:
        return {
            "format": "hybrid-ensemble-1",
            "name": self.name,
            "groups": list(self.groups),
            "pi": [
                [i, j, qk, ql, m]
                for (i, j, qk, ql), m in sorted(self.pi.items())
            ],
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Ensemble":
        if "pi" in doc:
            pi = {
                (int(i), int(j), int(qk), int(ql)): float(m)
                for i, j, qk, ql, m in doc["pi"]
            }
            return cls(tuple(doc["groups"]), pi, name=str(doc.get("name", "")))
        return cls.from_factored(
            groups=tuple(doc["groups"]),
            lambda_=_norm_items(doc["lambda"]),
            rho=_norm_items(doc["rho"]),
            gamma={int(i): _norm_items(g) for i, g in doc["gamma"].items()},
            check_groups=_norm_items(doc["check_groups"]) if "check_groups" in doc else None,
            name=str(doc.get("name", "")),
        )

    @classmethod
    def load(cls, path: str) -> "Ensemble":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    @classmethod
    def from_factored(
        cls,
        groups: Sequence[int],
        lambda_: Mapping[int, float],
        rho: Mapping[int, float],
        gamma: Mapping[int, Mapping[int, float]],
        check_groups: Mapping[int, float] | None = None,
        name: str = "",
    ) -> "Ensemble":
        """Build pi from the factored form lambda_i * gamma(k|i) * rho(j,l).

        ``gamma[i][q]`` is the group profile of degree-i edges. ``rho`` maps
        check degree to mass; ``check_groups`` maps check order to mass
        (default: all check mass in the largest group). The check side is
        taken independent of (j): rho(j, l) = rho_j * check_groups_l, which
        is the factored family used for optimization.
        """
        groups = tuple(sorted(validate_order(q) for q in set(groups)))
        if check_groups is None:
            check_groups = {groups[-1]: 1.0}
        for dist, what in ((lambda_, "lambda"), (rho, "rho"), (check_groups, "check_groups")):
            s = sum(dist.values())
            if abs(s - 1.0) > 1e-9:
                raise EnsembleError(f"{what} masses sum to {s!r}, expected 1")
        pi: dict[tuple[int, int, int, int], float] = {}
        for i, li in lambda_.items():
            if li <= 0:
                continue
            gi = gamma.get(i)
            if gi is None:
                raise EnsembleError(f"gamma profile missing for degree {i}")
            gs = sum(gi.values())
            if abs(gs - 1.0) > 1e-9:
                raise EnsembleError(f"gamma[{i}] sums to {gs!r}, expected 1")
            for qk, gik in gi.items():
                if gik <= 0:
                    continue
                for j, rj in rho.items():
                    if rj <= 0:
                        continue
                    for ql, cl in check_groups.items():
                        if cl <= 0:
                            continue
                        pi[(int(i), int(j), int(qk), int(ql))] = li * gik * rj * cl
        return cls(groups, pi, name=name)


@dataclass(frozen=True)
class NodeProportions:
    """Node classes of a codeword: group order and node fraction per class,
    information classes first. ``n_info`` counts the information classes.

    The same group order may appear once in the information range and once
    in the redundancy range (information and redundancy sharing an order).
    """

    orders: tuple[int, ...]
    fractions: tuple[float, ...]
    n_info: int

    def __post_init__(self) -> None:
        if len(self.orders) != len(self.fractions):
            raise EnsembleError("orders and fractions length mismatch")
        if not 0 <= self.n_info <= len(self.orders):
            raise EnsembleError("n_info out of range")
        for q in self.orders:
            validate_order(q)
        if any(f < -MASS_TOL for f in self.fractions):
            raise EnsembleError("negative node fraction")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise EnsembleError("node fractions must sum to 1")
        info = self.orders[: self.n_info]
        red = self.orders[self.n_info:]
        if list(info) != sorted(info) or list(red) != sorted(red):
            raise EnsembleError("node classes must be sorted ascending within each range")


def node_proportions(ens: Ensemble) -> NodeProportions:
    """Split node-wise group proportions into information and redundancy.

    One redundancy column exists per check row (triangular structure), in
    the row's group. The redundancy node fraction per group therefore equals
    the check-node fraction per group, scaled by checks-per-variable.
    """
    var_nodes = ens.avg_inverse_var_degree()
    gamma_tilde = ens.var_group_node_fractions()
    red: dict[int, float] = {}
    for (_i, j, _qk, ql), m in ens.pi.items():
        red[ql] = red.get(ql, 0.0) + (m / j) / var_nodes
    info: dict[int, float] = dict(gamma_tilde)
    for q, f in red.items():
        have = info.get(q, 0.0)
        if f > have + 1e-9:
            raise EnsembleError(
                f"group {q} hosts redundancy fraction {f:.6f} but only "
                f"{have:.6f} of the nodes; triangular structure infeasible"
            )
        info[q] = have - f
    orders, fracs = [], []
    for q in sorted(info):
        if info[q] > MASS_TOL:
            orders.append(q)
            fracs.append(info[q])
    n_info = len(orders)
    for q in sorted(red):
        if red[q] > MASS_TOL:
            orders.append(q)
            fracs.append(red[q])
    return NodeProportions(tuple(orders), tuple(fracs), n_info)


def rate_general(np_: NodeProportions) -> float:
    """Rate = information bits over total bits, from node proportions."""
    num = sum(
        f * math.log2(q)
        for q, f in zip(np_.orders[: np_.n_info], np_.fractions[: np_.n_info])
    )
    den = sum(f * math.log2(q) for q, f in zip(np_.orders, np_.fractions))
    if den <= 0:
        raise EnsembleError("node proportions carry no bits")
    return num / den


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
