"""Degree distribution bookkeeping for hybrid LDPC ensembles.

An ensemble is described by the detailed edge distribution pi(i, j, k, l):
the probability that a uniformly drawn edge of the Tanner graph connects a
variable node of degree i in the group of order q_k to a check node of
degree j in the group of order q_l. Group orders are powers of two and an
edge never goes from a larger variable group to a smaller check group.

The module provides the marginals and conditionals of pi used by density
evolution, the edge-to-node perspective conversion and the code rate by
the general node-proportion formula.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from hybridldpc.groups import validate_order

MASS_TOL = 1e-12

__all__ = [
    "Ensemble",
    "fixture_path",
    "node_proportions",
]

_FORMAT = "hybrid-ensemble-1"


def fixture_path(name: str) -> str:
    """Path of a packaged ensemble fixture, by bare name."""
    return os.path.join(os.path.dirname(__file__), "data", "fixtures",
                        name + ".json")


class EnsembleError(ValueError):
    pass


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
        try:
            orders = [validate_order(q) for q in self.groups]
        except (TypeError, ValueError) as exc:
            raise EnsembleError(str(exc)) from None
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

    def rate(self) -> float:
        """Design rate: information bits over all bits of the node
        fractions (see ``node_proportions``)."""
        info, red = node_proportions(self)
        num = sum(f * math.log2(q) for q, f in info.items())
        den = sum(f * math.log2(q) for part in (info, red) for q, f in part.items())
        return num / den

    # ---------------- serialization ----------------

    def to_json_dict(self) -> dict:
        return {
            "format": _FORMAT,
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
        if not isinstance(doc, Mapping):
            raise EnsembleError("ensemble document is not a JSON object")
        if doc.get("format") != _FORMAT:
            raise EnsembleError(
                f"ensemble format {doc.get('format')!r}, expected {_FORMAT!r}")
        if not isinstance(doc.get("pi"), list):
            raise EnsembleError("ensemble document has no pi rows")
        if not isinstance(doc.get("groups"), list):
            raise EnsembleError("ensemble document has no groups list")
        pi = {}
        for row in doc["pi"]:
            try:
                i, j, qk, ql, m = row
                pi[(int(i), int(j), int(qk), int(ql))] = float(m)
            except (TypeError, ValueError):
                raise EnsembleError(
                    f"pi row {row!r} is not five numbers [i, j, q_k, q_l, mass]") from None
        return cls(tuple(doc["groups"]), pi, name=str(doc.get("name", "")))

    @classmethod
    def load(cls, path: str) -> "Ensemble":
        """Read an ensemble file: an EnsembleError names the file, and a
        file that is not JSON raises one."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise EnsembleError(f"{path}: not JSON: {exc}") from None
        try:
            return cls.from_json_dict(doc)
        except EnsembleError as exc:
            raise EnsembleError(f"{path}: {exc}") from None

    @classmethod
    def from_factored(
        cls,
        groups: Sequence[int],
        lambda_: Mapping[int, float],
        rho: Mapping[int, float],
        gamma: Mapping[int, Mapping[int, float]],
        name: str = "",
    ) -> "Ensemble":
        """Build pi from the factored form lambda_i * gamma(k|i) * rho_j,
        every check in the largest group.

        ``gamma[i][q]`` is the group profile of degree-i edges and ``rho``
        maps check degree to mass: the factored family used for
        optimization.
        """
        groups = tuple(sorted(validate_order(q) for q in set(groups)))
        q_check = groups[-1]
        for dist, what in ((lambda_, "lambda"), (rho, "rho")):
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
                    pi[(int(i), int(j), int(qk), q_check)] = li * gik * rj
        return cls(groups, pi, name=name)


def node_proportions(ens: Ensemble) -> tuple[dict[int, float], dict[int, float]]:
    """Node fractions of a codeword per group order, as (information,
    redundancy), each ascending in order without fractions at or below
    ``MASS_TOL``.

    One redundancy column exists per check row (triangular structure), in
    the row's group. The redundancy node fraction per group therefore equals
    the check-node fraction per group, scaled by checks-per-variable; the
    information fraction is the rest of the group's variable nodes.
    """
    var_nodes = sum(m / i for (i, _j, _qk, _ql), m in ens.pi.items())
    red: dict[int, float] = {}
    for (_i, j, _qk, ql), m in ens.pi.items():
        red[ql] = red.get(ql, 0.0) + (m / j) / var_nodes
    info = ens.var_group_node_fractions()
    for q, f in red.items():
        have = info.get(q, 0.0)
        if f > have + 1e-9:
            raise EnsembleError(
                f"group {q} hosts redundancy fraction {f:.6f} but only "
                f"{have:.6f} of the nodes; triangular structure infeasible"
            )
        info[q] = have - f
    return ({q: f for q, f in sorted(info.items()) if f > MASS_TOL},
            {q: f for q, f in sorted(red.items()) if f > MASS_TOL})
