"""Principal's problem: maximize an increasing objective over Luce contracts.

Some Luce contract is always optimal, and Luce contracts with a unit budget
implement exactly the profiles p with z(p) <= 1 that pass the subset
inequality. So the search runs over profiles, and `synthesize_luce` turns the
optimum into its contract. The worst subset at p is a prefix of the agents
sorted by s_i / q_i (s_i = p_i c_i'(p_i), q_i = -log(1 - p_i)); that sort is
discontinuous, so the local solver (SLSQP, or COBYLA for custom objectives)
sees cutting planes instead, one fixed subset added per solve. The search
starts from the equilibrium of the equal-weights single-tier contract, and
seeded random single-tier starts are drawn only when a start fails. No 2^n
table is built: the starts are found with the table-free gains that
synthesis uses. A two-agent quadratic-cost closed form is provided for
cross-checking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Contract, CostModel, LuceSpec, Profile
from .equilibrium import SolverOptions, _iterate
from .errors import (
    ContractGameError,
    NoConvergence,
    NotAdmissible,
    ObjectiveNotIncreasing,
    ParameterOutOfRange,
)
from .luce import _tier_gains, _tier_nodes, required_budget, synthesize_luce
from .maximal import _ACCEPT_TOL, _CUT_TOL, _SNAP_TOL, _prefix_gaps

_STARTS = 8
# Best-response sweeps for a start stop at this residual, as find_equilibria
# does by default; a start only seeds the local solver. A start still short
# of it after _START_SWEEPS sweeps is counted as failed.
_START_TOL = 1e-10
_START_SWEEPS = 10_000
_MAX_CUT_ROUNDS = 50
# Profiles stay this far inside (0, 1): synthesis needs interior profiles,
# and the constraints take log(1 - p).
_EDGE = 1e-6


@dataclass(frozen=True)
class Objective:
    """Principal's objective over success profiles; must be increasing."""

    kind: str
    weights: tuple[float, ...] | None = None
    fn: Callable[[Sequence[float]], float] | None = None

    @classmethod
    def linear(cls, weights: Sequence[float]) -> "Objective":
        w = tuple(float(x) for x in weights)
        if any(x <= 0 for x in w):
            raise ValueError("linear objective weights must be positive")
        return cls(kind="linear", weights=w)

    @classmethod
    def custom(cls, fn: Callable[[Sequence[float]], float]) -> "Objective":
        """Caller asserts fn is strictly increasing in every coordinate."""
        return cls(kind="custom", fn=fn)

    def value(self, p: Sequence[float]) -> float:
        if self.kind == "linear":
            return float(np.dot(self.weights, np.asarray(p, dtype=float)))
        return float(self.fn(tuple(p)))


@dataclass(frozen=True)
class Optimum:
    """The optimal contract and its equilibrium. `search_trace` counts the local
    solver's objective evaluations, `failed_starts` the starts that failed
    before the one that produced this contract.

    The contract is `expand_luce(spec, n, budget)`, and `equilibrium` is the
    profile it was synthesized from, with best-response residual at most
    1e-10 under that contract. `budget` is 1 up to rounding when the
    objective is increasing, and below 1 when an optimum with z(p) < 1
    needs less than the whole budget.
    """

    spec: LuceSpec
    equilibrium: Profile
    value: float
    search_trace: int
    failed_starts: int = 0
    budget: float = 1.0


def _probe_increasing(objective: Objective, n: int) -> None:
    if objective.kind != "custom":
        return
    base = np.full(n, 0.3)
    v0 = objective.value(base)
    for i in range(n):
        bumped = base.copy()
        bumped[i] += 0.05
        if objective.value(bumped) < v0 - 1e-12:
            warnings.warn(
                f"objective decreased along coordinate {i}; the search assumes "
                "a strictly increasing objective",
                ObjectiveNotIncreasing,
            )
            return


class _ProfileSearch:
    """The profile-space problem for one objective and cost model.

    Subsets are rows of 0/1 masks. `cuts` only grows, and each cut holds
    everywhere, so a fallback start keeps the cuts of the starts before it.
    """

    def __init__(self, objective: Objective, costs: CostModel):
        self.objective = objective
        self.costs = costs
        self.n = costs.n
        self.cuts = np.zeros((0, self.n))
        self.evals = 0

    def spend(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """s_i = p_i c_i'(p_i) and ds_i / dp_i (exact for power costs)."""
        m = self.costs.marginal_vec(p)
        if self.costs._power_exp is not None:
            return p * m, self.costs._power_exp * m
        h = 1e-7
        curvature = (self.costs.marginal_vec(p + h) - self.costs.marginal_vec(p - h)) / (2 * h)
        return p * m, m + p * curvature

    def rows(self, p: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """1 - z(p), then rhs - lhs of the subset inequality per mask, with the Jacobian.

        z = sum_i s_i + prod_i (1 - p_i), rhs = P[S meets I] / P[S nonempty]
        and lhs = s_I / sum_i s_i.
        """
        s, ds = self.spend(p)
        fail_i = np.exp(masks @ np.log1p(-p))
        fail = float(np.prod(1.0 - p))
        spend = float(s.sum())
        rhs = (1.0 - fail_i) / (1.0 - fail)
        lhs = masks @ s / spend
        jac = ((masks * fail_i[:, None] - rhs[:, None] * fail) / (1.0 - fail) / (1.0 - p)
               - ds * (masks - lhs[:, None]) / spend)
        return (np.concatenate([[1.0 - spend - fail], rhs - lhs]),
                np.vstack([fail / (1.0 - p) - ds, jac]))

    def feasible(self, p: np.ndarray) -> bool:
        """z(p) <= 1 and the subset inequality, each within _ACCEPT_TOL."""
        _, _, _, gap, z_slack = _prefix_gaps(p, self.costs)
        return bool(np.all(np.isfinite(p)) and z_slack >= -_ACCEPT_TOL
                    and np.all(gap >= -_ACCEPT_TOL))

    def local(self, p0: np.ndarray, equal: np.ndarray) -> np.ndarray:
        """One local solve under z <= 1, the cuts, and `equal` held tight.

        SLSQP can stop a hair outside an active constraint (status 8), so
        two Gauss-Newton steps then project onto the violated inequalities
        and the equalities. scipy is imported here, the only place that
        needs it, so importing the package does not load it.
        """
        from scipy.optimize import minimize

        k = 1 + len(self.cuts)
        masks = np.vstack([self.cuts, equal])
        last: list = [None, None]  # the solver asks for values and Jacobian separately

        def rows(p):
            if last[0] is None or not np.array_equal(last[0], p):
                last[:] = p.copy(), self.rows(p, masks)
            return last[1]

        constraints = [{"type": "ineq", "fun": lambda p: rows(p)[0][:k],
                        "jac": lambda p: rows(p)[1][:k]}]
        if len(equal):
            constraints.append({"type": "eq", "fun": lambda p: rows(p)[0][k:],
                                "jac": lambda p: rows(p)[1][k:]})
        bounds = [(_EDGE, 1.0 - _EDGE)] * self.n
        if self.objective.kind == "linear":
            w = np.array(self.objective.weights) / sum(self.objective.weights)
            res = minimize(lambda p: (-float(w @ p), -w), p0, jac=True, method="SLSQP",
                           bounds=bounds, constraints=constraints,
                           options={"ftol": 1e-15, "maxiter": 500})
        else:
            res = minimize(lambda p: -self.objective.value(np.clip(p, _EDGE, 1.0 - _EDGE)),
                           p0, method="COBYLA", bounds=bounds, constraints=constraints,
                           options={"rhobeg": 0.05, "tol": 1e-12, "catol": 1e-14, "maxiter": 5000})
        self.evals += int(res.nfev)
        p = np.clip(res.x, _EDGE, 1.0 - _EDGE)
        for _ in range(2):
            values, jac = rows(p)
            active = values < 0.0
            active[k:] = True
            if not np.all(np.isfinite(values)) or not active.any():
                break
            step = np.linalg.lstsq(jac[active], -values[active], rcond=None)[0]
            p = np.clip(p + step, _EDGE, 1.0 - _EDGE)
        return p

    def solve(self, p0: np.ndarray) -> np.ndarray:
        """Local solves, each followed by a cut on the most violated prefix."""
        p = p0
        for _ in range(_MAX_CUT_ROUNDS):
            p = self.local(p, np.zeros((0, self.n)))
            order, _, _, gap, _ = _prefix_gaps(p, self.costs)
            worst = int(np.argmin(gap))
            if gap[worst] >= -_CUT_TOL:
                break
            cut = _prefix_rows(order, [worst])
            if any(np.array_equal(cut[0], row) for row in self.cuts):
                break
            self.cuts = np.vstack([self.cuts, cut])
        return p

    def contract(self, p: np.ndarray) -> tuple[LuceSpec, np.ndarray] | None:
        """The Luce spec implementing p after its near-tight prefixes are held tight.

        Prefixes within _SNAP_TOL of tight are snapped. The snapped profile
        is tried first if it is feasible and no worse, and p first
        otherwise; the other is tried when synthesis fails on the first.
        Returns None when synthesis fails on both.
        """
        order, _, _, gap, _ = _prefix_gaps(p, self.costs)
        near = _prefix_rows(order, np.flatnonzero(gap[:-1] <= _SNAP_TOL))
        candidates = [p]
        if len(near):
            snapped = self.local(p, near)
            if self.feasible(snapped):
                value = self.objective.value(p)
                worse = self.objective.value(snapped) < value - 1e-12 * max(1.0, abs(value))
                candidates = [p, snapped] if worse else [snapped, p]
        for q in candidates:
            try:
                return synthesize_luce(q, self.costs).spec, q
            except ContractGameError:
                pass
        return None


def _prefix_rows(order: np.ndarray, ends: Sequence[int]) -> np.ndarray:
    """0/1 rows of the prefixes order[:k + 1] for each k in `ends`."""
    return (np.argsort(order)[None, :] <= np.asarray(ends)[:, None]).astype(float)


def _single_tier_equilibrium(w: np.ndarray, costs: CostModel) -> np.ndarray | None:
    """The equilibrium of the unit-budget single-tier contract with weights w.

    find_equilibria's secant-accelerated sweeps from the origin, as a batch
    of one, with the table-free gains that synthesis uses, until
    max |BR(p) - p| <= _START_TOL. The quadrature's weight-only terms are
    computed once. None when _START_SWEEPS sweeps do not get there.
    """
    nodes = _tier_nodes(w)
    opts = SolverOptions(tolerance=_START_TOL, max_iterations=_START_SWEEPS)
    profiles, _, _, converged = _iterate(
        lambda p: costs.inverse_marginal_vec(_tier_gains(nodes, p[0]))[None],
        np.zeros((1, len(w))), opts)
    return profiles[0] if converged[0] else None


def _starts(costs: CostModel, seed: int | None) -> Iterator[np.ndarray | None]:
    """Equilibria of single-tier contracts: equal weights, then seeded random ones.

    Each is computed when it is asked for, so a search that succeeds from the
    equal-weights start draws nothing from the generator. A start whose
    sweeps did not converge is None.
    """
    n = costs.n
    rng = np.random.default_rng(seed)
    for k in range(_STARTS if n > 1 else 1):
        w = np.ones(n) if k == 0 else np.exp(rng.normal(size=n))
        p = _single_tier_equilibrium(w, costs)
        yield None if p is None else np.clip(p, _EDGE, 1.0 - _EDGE)


def optimize_principal(objective: Objective, costs: CostModel,
                       seed: int | None = 0) -> Optimum:
    """Maximize the objective over the profiles that Luce contracts implement.

    Runs the cutting-plane search from the equilibrium of the equal-weights
    single-tier contract. If that start fails, the next start is the
    equilibrium of a single-tier contract with lognormal weights drawn with
    `seed`, up to 8 starts in all; the first result that passes the
    feasibility check and synthesizes is returned. `synthesize_luce`
    recovers the contract, whose equilibrium residual it holds to 1e-10;
    the returned equilibrium is the synthesized profile, and `value` is the
    objective there. A start whose best-response sweeps do not converge, a
    result outside the feasible set, and a result that cannot be
    synthesized each count as a failed start. No 2^n table is built, so
    any number of agents is accepted.

    Raises NoConvergence when no start yields a contract, and NotAdmissible
    unless c_i'(1) > 1 for every agent: a lone successful agent of a
    single-tier contract gains the whole unit budget.
    """
    c_one = costs.marginal_at_one()
    if np.any(c_one <= 1.0):
        i = int(np.argmin(c_one))
        raise NotAdmissible(f"agent {i}: c'(1) = {c_one[i]:.6g} does not exceed the unit budget; "
                            "small-budget admissibility violated")
    _probe_increasing(objective, costs.n)
    search = _ProfileSearch(objective, costs)
    failed = 0
    for p0 in _starts(costs, seed):
        p = None if p0 is None else search.solve(p0)
        made = search.contract(p) if p is not None and search.feasible(p) else None
        if made is not None:
            spec, q = made
            return Optimum(spec, Profile(tuple(q)), objective.value(q), search.evals, failed,
                           required_budget(q, costs))
        failed += 1
    raise NoConvergence(f"none of {failed} starts produced a feasible, synthesizable optimum")


# ---------------------------------------------------------------------------
# Two agents, quadratic costs: closed forms
# ---------------------------------------------------------------------------

def _check_two_agent(c1: float, c2: float) -> None:
    if not (c1 > 1 and c2 > 1):
        raise ParameterOutOfRange(f"quadratic scales must exceed 1, got ({c1}, {c2})")


def two_agent_sge(lam: float, budget: float = 1.0) -> Contract:
    """The n=2 budget-exhausting contract with agent 1's joint share lam."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterOutOfRange(f"share must lie in [0, 1], got {lam}")
    table = np.zeros((4, 2))
    table[0b01] = (1.0, 0.0)
    table[0b10] = (0.0, 1.0)
    table[0b11] = (lam, 1.0 - lam)
    return Contract(2, table, budget)


def two_agent_equilibrium(c1: float, c2: float, lam: float) -> tuple[float, float]:
    """Unique equilibrium of the lam-contract under costs (c_i/2) p^2."""
    _check_two_agent(c1, c2)
    if not 0.0 <= lam <= 1.0:
        raise ParameterOutOfRange(f"share must lie in [0, 1], got {lam}")
    den = c1 * c2 - lam * (1.0 - lam)
    return (c2 - (1.0 - lam)) / den, (c1 - lam) / den


def two_agent_equilibrium_derivatives(c1: float, c2: float, lam: float) -> tuple[float, float]:
    """d/d lam of the two equilibrium coordinates."""
    _check_two_agent(c1, c2)
    den = (c1 * c2 - lam * (1.0 - lam)) ** 2
    dp1 = (c1 * c2 - c2 * (2.0 * lam - 1.0) - (1.0 - lam) ** 2) / den
    dp2 = (-c1 * c2 - c1 * (2.0 * lam - 1.0) + lam ** 2) / den
    return dp1, dp2


def lambda_thresholds(c1: float, c2: float) -> tuple[float, float]:
    """Objective-weight thresholds below/above which the corners are optimal."""
    _check_two_agent(c1, c2)
    lower = (c1 * c2 - c1) / (c1 * c2 + c2 - 1.0)
    upper = (c1 * c2 + c1 - 1.0) / (c1 * c2 - c2)
    return lower, upper


def two_agent_optimal_lambda(c1: float, c2: float, w: float) -> float:
    """Optimal joint share for the objective w p_1 + p_2.

    Corner solutions bind at the closed-form thresholds. In between, the
    optimum is the root in [0, 1] of dp2/dp1 = -w, which is the quadratic
    a lam^2 - 2 b lam + c = 0 with a = 1 - w, b = c1 + w (c2 - 1) > 0 and
    c = c1 + c2 - 1 - a (c1 c2 + c2 - 1). That root is taken without
    cancellation as c / (b + sqrt(b^2 - a c)); at w = 1, a = 0 and it is
    exactly 1/2 for any costs. Next to a threshold, rounding can carry the
    root a few ulps outside [0, 1], so it is clipped. Increasing in w.
    """
    _check_two_agent(c1, c2)
    if not w > 0:
        raise ParameterOutOfRange(f"objective weight must be positive, got {w}")
    lower, upper = lambda_thresholds(c1, c2)
    if w <= lower:
        return 0.0
    if w >= upper:
        return 1.0
    a = 1.0 - w
    s = c1 + c2 - 1.0
    b = s - a * (c2 - 1.0)
    c = s - a * (c1 * c2 + c2 - 1.0)
    return min(1.0, max(0.0, c / (b + math.sqrt(b * b - a * c))))
