"""Implementability and maximality tests, plus a brute-force dominance oracle.

The key scalar is z(p) = sum_i p_i c_i'(p_i) + prod_i (1 - p_i). Any profile
implementable with a unit budget has z(p) <= 1, with equality exactly when
the implementing contract hands out the whole budget on every nonempty
outcome. The subset inequality, for every nonempty I,

    sum_{i in I} p_i c_i'(p_i) / sum_i p_i c_i'(p_i)
        <= P[S meets I] / P[S nonempty],

characterizes the profiles a Luce contract can implement; its equality cases
(the tight sets) chain into the priority partition. It is checked on n
subsets only. With s_i = p_i c_i'(p_i), q_i = -log(1 - p_i) and totals S, Q,
it reads S_I / S <= g(Q_I) for g(x) = (1 - e^-x) / (1 - e^-Q). g is concave,
hence the minimum of its tangents a + l x, and swapping the minimizations
over I and over the tangent slope l shows that the worst subset is a prefix
of the agents sorted by s_i / q_i in descending order.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Contract,
    CostModel,
    Profile,
    ProfileLike,
    as_profile,
    mask_agents,
    require_interior,
)
from .equilibrium import SolverOptions, find_equilibria
from .errors import GridTooCoarse

# Tolerances on the subset inequality, all on a prefix's gap rhs - lhs and on
# 1 - z, in increasing order. The optimizer adds cuts until no prefix is
# violated by more than _CUT_TOL and accepts a result only within
# _ACCEPT_TOL; both lie below TIGHT_TOL, so whatever the optimizer accepts
# passes the inequality here with room for rounding. Prefixes within
# _SNAP_TOL of equality, a margin the local solver's stopping rule can leave,
# are then made exactly tight, so TIGHT_TOL reads the chain the optimizer
# reached instead of one broken by solver accuracy.
_CUT_TOL = 1e-12
_ACCEPT_TOL = 1e-10
TIGHT_TOL = 1e-9
_SNAP_TOL = 1e-7


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of checking the subset inequality on the sorted prefixes.

    `worst_subset` is the mask maximizing lhs - rhs over all nonempty
    subsets (always a prefix of the s_i / q_i order), with the two sides
    recorded for it. `tight_sets` lists the prefixes where equality holds
    within tolerance, smallest first; it always contains the full set, and
    a prefix that would split agents whose ratios tie within tolerance is
    left out, so the list is a chain.
    """

    n: int
    holds: bool
    worst_subset: int
    lhs: float
    rhs: float
    tight_sets: tuple[int, ...]


def z_value(p: ProfileLike, costs: CostModel) -> float:
    """sum_i p_i c_i'(p_i) + prod_i (1 - p_i); equals 1 at budget-exhausting equilibria."""
    prof = as_profile(p, costs.n)
    arr = prof.as_array()
    return float(arr @ costs.marginal_vec(arr) + np.prod(1.0 - arr))


def implementability_necessary(p: ProfileLike, costs: CostModel) -> bool:
    """Necessary condition for implementability with a unit budget: z(p) <= 1 + TIGHT_TOL.

    Not sufficient; a profile passing this test may still fail the subset
    inequality.
    """
    return z_value(p, costs) <= 1.0 + TIGHT_TOL


def _prefix_gaps(p: np.ndarray, costs: CostModel
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The subset inequality on the n prefixes of the s_i / q_i order, for an interior array p.

    Returns the order (agents by descending s_i / q_i, ties by index), the
    ratios in that order, then per prefix, shortest first, its lhs and its
    gap rhs - lhs, and last 1 - z(p). The last prefix is the full set, with
    lhs 1 and gap 0. Every check of the inequality in the package reads
    this one computation.
    """
    spend = p * costs.marginal_vec(p)
    fail_rate = -np.log1p(-p)
    ratio = spend / fail_rate
    order = np.argsort(-ratio, kind="stable")
    lhs = np.cumsum(spend[order])
    total = lhs[-1]
    lhs /= total
    hit = -np.expm1(-np.cumsum(fail_rate[order]))  # P[S meets the prefix]
    return order, ratio[order], lhs, hit / hit[-1] - lhs, float(hit[-1] - total)


def luce_condition(p: ProfileLike, costs: CostModel) -> ConditionReport:
    """Evaluate the subset inequality on the n prefixes of the s_i / q_i order.

    The worst subset is one of them, so `holds` is exact in O(n log n), up
    to TIGHT_TOL: the inequality holds when no prefix's lhs exceeds its rhs
    by more than TIGHT_TOL, and a prefix is tight when the two sides agree
    within it. Agents whose ratios agree within relative TIGHT_TOL are kept
    together. When the inequality holds, no tight set separates agents of
    equal ratio: they add nothing to the tangent bound the set meets, so
    moving one of them across would give a subset that violates the
    inequality.
    """
    prof = require_interior(as_profile(p, costs.n))
    order, ratio, lhs, gap, _ = _prefix_gaps(prof.as_array(), costs)
    masks = list(itertools.accumulate((1 << int(i) for i in order), operator.or_))
    worst = int(np.argmin(gap))
    group_end = np.append(ratio[1:] < ratio[:-1] * (1.0 - TIGHT_TOL), True)
    tight = tuple(masks[k] for k in np.flatnonzero(group_end & (np.abs(gap) <= TIGHT_TOL)))
    return ConditionReport(
        n=prof.n,
        holds=bool(gap[worst] >= -TIGHT_TOL),
        worst_subset=masks[worst],
        lhs=float(lhs[worst]),
        rhs=float(lhs[worst] + gap[worst]),
        tight_sets=tight,
    )


def maximal_candidate(p: ProfileLike, costs: CostModel, tol: float = TIGHT_TOL) -> bool:
    """True when |z(p) - 1| <= tol and the subset inequality holds (interior p only)."""
    if abs(z_value(p, costs) - 1.0) > tol:
        return False
    return luce_condition(p, costs).holds


# ---------------------------------------------------------------------------
# Brute-force frontier and dominance oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierPoint:
    """One sampled budget-exhausting contract equilibrium."""

    params: tuple[float, ...]
    profile: Profile
    z: float


@dataclass(frozen=True)
class DominanceCheck:
    """Dominance audit of one sampled sub-budget contract equilibrium."""

    equilibrium: Profile
    slack_needed: float


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[FrontierPoint, ...]
    grid_step: float
    slack_allowed: float
    checks: tuple[DominanceCheck, ...]

    def all_dominated(self) -> bool:
        return all(c.slack_needed <= self.slack_allowed for c in self.checks)


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _sge_grid(n: int, resolution: int):
    """All budget-exhausting contracts on a share grid of the free outcomes.

    Singleton outcomes are forced (the lone successful agent takes all); each
    outcome with two or more successes gets every grid point of its share
    simplex. Yields (params, Contract); params concatenates, per free outcome
    in mask order, the shares of all members except the last.
    """
    free_masks = [m for m in range(1, 1 << n) if bin(m).count("1") >= 2]
    grids = []
    for mask in free_masks:
        k = len(mask_agents(mask))
        grids.append([np.array(c, dtype=float) / resolution for c in _compositions(resolution, k)])
    base = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        members = mask_agents(mask)
        if len(members) == 1:
            base[mask, members[0]] = 1.0
    for combo in itertools.product(*grids) if free_masks else [()]:
        table = base.copy()
        params: list[float] = []
        for mask, shares in zip(free_masks, combo):
            members = list(mask_agents(mask))
            table[mask, members] = shares
            params.extend(shares[:-1])
        yield tuple(params), Contract(n, table)


def _random_subbudget_fgn(n: int, rng: np.random.Generator) -> Contract:
    """A random FGN contract that strictly underuses the budget everywhere."""
    table = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        members = list(mask_agents(mask))
        shares = rng.dirichlet(np.ones(len(members))) * rng.uniform(0.2, 0.95)
        table[mask, members] = shares
    return Contract(n, table)


def dominated_by(frontier: tuple[FrontierPoint, ...], q: ProfileLike, slack: float = 0.0) -> bool:
    """True when some frontier point weakly dominates q coordinate-wise, up to slack."""
    arr = as_profile(q).as_array()
    return any(np.all(fp.profile.as_array() >= arr - slack) for fp in frontier)


def _slack_needed(frontier: tuple[FrontierPoint, ...], q: np.ndarray) -> float:
    """Smallest slack making some frontier point dominate q coordinate-wise."""
    best = np.inf
    for fp in frontier:
        gap = float(np.max(q - fp.profile.as_array()))
        best = min(best, max(gap, 0.0))
    return best


def brute_force_frontier(costs: CostModel, grid_resolution: int,
                         non_sge_samples: int = 0, seed: int | None = 0,
                         options: SolverOptions | None = None) -> FrontierResult:
    """Sample the maximal frontier by exhausting budget-exhausting contracts.

    Enumerates those contracts on a grid over the free share parameters (for
    two agents a single parameter, agent 1's share when both succeed), solves
    each for its equilibria, and returns every converged fixed point. When
    `non_sge_samples` > 0 it additionally draws random strictly-sub-budget
    FGN contracts and audits that each of their equilibria is coordinate-wise
    dominated by some sampled frontier point; needing more than two grid
    steps of slack raises a GridTooCoarse warning. Practical for n <= 3 only.
    """
    n = costs.n
    if n > 3:
        raise ValueError(f"frontier enumeration is limited to n <= 3, got {n}")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be at least 1")
    opts = options or SolverOptions(starts=4)
    points = [
        FrontierPoint(params, res.profile, z_value(res.profile, costs))
        for params, contract in _sge_grid(n, grid_resolution)
        for res in find_equilibria(contract, costs, opts)
        if res.converged
    ]
    grid_step = 1.0 / grid_resolution
    slack_allowed = 2.0 * grid_step
    checks: list[DominanceCheck] = []
    if non_sge_samples > 0:
        rng = np.random.default_rng(seed)
        frontier = tuple(points)
        for _ in range(non_sge_samples):
            contract = _random_subbudget_fgn(n, rng)
            for res in find_equilibria(contract, costs, opts):
                if res.converged:
                    needed = _slack_needed(frontier, res.profile.as_array())
                    checks.append(DominanceCheck(res.profile, needed))
        worst = max((c.slack_needed for c in checks), default=0.0)
        if worst > slack_allowed:
            warnings.warn(
                f"dominance verification needed slack {worst:.3g} above "
                f"2 x grid step = {slack_allowed:.3g}; refine the grid",
                GridTooCoarse,
            )
    return FrontierResult(tuple(points), grid_step, slack_allowed, tuple(checks))
