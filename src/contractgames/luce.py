"""Synthesis of the unique tiered-weights contract implementing a profile.

Given an interior profile passing the subset inequality, the implementing
contract is reconstructed in three steps: the budget comes from the exact
formula sum_i p_i c_i'(p_i) / P[S nonempty]; the priority tiers are read off
the chain of tight subsets; and the within-tier weights solve each tier's
first-order conditions r_i = c_i'(p_i) by Newton's method on log-weights,
one tier at a time, since lower tiers never move a higher tier's gains.

No 2^n table is built. By the exponential-race form of Luce choice, agent i
of tier k gains

    r_i = budget * prod_{j in higher tiers} (1 - p_j)
          * int_0^inf w_i e^{-t w_i} prod_{j in tier k, j != i} (1 - p_j + p_j e^{-t w_j}) dt,

which the trapezoid rule in x = log t evaluates on nodes shared by the whole
tier: O(L m) for the gains of m agents on L nodes, O(L m^2) for their
Jacobian. The paper proves the implementing contract unique, so no search
for another one is made; `tests/oracles.py` keeps a randomised audit of
that theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CostModel, LuceSpec, ProfileLike, as_profile, mask_agents, require_interior
from .errors import InconsistentTightSets, NoConvergence, NotLuceImplementable
from .maximal import ConditionReport, luce_condition

# Trapezoid rule in x = log t on [_LOG_T_MIN, log(_T_TAIL / min w)], weights
# scaled to a maximum of 1. The integrand is analytic in a strip about the
# real x axis, so step 0.2 is accurate to rounding; the cut-off tails hold
# at most e^-38 (about 3e-17) and 60 e^-60 of each gain.
_QUAD_STEP = 0.2
_LOG_T_MIN = -38.0
_T_TAIL = 60.0
# Newton stops once every gain is within this relative error of its target,
# or when halving the step this many times no longer reduces the error.
_GAIN_RTOL = 1e-13
_MAX_HALVINGS = 10
# A log-gain is a sigmoid in log-weight differences, so its linearization
# holds over distances of order one only: longer Newton steps are scaled
# down to this max-norm before the halving test.
_MAX_LOG_STEP = 2.0


@dataclass(frozen=True)
class SynthesisResult:
    """The implementing spec, its budget, and the audit trail."""

    spec: LuceSpec
    budget: float
    residual: float
    tight_chain: tuple[int, ...]


def required_budget(p: ProfileLike, costs: CostModel) -> float:
    """Budget needed to implement p: sum_i p_i c_i'(p_i) / P[S nonempty]."""
    prof = require_interior(as_profile(p, costs.n))
    arr = prof.as_array()
    spend = float(arr @ costs.marginal_vec(arr))
    p_any = 1.0 - float(np.prod(1.0 - arr))
    return spend / p_any


def derive_partition(report: ConditionReport) -> tuple[tuple[int, ...], ...]:
    """Turn the chain of tight subsets into ordered priority tiers.

    Tight sets must be totally ordered by inclusion, ending at the full set;
    the tiers are the successive differences along the chain. Raises
    InconsistentTightSets when two tight sets are incomparable, which signals
    that the profile is not implementable at the working tolerance.
    """
    full = (1 << report.n) - 1
    chain = sorted(set(report.tight_sets), key=lambda m: (bin(m).count("1"), m))
    if not chain or chain[-1] != full:
        raise InconsistentTightSets("tight sets must include the full agent set")
    prev = 0
    blocks: list[tuple[int, ...]] = []
    for mask in chain:
        if mask & prev != prev or mask == prev:
            raise InconsistentTightSets(
                f"tight sets are not a chain under inclusion: mask {prev} vs {mask}"
            )
        blocks.append(mask_agents(mask & ~prev))
        prev = mask
    return tuple(blocks)


def _tier_nodes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight-only terms of one tier's quadrature: t w, e^{-t w} and e^{-t w} - 1.

    Each is (L, m), one row per node. Only weight ratios matter, so the
    weights are rescaled to a maximum of 1.
    """
    w = w / w.max()
    x = np.arange(_LOG_T_MIN, np.log(_T_TAIL / w.min()), _QUAD_STEP)
    tw = np.exp(x)[:, None] * w
    return tw, np.exp(-tw), np.expm1(-tw)


def _tier_integrand(nodes: tuple[np.ndarray, ...], p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (L, m) integrand of one tier's gains on `_tier_nodes`, and g - 1."""
    tw, decay, decay_m1 = nodes
    shrink = p * decay_m1
    log_g = np.log1p(shrink)  # g_j(t) = E[e^{-t w_j B_j}] = 1 - p_j + p_j e^{-t w_j}
    return tw * decay * np.exp(log_g.sum(axis=1, keepdims=True) - log_g), shrink


def _tier_gains(nodes: tuple[np.ndarray, ...], p: np.ndarray) -> np.ndarray:
    """E[w_i / (w_i + W_i)] for each agent of one tier, in O(L m), given its `_tier_nodes`.

    W_i is the summed weight of the tier's other successful agents.
    """
    return _QUAD_STEP * _tier_integrand(nodes, p)[0].sum(axis=0)


def _tier_jacobian(w: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_tier_gains at weights w and its Jacobian in log w, in O(L m^2)."""
    nodes = _tier_nodes(w)
    tw, decay, _ = nodes
    integrand, shrink = _tier_integrand(nodes, p)
    jac = _QUAD_STEP * (integrand.T @ (-p * tw * decay / (1.0 + shrink)))
    np.fill_diagonal(jac, _QUAD_STEP * np.einsum("lm,lm->m", integrand, 1.0 - tw))
    return _QUAD_STEP * integrand.sum(axis=0), jac


def _luce_gains(partition: Sequence[Sequence[int]], weights: np.ndarray, p: np.ndarray,
                budget: float = 1.0) -> np.ndarray:
    """Every agent's marginal gain under the Luce contract, without its table."""
    r = np.empty(len(p))
    above = budget  # budget times P[no agent of a higher tier succeeds]
    for block in partition:
        idx = list(block)
        r[idx] = above * _tier_gains(_tier_nodes(weights[idx]), p[idx])
        above *= float(np.prod(1.0 - p[idx]))
    return r


def _solve_tier(log_w: np.ndarray, p: np.ndarray, target: np.ndarray,
                max_steps: int) -> np.ndarray:
    """Newton on one tier's log-weights for _tier_gains(w, p) = target.

    Scaling every weight leaves the gains unchanged, and the gains satisfy
    one linear identity (sum_i p_i gain_i = P[some tier agent succeeds]), so
    each step holds the largest weight fixed and solves the m equations in
    the other m - 1 unknowns by least squares. A step longer than
    _MAX_LOG_STEP is shortened, and one that does not reduce the error norm
    is halved.
    """
    gains, jac = _tier_jacobian(np.exp(log_w), p)
    err = np.log(gains / target)
    for _ in range(max_steps):
        if len(p) == 1 or np.max(np.abs(err)) <= _GAIN_RTOL:
            break
        free = np.arange(len(p)) != np.argmax(log_w)
        step = np.linalg.lstsq(jac[:, free] / gains[:, None], -err, rcond=None)[0]
        step *= min(1.0, _MAX_LOG_STEP / np.max(np.abs(step)))
        norm = np.linalg.norm(err)
        for _ in range(_MAX_HALVINGS + 1):
            trial = log_w.copy()
            trial[free] += step
            trial -= trial.max()
            t_gains, t_jac = _tier_jacobian(np.exp(trial), p)
            t_err = np.log(t_gains / target)
            if np.linalg.norm(t_err) < norm:
                break
            step /= 2.0
        else:
            break
        log_w, gains, jac, err = trial, t_gains, t_jac, t_err
    return log_w


def synthesize_luce(p: ProfileLike, costs: CostModel, tolerance: float = 1e-10,
                    max_iterations: int = 10_000) -> SynthesisResult:
    """Construct the unique tiered-weights contract implementing p.

    The tiers are read off the tight chain of `luce_condition`, at the
    fixed tolerance `maximal.TIGHT_TOL`. The weights of each tier come from
    at most `max_iterations` Newton steps, started from weights
    proportional to each agent's expected spend p_i c_i'(p_i). `residual`
    is max_i |BR_i(p) - p_i| under the returned contract, from the
    table-free gains. Raises NotLuceImplementable when the subset
    inequality fails, and NoConvergence (carrying the residual) when that
    residual exceeds `tolerance`.
    """
    prof = require_interior(as_profile(p, costs.n))
    report = luce_condition(prof, costs)
    if not report.holds:
        raise NotLuceImplementable(
            f"subset inequality fails at agents {mask_agents(report.worst_subset)}: "
            f"lhs {report.lhs:.6g} > rhs {report.rhs:.6g}",
            report=report,
        )
    budget = required_budget(prof, costs)
    partition = derive_partition(report)
    arr = prof.as_array()
    target = costs.marginal_vec(arr)
    log_w = np.log(arr * target)
    above = budget
    for block in partition:
        idx = list(block)
        log_w[idx] = _solve_tier(log_w[idx] - log_w[idx].max(), arr[idx],
                                 target[idx] / above, max_iterations)
        above *= float(np.prod(1.0 - arr[idx]))
    weights = np.exp(log_w)
    r = _luce_gains(partition, weights, arr, budget)
    b = costs.inverse_marginal_vec(np.minimum(r, costs.marginal_at_one()))
    residual = float(np.max(np.abs(b - arr)))
    if not residual <= tolerance:
        raise NoConvergence(
            f"Newton on the tier weights did not reach residual {tolerance:.1g} within "
            f"{max_iterations} steps per tier (reached {residual:.3g})",
            best_residual=residual,
        )
    return SynthesisResult(LuceSpec(partition, tuple(weights)), budget, residual,
                           report.tight_sets)
