"""Marginal gains, best responses, and Nash fixed points of contract games.

An agent's best response solves c_i'(p_i) = max(0, r_i) where r_i is the
expected reward gain from succeeding rather than failing, computed exactly
over all outcomes of the other agents and scaled by the contract budget.
Since E_p[f_i(S)] is multilinear in p, r_i is its derivative in p_i, read
off the contract's own table. The table is stored agent-major, so agent
i's column is one contiguous (2**(n - h), 2**h) matrix, h = n // 2, whose
rows and columns are the outcomes of the high and the low agents. It is
contracted with the outcome table of the other half and the derivative
table of agent i's own half: one stacked matrix product per half for every
agent's r_i at one profile or a whole batch, in row blocks small enough for
BLAS to run on the calling thread. No second table is built. Equilibria are
found by simultaneous best-response iteration from several starting
profiles, each step a secant (depth-1 Anderson) step on the residual
BR(p) - p; every fixed point found is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Contract,
    CostModel,
    EquilibriumResult,
    Profile,
    ProfileLike,
    _empty_table,
    _outcome_table,
    as_profile,
    membership,
    outcome_probabilities,
)
from .errors import NotAdmissible, NotAnEquilibrium

_DEDUP_TOL = 1e-6
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the fixed-point iteration.

    A start has converged once max |BR(p) - p| <= `tolerance`;
    `max_iterations` caps the sweeps per start, each one best-response
    evaluation of the whole batch. `seed` draws the random starts. It is 0
    by default, so identical calls give identical results; None draws them
    from fresh entropy.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10_000
    starts: int = 8
    seed: int | None = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# Multiply-adds per matrix product in a sweep. On 2 cores OpenBLAS 0.3.31 ran
# products of up to 2**19 multiply-adds on the calling thread and split those
# of 2**21 across threads; half the former keeps every product on one thread,
# so a sweep's time does not hang on other threads.
_PRODUCT_SIZE = 1 << 18


class _Workspace:
    """Per-contract views and index arrays reused across best-response sweeps.

    An outcome mask m = hi * B + lo splits into the bits lo of the low
    agents 0..h-1 and hi of the high agents h..n-1, with h = n // 2,
    B = 2**h and A = 2**(n - h). Contract tables are stored agent-major, so
    `cols` views the table, without a copy, as one contiguous (A, B) matrix
    per agent: cols[i, hi, lo] = table[hi * B + lo, i]. No other table is
    made.
    """

    def __init__(self, f: Contract):
        n, h = f.n, f.n // 2
        half = n - h
        self.n, self.h = n, h
        self.table = f.table
        self.cols = f.table.T.reshape(n, 1 << half, 1 << h)
        self.budget = f.budget
        self.c_at_one: np.ndarray | None = None
        # Agent j's factors in row r of half s (0 low, 1 high) are
        # scale * p + offset, with p = batch[probes[j, r, s]]. Row 0 is the
        # half's outcome table, with factors (1 - p, p); row 1 + j' is its
        # derivative in agent j''s probability, where agent j' has the factors
        # (-1, 1) instead. A low half one agent short is padded with an agent
        # whose factors are (1, 0): it always fails.
        agents = np.array([[*range(h), *[0] * (half - h)], range(h, n)]).T
        self.probes = np.broadcast_to(agents[:, None, None, :], (half, 1, 1 + half, 2))
        shape = (half, 2, 1 + half, 2, 1)  # agent, (fail, succeed), row, half, batch
        self.scale, self.offset = np.zeros(shape), np.zeros(shape)
        self.scale[:, 0], self.offset[:, 0], self.scale[:, 1] = -1.0, 1.0, 1.0
        self.scale[h:, :, :, 0] = 0.0
        own = np.arange(half), slice(None), 1 + np.arange(half)
        self.scale[own], self.offset[own] = 0.0, [[[-1.0]], [[1.0]]]


def _row_blocks(rows: int, cols: int, k: int) -> list[slice]:
    """Row blocks of a (rows, cols) matrix whose products with k profiles fit _PRODUCT_SIZE.

    A block is never shorter than one row, so only a batch wider than
    _PRODUCT_SIZE / cols gives larger products.
    """
    step = max(1, _PRODUCT_SIZE // (cols * k))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _marginal_gains(ws: _Workspace, p: np.ndarray) -> np.ndarray:
    """Every agent's marginal gain at one profile (n,) or each row of a (k, n) batch.

    E_p[f_i(S)] is multilinear in p, so r_i is its derivative in p_i: agent
    i's (A, B) matrix contracted with the outcome table of the other half
    and with the derivative in p_i of the outcome table of agent i's half,
    which is that table with agent i's factors (1 - p_i, p_i) replaced by
    (-1, 1). Nothing is divided, so the gains are exact for every p_i in
    [0, 1], and they do not depend on p_i.
    """
    batch = p.reshape(-1, ws.n).T  # the batch runs along the last axis from here
    k = batch.shape[1]
    # (2**half, 1 + half rows, 2 halves, k); row 1 + j is agent j's slope table.
    tables = _outcome_table(batch[ws.probes] * ws.scale + ws.offset)
    h, (a, b) = ws.h, ws.cols.shape[1:]
    high, low = tables[:, 0, 1], tables[:b, 0, 0]
    # Low agents: V[i, :, lo] = sum_hi high[hi] cols[i, hi, lo]. High agents:
    # W[i, hi] = sum_lo cols[i, hi, lo] low[lo]. One stacked product per half
    # and row block.
    blocks = _row_blocks(a, b, k)
    v = sum(high.T[:, rows] @ ws.cols[:h, rows] for rows in blocks)
    w = np.concatenate([ws.cols[h:, rows] @ low for rows in blocks], axis=1)
    r_low = np.einsum("lik,ikl->ik", tables[:b, 1:h + 1, 0], v)
    r_high = np.einsum("hik,ihk->ik", tables[:, 1:, 1], w)
    return (np.concatenate((r_low, r_high)) * ws.budget).T.reshape(p.shape)


def _best_responses(ws: _Workspace, p: np.ndarray, costs: CostModel) -> np.ndarray:
    """Simultaneous best responses to one profile (n,) or each row of a (k, n) batch."""
    r = np.maximum(_marginal_gains(ws, p), 0.0)
    if ws.c_at_one is None:
        ws.c_at_one = costs.marginal_at_one()
    if np.any(r >= ws.c_at_one):
        at = np.unravel_index(np.argmax(r - ws.c_at_one), r.shape)
        i = int(at[-1])
        raise NotAdmissible(
            f"agent {i}: marginal gain {r[at]:.6g} reaches c'(1) = {ws.c_at_one[i]:.6g}; "
            "small-budget admissibility violated"
        )
    return costs.inverse_marginal_vec(r)


def marginal_gain(i: int, f: Contract, p: ProfileLike) -> float:
    """Expected reward gain for agent i from succeeding, times the budget.

    Exact summation over the outcomes of the other agents; p_i itself is
    ignored. Negative values are possible when the contract rewards failure.
    """
    return float(_marginal_gains(_Workspace(f), as_profile(p, f.n).as_array())[i])


def best_response(i: int, f: Contract, p: ProfileLike, costs: CostModel) -> float:
    """The unique maximizer of agent i's payoff against p_{-i}."""
    r = max(0.0, marginal_gain(i, f, p))
    c_one = costs.marginal(i, 1.0)
    if r >= c_one:
        raise NotAdmissible(
            f"agent {i}: marginal gain {r:.6g} reaches c'(1) = {c_one:.6g}; "
            "small-budget admissibility violated"
        )
    return costs.inverse_marginal(i, r)


def equilibrium_residual(f: Contract, p: ProfileLike, costs: CostModel) -> float:
    """Max over agents of |p_i - best_response_i(p)|."""
    prof = as_profile(p, f.n)
    ws = _Workspace(f)
    b = _best_responses(ws, prof.as_array(), costs)
    return float(np.max(np.abs(b - prof.as_array())))


def _solo_start(ws: _Workspace, costs: CostModel) -> np.ndarray:
    """Each agent's best response when everyone else is sure to fail."""
    table, agents = ws.table, np.arange(ws.n)
    r0 = np.maximum((table[1 << agents, agents] - table[0]) * ws.budget, 0.0)
    if ws.c_at_one is None:
        ws.c_at_one = costs.marginal_at_one()
    if np.any(r0 >= ws.c_at_one):
        i = int(np.argmax(r0 - ws.c_at_one))
        raise NotAdmissible(
            f"agent {i}: solo reward {r0[i]:.6g} reaches c'(1) = {ws.c_at_one[i]:.6g}"
        )
    return costs.inverse_marginal_vec(r0)


def _iterate(best_responses: Callable[[np.ndarray], np.ndarray], starts: np.ndarray,
             opts: SolverOptions) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Secant-accelerated best-response iteration from each row of `starts`, as one batch.

    `best_responses` maps a (k, n) batch of profiles to their best
    responses. Each start steps on its residual g = BR(x) - x by depth-1
    Anderson mixing: with dx = x_k - x_{k-1} and dg = g_k - g_{k-1},

        x_{k+1} = clip(x_k + g_k - gamma_k (dx + dg), 0, 1),
        gamma_k = <dg, g_k> / <dg, dg>, or 0 when dg = 0,

    which is a secant step along the last difference. It is computed from
    the best responses b_k = x_k + g_k as b_k - gamma_k (b_k - b_{k-1}).
    The first step has no difference and is b_0. A start has converged once
    max |BR(x) - x| <= opts.tolerance at an evaluated x, and BR(x) is its
    profile; it then leaves the batch. Returns per-start profiles (the last
    best responses for starts that hit the cap), residuals, sweep counts
    and converged flags.
    """
    k = starts.shape[0]
    profiles = np.empty_like(starts)
    residuals = np.zeros(k)
    iterations = np.full(k, opts.max_iterations)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    x = starts.copy()
    b_prev = g_prev = None
    for it in range(1, opts.max_iterations + 1):
        b = best_responses(x)
        g = b - x
        residual = np.abs(g).max(axis=1)
        done = residual <= opts.tolerance
        if done.any():
            rows = active[done]
            profiles[rows] = b[done]
            residuals[rows] = residual[done]
            iterations[rows] = it
            converged[rows] = True
            keep = ~done
            if not keep.any():
                return profiles, residuals, iterations, converged
            active, x, b, g, residual = active[keep], x[keep], b[keep], g[keep], residual[keep]
            if b_prev is not None:
                b_prev, g_prev = b_prev[keep], g_prev[keep]
        if b_prev is None:
            x = b
        else:
            dg = g - g_prev
            # Where dg = 0, <dg, g> = 0 too, and gamma is 0.
            gamma = (np.einsum("ij,ij->i", dg, g)
                     / np.maximum(np.einsum("ij,ij->i", dg, dg), _TINY))
            x = b - gamma[:, None] * (b - b_prev)
        b_prev, g_prev = b, g
        x = np.minimum(np.maximum(x, 0.0), 1.0)
    profiles[active] = b
    residuals[active] = residual
    return profiles, residuals, iterations, converged


def find_equilibria(f: Contract, costs: CostModel, options: SolverOptions | None = None,
                    initial_profiles: tuple[ProfileLike, ...] = ()) -> list[EquilibriumResult]:
    """All Nash fixed points found by secant-accelerated best-response iteration.

    Starts from the origin, each agent's solo optimum, and seeded random
    profiles (`options.starts` standard starts in total), plus any profiles
    in `initial_profiles`. All starts iterate together as one batch, but
    each keeps its own secant history and stop test, and a start leaves the
    batch once it converges (see `_iterate`). `iterations` counts a start's
    accelerated sweeps. The solver holds no table besides the contract's:
    each sweep contracts it with the batch's half outcome tables and their
    derivatives, one stacked matrix product per half.
    Fixed points are deduplicated at 1e-6 in the max norm and sorted by
    total effort, highest first. Starts that fail to converge within the
    iteration budget are reported with converged=False rather than raised.
    """
    opts = options or SolverOptions()
    if costs.n != f.n:
        raise ValueError(f"cost model has {costs.n} agents, contract has {f.n}")
    ws = _Workspace(f)
    rng = np.random.default_rng(opts.seed)
    starts: list[np.ndarray] = [np.zeros(f.n), _solo_start(ws, costs)]
    while len(starts) < max(1, opts.starts):
        starts.append(rng.uniform(0.0, 0.9, size=f.n))
    starts = starts[: max(1, opts.starts)]
    for extra in initial_profiles:
        starts.append(as_profile(extra, f.n).as_array())

    per_start = _iterate(lambda p: _best_responses(ws, p, costs), np.array(starts), opts)
    raw = list(zip(*per_start))
    # Prefer converged, tighter fixed points as dedup representatives.
    raw.sort(key=lambda r: (not r[3], r[1]))
    results: list[EquilibriumResult] = []
    kept: list[np.ndarray] = []
    for p, residual, iterations, converged in raw:
        if any(np.max(np.abs(p - q)) <= _DEDUP_TOL for q in kept):
            continue
        kept.append(p)
        results.append(EquilibriumResult(
            Profile(tuple(p)), float(residual), int(iterations), bool(converged)))
    results.sort(key=lambda r: -sum(r.profile))
    return results


def fgn_normalize(f: Contract, p: ProfileLike, costs: CostModel,
                  tolerance: float = 1e-10) -> Contract:
    """Rescale each agent's success rewards into an equivalent FGN contract.

    Requires p to be an equilibrium of f (residual at most `tolerance`).
    Each agent's rewards on outcomes where it succeeded are scaled by
    r_i / E[f_i | i in S] (zero when p_i = 0) and all failure rewards are
    dropped; the profile remains an equilibrium, which is re-verified.
    """
    prof = as_profile(p, f.n)
    arr = prof.as_array()
    ws = _Workspace(f)
    b = _best_responses(ws, arr, costs)
    residual = float(np.max(np.abs(b - arr)))
    if residual > tolerance:
        raise NotAnEquilibrium(
            f"profile is not an equilibrium of the contract: residual {residual:.3g} "
            f"> tolerance {tolerance:.3g}"
        )
    table = _empty_table(f.n)
    np.multiply(f.table, membership(f.n), out=table)  # rewards paid to agents that succeeded
    paid = outcome_probabilities(arr) @ table * f.budget  # p_i E[f_i | i in S]
    r = _marginal_gains(ws, arr)
    lam = np.zeros(f.n)
    for i in np.flatnonzero(arr > 0.0):
        # First-order condition bounds the ratio by 1; clip rounding spill.
        lam[i] = min(1.0, max(0.0, r[i] * arr[i] / paid[i]))
    table *= lam
    table.setflags(write=False)
    g = Contract(f.n, table, budget=f.budget, unconstrained=f.unconstrained)
    check = equilibrium_residual(g, prof, costs)
    if check > tolerance:
        raise NotAnEquilibrium(
            f"normalization failed to preserve the equilibrium: residual {check:.3g}"
        )
    return g
