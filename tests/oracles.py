"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's fast paths: probabilities
come from explicit enumeration over outcome tuples, best responses from
numeric utility maximization, the two-agent equilibrium from a direct
linear solve of the first-order conditions, and the two-agent optimal share
by bisection instead of the library's quadratic formula. Contract tables
are filled by loops over outcome masks, and the fixed-point iteration runs
one start at a time, as the library did before those paths were vectorised,
both with the library's secant step and with its former plain damped step,
and marginal gains also come from the library's former table of share
gains. The principal's problem is solved by the library's former search
over contract weights: every ordered partition, a weight grid per
partition, then Nelder-Mead; and by the profile search from all 8
single-tier starts, ranked by value, as the optimizer once ran it. The
subset inequality is checked on all
2^n - 1 subsets, and on the sorted prefixes through 0/1 masks as the
optimizer once did, and Luce weights come from the library's former damped
multiplicative iteration on 2^n tables, and implementing FGN samples are drawn one agent at a time.
Uniqueness of the implementing Luce
contract is audited by perturbing it and solving the perturbed contracts'
tables.
"""

import itertools
from typing import NamedTuple

import numpy as np
from scipy.optimize import bisect, minimize, minimize_scalar

from contractgames.core import (
    LuceSpec,
    as_profile,
    expand_luce,
    mask_agents,
    outcome_probabilities,
    subset_mask,
)
from contractgames.equilibrium import (
    SolverOptions,
    _best_responses,
    _Workspace,
    find_equilibria,
)
from contractgames.errors import NoConvergence
from contractgames.luce import derive_partition, required_budget
from contractgames.maximal import TIGHT_TOL, ConditionReport
from contractgames.optimize import (
    _EDGE,
    _ProfileSearch,
    _single_tier_equilibrium,
    lambda_thresholds,
    two_agent_equilibrium_derivatives,
)


def all_outcomes(n):
    """Every outcome as a (mask, success-tuple) pair via explicit enumeration."""
    for bits in itertools.product((0, 1), repeat=n):
        mask = sum(b << i for i, b in enumerate(bits))
        yield mask, bits


def outcome_prob_brute(p, mask):
    n = len(p)
    for m, bits in all_outcomes(n):
        if m == mask:
            prob = 1.0
            for pi, b in zip(p, bits):
                prob *= pi if b else 1.0 - pi
            return prob
    raise ValueError(mask)


def expected_reward(f, p, i, p_i=None):
    """E[f_i(S)] * budget with agent i's probability optionally overridden."""
    p = list(p)
    if p_i is not None:
        p[i] = p_i
    total = 0.0
    for mask, bits in all_outcomes(f.n):
        prob = 1.0
        for pj, b in zip(p, bits):
            prob *= pj if b else 1.0 - pj
        total += prob * f.table[mask, i]
    return total * f.budget


def marginal_gain_brute(f, p, i):
    """Conditional-expectation difference computed through explicit conditioning."""
    p_in = expected_reward(f, p, i, p_i=1.0)
    p_out = expected_reward(f, p, i, p_i=0.0)
    return p_in - p_out


def gain_table_gains(f, p):
    """Every agent's marginal gain at a profile (n,) or (k, n) batch, from a gain table.

    G[m, i] = f_i(m | 1<<i) - f_i(m) on the outcomes m without agent i and 0
    on the rest, so outcome_probabilities(p) @ G holds each gain times
    1 - p_i; valid for p_i < 1.
    """
    gains = np.zeros_like(f.table)
    for i in range(f.n):
        pairs = f.table[:, i].reshape(-1, 2, 1 << i)  # (hi, bit i, lo)
        gains[:, i].reshape(-1, 2, 1 << i)[:, 0] = pairs[:, 1] - pairs[:, 0]
    p = np.asarray(p, dtype=float)
    return outcome_probabilities(p) @ gains / (1.0 - p) * f.budget


def utility(f, p, i, costs, p_i):
    return expected_reward(f, p, i, p_i=p_i) - costs.cost(i, p_i)


def best_response_brute(i, f, p, costs):
    """Numeric maximization of agent i's payoff over its own probability."""
    res = minimize_scalar(
        lambda x: -utility(f, p, i, costs, x),
        bounds=(0.0, 1.0 - 1e-12),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x)


def two_agent_foc_solve(c1, c2, lam):
    """Equilibrium of the two-agent budget-exhausting contract by linear solve.

    The first-order conditions are c1 p1 = 1 - (1-lam) p2 and
    c2 p2 = 1 - lam p1.
    """
    a = np.array([[c1, 1.0 - lam], [lam, c2]])
    return tuple(np.linalg.solve(a, np.ones(2)))


def two_agent_optimal_lambda_bisect(c1, c2, w):
    """The two-agent optimal share by bisection on dp2/dp1 + w, as the library once found it."""
    lower, upper = lambda_thresholds(c1, c2)
    if w <= lower:
        return 0.0
    if w >= upper:
        return 1.0

    def slope(lam):
        dp1, dp2 = two_agent_equilibrium_derivatives(c1, c2, lam)
        return dp2 / dp1 + w

    return float(bisect(slope, 0.0, 1.0, xtol=1e-12))


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def integrated_cdf_brute(values, probs, x):
    """E[max(0, x - X)] computed atom by atom."""
    return sum(q * max(0.0, x - v) for v, q in zip(values, probs))


def equal_split_table(n):
    """Equal-split shares, one outcome mask at a time."""
    table = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        members = mask_agents(mask)
        table[mask, list(members)] = 1.0 / len(members)
    return table


def expand_luce_table(spec, n):
    """Luce shares: per mask, the first tier meeting it splits by weight."""
    block_masks = [subset_mask(block, n) for block in spec.partition]
    w = np.array(spec.weights)
    table = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        for bmask in block_masks:
            top = mask & bmask
            if top:
                members = list(mask_agents(top))
                table[mask, members] = w[members] / w[members].sum()
                break
    return table


def piece_rate_table(q, costs):
    """c_i'(q_i) to every successful agent, one outcome mask at a time."""
    n = len(q)
    rates = np.array([costs.marginal(i, q[i]) for i in range(n)])
    table = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        for i in mask_agents(mask):
            table[mask, i] = rates[i]
    return table


def implementing_fgn_tables(q, costs, count, seed, scale=None):
    """The tables of `implementing_fgn_samples`, one agent and one noise draw at a time."""
    n = len(q)
    arr = np.array(q, dtype=float)
    base = costs.marginal_vec(arr)
    if scale is None:
        scale = 0.25 * float(base.min())
    rng = np.random.default_rng(seed)
    masks_with = [[m for m in range(1 << n) if (m >> i) & 1] for i in range(n)]
    forced = np.tile(arr, (n, 1))
    np.fill_diagonal(forced, 1.0)
    forced_probs = outcome_probabilities(forced)
    tables = []
    for _ in range(count):
        table = np.zeros((1 << n, n))
        for i in range(n):
            pi = forced_probs[i, masks_with[i]]
            noise = rng.uniform(-scale, scale, size=pi.size)
            noise -= pi @ noise
            col = np.maximum(base[i] + noise, 0.0)
            col *= base[i] / (pi @ col)
            table[masks_with[i], i] = col
        tables.append(table)
    return tables


def iterate_single(ws, costs, start, opts):
    """Secant-accelerated best-response iteration of one start, as (p, residual, iterations, converged).

    Uses the library's best-response map on a single profile, so it pins
    the batching and per-start bookkeeping, not the map itself. Each step
    is x + g - gamma (dx + dg), gamma = <dg, g> / <dg, dg> (0 when dg = 0),
    clipped to [0, 1], on the residual g = BR(x) - x.
    """
    x = np.array(start, dtype=float)
    prev = None
    for it in range(1, opts.max_iterations + 1):
        b = _best_responses(ws, x, costs)
        g = b - x
        residual = float(np.max(np.abs(g)))
        if residual <= opts.tolerance:
            return b, residual, it, True
        step = g
        if prev is not None:
            dx, dg = x - prev[0], g - prev[1]
            den = float(dg @ dg)
            gamma = float(dg @ g) / den if den > 0.0 else 0.0
            step = step - gamma * (dx + dg)
        prev = x, g
        x = np.clip(x + step, 0.0, 1.0)
    return b, residual, opts.max_iterations, False


def iterate_plain(ws, costs, start, opts):
    """Damped best-response iteration of one start, as (p, residual, iterations, converged).

    The library's rule before the secant step: p <- (1 - d) p + d BR(p),
    with d = 1 dropping to 0.5 once the residual rises inside a window of
    the last 10 sweeps.
    """
    p = np.array(start, dtype=float)
    damping = 1.0
    history = []
    for it in range(1, opts.max_iterations + 1):
        b = _best_responses(ws, p, costs)
        residual = float(np.max(np.abs(b - p)))
        if residual <= opts.tolerance:
            return b, residual, it, True
        history.append(residual)
        if len(history) > 10:
            history.pop(0)
            if damping > 0.5 and any(y > x for x, y in zip(history, history[1:])):
                damping = 0.5
        p = (1.0 - damping) * p + damping * b
    return p, residual, opts.max_iterations, False


def ordered_set_partitions(n):
    """All ordered partitions of agents 0..n-1, fewest blocks first."""

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in set_partitions(rest):
            for k in range(len(smaller)):
                yield smaller[:k] + [sorted([first] + smaller[k])] + smaller[k + 1:]
            yield [[first]] + smaller

    ordered = []
    for blocks in set_partitions(tuple(range(n))):
        for perm in itertools.permutations(blocks):
            ordered.append(tuple(tuple(b) for b in perm))
    ordered.sort(key=lambda part: (len(part), part))
    return ordered


# Searched weights stay this far inside each block's simplex; its boundary is
# the expansion of a finer partition, which the enumeration visits anyway.
_WEIGHT_FLOOR = 1e-3


def _weights_from_free(partition, x, n):
    """Free coordinates are each block's weights except the last member's."""
    weights = np.empty(n)
    pos = 0
    for block in partition:
        k = len(block)
        if k == 1:
            weights[block[0]] = 1.0
            continue
        head = x[pos: pos + k - 1]
        pos += k - 1
        tail = 1.0 - head.sum()
        if np.any(head < _WEIGHT_FLOOR) or tail < _WEIGHT_FLOOR:
            return None
        weights[list(block[:-1])] = head
        weights[block[-1]] = tail
    return weights


def _free_grid(partition, resolution):
    """Interior grid over the product of within-block weight simplices."""
    per_block = []
    for block in partition:
        k = len(block)
        if k == 1:
            continue
        pts = []
        for combo in itertools.product(range(1, resolution), repeat=k - 1):
            head = np.array(combo, dtype=float) / resolution
            if head.sum() < 1.0 - 1.0 / (2.0 * resolution):
                pts.append(head)
        per_block.append(pts)
    if not per_block:
        return [np.empty(0)]
    return [np.concatenate(parts) for parts in itertools.product(*per_block)]


def partition_search_optimum(objective, costs, solver, grid_resolution=12, restarts=4, seed=None):
    """Best (value, spec, profile) over every ordered partition's weights.

    Each partition's weights are scored on a grid, then refined by
    Nelder-Mead from the best grid point and `restarts - 1` random ones;
    each candidate is scored at the best converged equilibrium of its
    expanded contract. Practical for n <= 3.
    """
    n = costs.n
    rng = np.random.default_rng(seed)
    best = None
    for partition in ordered_set_partitions(n):
        part_rng = np.random.default_rng(rng.integers(0, 2 ** 63))

        def score(x):
            nonlocal best
            weights = _weights_from_free(partition, np.asarray(x, dtype=float), n)
            if weights is None:
                return 1e9
            spec = LuceSpec(partition, tuple(weights))
            values = [(objective.value(r.profile.probs), r.profile)
                      for r in find_equilibria(expand_luce(spec, n), costs, solver)
                      if r.converged]
            if not values:
                return 1e9
            value, profile = max(values, key=lambda t: t[0])
            if best is None or value > best[0]:
                best = (value, spec, profile)
            return -value

        dims = sum(len(b) - 1 for b in partition)
        if dims == 0:
            score(np.empty(0))
            continue
        scored = sorted(((score(x), tuple(x)) for x in _free_grid(partition, grid_resolution)),
                        key=lambda t: t[0])
        seeds = [np.array(scored[0][1])]
        for _ in range(restarts - 1):
            weights = np.empty(n)
            for block in partition:
                weights[list(block)] = part_rng.dirichlet(2.0 * np.ones(len(block)))
            seeds.append(np.concatenate(
                [[weights[a] for a in block[:-1]] for block in partition if len(block) > 1]))
        for x0 in seeds:
            simplex = np.vstack([x0] + [x0 + 0.1 * e for e in np.eye(dims)])
            minimize(score, x0, method="Nelder-Mead",
                     options={"initial_simplex": simplex, "xatol": 1e-8,
                              "fatol": 1e-12, "maxiter": 400 * dims})
    return best


def best_of_starts(objective, costs, seed, starts=8):
    """Best feasible value of the profile search over several single-tier starts.

    The starts are the equilibria of the equal-weights contract and of
    `starts - 1` contracts with lognormal weights drawn with `seed`, in the
    optimizer's draw order. Each runs `_ProfileSearch.solve`, all sharing
    one search and its cuts; -inf when no result is feasible.
    """
    n = costs.n
    rng = np.random.default_rng(seed)
    search = _ProfileSearch(objective, costs)
    best = -np.inf
    for w in [np.ones(n)] + [np.exp(rng.normal(size=n)) for _ in range(starts - 1)]:
        p0 = _single_tier_equilibrium(w, costs)
        if p0 is None:
            continue
        p = search.solve(np.clip(p0, _EDGE, 1.0 - _EDGE))
        if search.feasible(p):
            best = max(best, objective.value(p))
    return best


def subset_sums(values):
    """sums[mask] = sum of values[i] over i in mask, for all masks."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def fail_products(p):
    """prods[mask] = prod of (1 - p_i) over i in mask, for all masks."""
    prods = np.ones(1)
    for pi in p:
        prods = np.concatenate([prods, prods * (1.0 - pi)])
    return prods


def luce_condition_brute(p, costs, tol=TIGHT_TOL):
    """The subset inequality on every nonempty subset, as a ConditionReport.

    Ties in lhs - rhs go to the smallest mask, and every subset within `tol`
    of equality is reported as tight.
    """
    arr = as_profile(p, costs.n).as_array()
    n = len(arr)
    sums = subset_sums(arr * costs.marginal_vec(arr))
    fails = fail_products(arr)
    full = (1 << n) - 1
    lhs = sums[1:] / sums[full]
    rhs = (1.0 - fails[1:]) / (1.0 - fails[full])
    diff = lhs - rhs
    worst = int(np.argmax(diff))
    tight = sorted((int(m) + 1 for m in np.nonzero(np.abs(diff) <= tol)[0]),
                   key=lambda m: (bin(m).count("1"), m))
    return ConditionReport(n=n, holds=bool(diff[worst] <= tol), worst_subset=worst + 1,
                           lhs=float(lhs[worst]), rhs=float(rhs[worst]),
                           tight_sets=tuple(tight))


def prefix_gaps_by_masks(p, costs):
    """The library's former prefix check: 0/1 masks of the sorted prefixes, through its rows.

    Returns the (n - 1, n) masks of the proper prefixes of the agents
    sorted by descending s_i / q_i, then 1 - z(p) followed by each mask's
    gap rhs - lhs, with rhs = P[S meets I] / P[S nonempty] and
    lhs = s_I / sum_i s_i.
    """
    p = np.asarray(p, dtype=float)
    s = p * costs.marginal_vec(p)
    rank = np.argsort(np.argsort(s / np.log1p(-p), kind="stable"))
    masks = (rank[None, :] < np.arange(1, len(p))[:, None]).astype(float)
    fail_i = np.exp(masks @ np.log1p(-p))
    fail = float(np.prod(1.0 - p))
    spend = float(s.sum())
    rhs = (1.0 - fail_i) / (1.0 - fail)
    lhs = masks @ s / spend
    return masks, np.concatenate([[1.0 - spend - fail], rhs - lhs])


def synthesize_luce_iteration(p, costs, tolerance=1e-10, max_iterations=10_000):
    """The Luce spec implementing p, weights by a damped multiplicative iteration.

    Tiers come from the 2^n subset check. Each sweep expands the full
    contract table, rescales every weight by c_i'(p_i) / c_i'(BR_i(p))
    (clipped to [0.5, 2], halved in log after a residual rise) and, every
    eighth sweep, tries a geometric extrapolation of the log-weight steps.
    """
    arr = as_profile(p, costs.n).as_array()
    n = len(arr)
    partition = derive_partition(luce_condition_brute(arr, costs))
    budget = required_budget(arr, costs)
    target = costs.marginal_vec(arr)

    def evaluate(log_weights):
        spec = LuceSpec(partition, tuple(np.exp(log_weights)))
        b = _best_responses(_Workspace(expand_luce(spec, n, budget)), arr, costs)
        return spec, b, float(np.max(np.abs(b - arr)))

    def centered(log_weights):
        out = log_weights.copy()
        for block in partition:
            out[list(block)] -= out[list(block)].max()
        return out

    log_w = np.log(arr * target)
    eta, prev_residual, prev_delta, settled = 1.0, np.inf, None, 0
    for _ in range(max_iterations):
        spec, b, residual = evaluate(log_w)
        if residual <= tolerance:
            return spec
        if residual > prev_residual:
            eta = 0.5
        prev_residual = residual
        ratios = np.clip(target / np.maximum(costs.marginal_vec(b), 1e-300), 0.5, 2.0)
        delta = eta * np.log(ratios)
        log_w = centered(log_w + delta)
        settled += 1
        if prev_delta is not None and settled >= 8:
            safe = np.abs(prev_delta) > 1e-14
            rho = np.clip(np.where(safe, delta / np.where(safe, prev_delta, 1.0), 0.0),
                          -0.5, 0.98)
            jump = centered(log_w + delta * rho / (1.0 - rho))
            if evaluate(jump)[2] < residual:
                log_w = jump
                prev_residual = evaluate(jump)[2]
            settled, prev_delta = 0, None
        else:
            prev_delta = delta
    raise NoConvergence("multiplicative weight iteration did not converge")


def from_atoms_loop(atoms, merge_tol=1e-12):
    """(values, probs, mean, variance) of a payment distribution, one atom at a time.

    Zero-mass atoms are skipped; an atom within `merge_tol` of the running
    merged value joins it at the probability-weighted mean.
    """
    merged = []
    for v, q in sorted((float(v), float(q)) for v, q in atoms):
        if q == 0.0:
            continue
        if merged and v - merged[-1][0] <= merge_tol:
            v0, q0 = merged[-1]
            merged[-1] = ((v0 * q0 + v * q) / (q0 + q), q0 + q)
        else:
            merged.append((v, q))
    mean = sum(v * q for v, q in merged)
    variance = sum((v - mean) ** 2 * q for v, q in merged)
    return [v for v, _ in merged], [q for _, q in merged], mean, variance


class UniquenessReport(NamedTuple):
    """Worst-case separation of perturbed specs' equilibria from the target."""

    trials: int
    worst_separation: float


def random_ordered_partition(n, rng):
    labels = rng.integers(0, n, size=n)
    return tuple(tuple(i for i in range(n) if labels[i] == lab)
                 for lab in sorted(set(int(x) for x in labels)))


def jittered(spec, rng):
    """Same tiers, every weight nudged by 5 to 30 percent relative."""
    factors = 1.0 + rng.uniform(0.05, 0.30, size=spec.n) * rng.choice((-1.0, 1.0), size=spec.n)
    return LuceSpec(spec.partition, tuple(np.array(spec.weights) * factors))


def meaningfully_distinct(candidate, base, n, min_gap=0.02):
    """True when the two specs expand to visibly different reward tables.

    Spec-level comparisons are not enough: canonicalization can cancel a raw
    jitter, and a merged tier with a near-zero weight mimics a split tier, so
    encodings that differ can still describe almost the same contract.
    """
    gap = np.max(np.abs(expand_luce(candidate, n).table - expand_luce(base, n).table))
    return float(gap) >= min_gap


def verify_uniqueness(result, p, costs, trials=50, seed=None, separation_tol=1e-4,
                      solver_tolerance=1e-8):
    """Check that perturbed and re-tiered specs all fail to reproduce p.

    Alternates weight jitter of the synthesized spec with random tier
    structures and random weights, solves each expanded contract at the
    synthesized budget, and records the smallest max-coordinate distance
    between p and any equilibrium found. A meaningfully distinct spec that
    lands within `separation_tol` of p fails an assertion. Draws whose
    tables are indistinguishable from the original's are skipped, not
    counted.
    """
    prof = as_profile(p, costs.n)
    n = prof.n
    base = result.spec
    rng = np.random.default_rng(seed)
    opts = SolverOptions(tolerance=solver_tolerance, starts=2, seed=seed)
    worst = np.inf
    done = 0
    attempts = 0
    while done < trials and attempts < 20 * max(trials, 1):
        attempts += 1
        if attempts % 2 == 1:
            candidate = jittered(base, rng)
        else:
            candidate = LuceSpec(random_ordered_partition(n, rng),
                                 tuple(rng.dirichlet(2.0 * np.ones(n))))
        if not meaningfully_distinct(candidate, base, n):
            continue
        contract = expand_luce(candidate, n, result.budget)
        separation = min(float(np.max(np.abs(res.profile.as_array() - prof.as_array())))
                         for res in find_equilibria(contract, costs, opts,
                                                    initial_profiles=(prof,)))
        assert separation > separation_tol, (
            f"distinct spec {candidate} reproduced the profile within {separation:.3g}")
        worst = min(worst, separation)
        done += 1
    return UniquenessReport(trials=done, worst_separation=float(worst))
