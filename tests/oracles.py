"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's fast paths: probabilities
come from explicit enumeration over outcome tuples, best responses from
numeric utility maximization, and the two-agent equilibrium from a direct
linear solve of the first-order conditions. Contract tables are filled by
loops over outcome masks, and the fixed-point iteration runs one start at a
time, as the library did before those paths were vectorised.
"""

import itertools

import numpy as np
from scipy.optimize import minimize_scalar

from contractgames.core import mask_agents, subset_mask
from contractgames.equilibrium import _OSCILLATION_WINDOW, _best_responses


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


def iterate_single(ws, costs, start, opts):
    """Damped best-response iteration of one start, as (p, residual, iterations, converged).

    Uses the library's best-response map on a single profile, so it pins
    the batching and per-start bookkeeping, not the map itself.
    """
    p = np.array(start, dtype=float)
    damping = opts.damping
    history = []
    for it in range(1, opts.max_iterations + 1):
        b = _best_responses(ws, p, costs)
        residual = float(np.max(np.abs(b - p)))
        if residual <= opts.tolerance:
            return b, residual, it, True
        history.append(residual)
        if len(history) > _OSCILLATION_WINDOW:
            history.pop(0)
            if damping > 0.5 and any(y > x for x, y in zip(history, history[1:])):
                damping = 0.5
        p = (1.0 - damping) * p + damping * b
    return p, residual, opts.max_iterations, False
