import numpy as np
import pytest

from contractgames import (
    CostModel,
    DegenerateProfile,
    InconsistentTightSets,
    LuceSpec,
    SolverOptions,
    brute_force_frontier,
    derive_partition,
    dominated_by,
    equal_split,
    find_equilibria,
    implementability_necessary,
    luce_condition,
    maximal_candidate,
    piece_rate,
    subset_mask,
    z_value,
)
from contractgames.luce import _luce_gains
from contractgames.maximal import _prefix_gaps

import oracles

QUAD22 = CostModel.power([2, 2])
QUAD24 = CostModel.power([2, 4])


def subset_sides(p, costs, members):
    """Reference evaluation of the subset inequality for one subset."""
    spend = [pi * costs.marginal(i, pi) for i, pi in enumerate(p)]
    lhs = sum(spend[i] for i in members) / sum(spend)
    p_hit = 1.0 - np.prod([1.0 - p[i] for i in members])
    p_any = 1.0 - np.prod([1.0 - pi for pi in p])
    return lhs, p_hit / p_any


# ---------------------------------------------------------------------------
# z and the necessary condition
# ---------------------------------------------------------------------------

def test_z_value_examples():
    assert z_value((0.4, 0.4), QUAD22) == pytest.approx(1.0, abs=1e-15)
    assert z_value((0.0, 0.0, 0.0), CostModel.power([2, 2, 2])) == 1.0
    assert z_value((0.6, 0.1), QUAD22) == pytest.approx(1.10, abs=1e-12)
    assert z_value((0.1, 0.1), QUAD22) == pytest.approx(0.85, abs=1e-12)


def test_implementability_necessary():
    assert implementability_necessary((0.4, 0.4), QUAD22)      # boundary
    assert not implementability_necessary((0.6, 0.1), QUAD22)  # z = 1.10
    assert implementability_necessary((0.1, 0.1), QUAD22)      # z = 0.85


# ---------------------------------------------------------------------------
# subset inequality
# ---------------------------------------------------------------------------

def test_luce_condition_holds_symmetric_boundary():
    report = luce_condition((0.4, 0.4), QUAD22)
    assert report.holds
    lhs, rhs = subset_sides((0.4, 0.4), QUAD22, [0])
    assert lhs == pytest.approx(0.5) and rhs == pytest.approx(0.625)
    # only the full set is tight here
    assert report.tight_sets == (0b11,)
    # the worst subset is the tight full set, where both sides equal one
    assert report.worst_subset == 0b11
    assert report.lhs == pytest.approx(1.0) and report.rhs == pytest.approx(1.0)


def test_luce_condition_failure_names_worst_subset():
    report = luce_condition((0.5, 0.05), QUAD24)
    assert not report.holds
    assert report.worst_subset == subset_mask([0], 2)
    assert report.lhs == pytest.approx(0.5 / 0.51, abs=1e-12)
    assert report.rhs == pytest.approx(0.5 / 0.525, abs=1e-12)
    lhs, rhs = subset_sides((0.5, 0.05), QUAD24, [0])
    assert report.lhs == pytest.approx(lhs) and report.rhs == pytest.approx(rhs)


def test_luce_condition_tight_chain_for_priority_profile():
    report = luce_condition((0.5, 0.25), QUAD22)
    assert report.holds
    assert report.tight_sets == (0b01, 0b11)


def test_luce_condition_rejects_boundary_profile():
    with pytest.raises(DegenerateProfile):
        luce_condition((0.0, 0.4), QUAD22)


def test_luce_condition_matches_reference_on_random_interior_profiles():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        costs = CostModel.power(rng.uniform(1.5, 4, n), rng.uniform(2, 3, n))
        p = tuple(rng.uniform(0.05, 0.7, n))
        report = luce_condition(p, costs)
        violations = []
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if (mask >> i) & 1]
            lhs, rhs = subset_sides(p, costs, members)
            violations.append(lhs - rhs)
        assert report.holds == (max(violations) <= 1e-9)


def luce_game(rng, n, tied):
    """An equilibrium p of a random Luce spec and power costs implementing it.

    With `tied`, agents of a tier share one weight, one success probability
    and one cost, so their s_i / q_i ratios tie exactly.
    """
    tier = np.sort(rng.integers(0, min(3, n), n))
    blocks = tuple(tuple(int(i) for i in np.flatnonzero(tier == k)) for k in np.unique(tier))
    if tied:
        weights, p, expo = (rng.uniform(0.5, 2.0, 3)[tier], rng.uniform(0.01, 0.9, 3)[tier],
                            rng.uniform(2.0, 3.0, 3)[tier])
    else:
        weights, p, expo = (np.exp(rng.uniform(-3.0, 3.0, n)), rng.uniform(0.01, 0.9, n),
                            rng.uniform(2.0, 3.0, n))
    r = _luce_gains(LuceSpec(blocks, tuple(weights)).partition, weights, p)
    return p, CostModel.power(r / p ** (expo - 1.0), expo)


@pytest.mark.parametrize("kind", ["random", "luce", "tied"])
def test_prefix_check_matches_subset_enumeration(kind):
    rng = np.random.default_rng(["random", "luce", "tied"].index(kind))
    for _ in range(40):
        n = int(rng.integers(1, 11))
        if kind == "random":
            p = rng.uniform(0.001, 0.95, n)
            costs = CostModel.power(rng.uniform(1.5, 30.0, n), rng.uniform(2.0, 5.0, n))
        else:
            p, costs = luce_game(rng, n, tied=kind == "tied")
        ours = luce_condition(p, costs)
        ref = oracles.luce_condition_brute(p, costs)
        assert ours.holds == ref.holds
        assert ours.lhs - ours.rhs == pytest.approx(ref.lhs - ref.rhs, abs=1e-14)
        assert ours.tight_sets == ref.tight_sets


def test_prefix_gaps_match_the_mask_computation():
    # The optimizer once built a 0/1 mask per prefix and took each side of
    # the inequality as a matrix product; the sorted cumulative sums must
    # give the same order, gaps and 1 - z. 1 - z is compared relative to
    # z, which reaches about 200 here.
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        p = rng.uniform(0.001, 0.95, n)
        costs = CostModel.power(rng.uniform(1.5, 30.0, n), rng.uniform(2.0, 3.0, n))
        order, _, _, gap, z_slack = _prefix_gaps(p, costs)
        masks, values = oracles.prefix_gaps_by_masks(p, costs)
        assert [set(np.flatnonzero(m)) for m in masks] == [
            set(order[:k]) for k in range(1, n)]
        assert gap[-1] == 0.0
        assert np.max(np.abs(gap[:-1] - values[1:])) <= 1e-14
        assert abs(z_slack - values[0]) <= 1e-14 * (1.0 - values[0])


def test_tight_prefixes_keep_tied_agents_together():
    # Agents 1 and 2 tie and succeed with probability 1e-11, so every subset
    # between {0} and the full set is within 1e-9 of tight. The enumeration's
    # tight sets are then no chain; the prefixes keep the tie in one tier.
    p = np.array([0.3, 1e-11, 1e-11])
    partition = ((0,), (1, 2))
    costs = CostModel.power(_luce_gains(partition, np.ones(3), p) / p)
    report = luce_condition(p, costs)
    assert report.holds
    assert report.tight_sets == (0b001, 0b111)
    assert derive_partition(report) == partition
    with pytest.raises(InconsistentTightSets):
        derive_partition(oracles.luce_condition_brute(p, costs))


def test_luce_condition_at_200_agents():
    n = 200
    report = luce_condition((0.004,) * n, CostModel.power([2.0] * n))
    assert report.holds
    assert report.tight_sets == ((1 << n) - 1,)


# ---------------------------------------------------------------------------
# maximal candidates
# ---------------------------------------------------------------------------

def test_maximal_candidate_examples():
    assert maximal_candidate((0.4, 0.4), QUAD22)
    assert maximal_candidate((0.5, 0.25), QUAD22)
    assert not maximal_candidate((0.1, 0.1), QUAD22)  # z = 0.85 < 1


def test_maximal_candidate_rejects_condition_failure():
    # z((0.5, 0.05)) with scales (2, 4) is below 1 but the subset
    # inequality fails, so the profile is not maximal
    assert z_value((0.5, 0.05), QUAD24) < 1.0
    assert not maximal_candidate((0.5, 0.05), QUAD24)


def test_z_strictly_increasing_above_frontier_points():
    # moving any coordinate up from a budget-exhausting equilibrium raises z
    p = np.array([0.4, 0.4])
    z0 = z_value(tuple(p), QUAD22)
    for step in ([0.05, 0.0], [0.0, 0.05], [0.03, 0.07]):
        q = p + np.array(step)
        assert z_value(tuple(q), QUAD22) > z0 + 1e-6


# ---------------------------------------------------------------------------
# frontier oracle
# ---------------------------------------------------------------------------

def test_frontier_single_agent():
    result = brute_force_frontier(CostModel.power([2]), 10)
    assert len(result.points) == 1
    assert result.points[0].profile.probs == pytest.approx((0.5,), abs=1e-10)


def test_frontier_two_agents_traces_closed_form():
    result = brute_force_frontier(QUAD22, 20)
    assert len(result.points) == 21
    by_param = {round(pt.params[0] * 20): pt for pt in result.points}
    for k in (0, 7, 20):
        lam = k / 20
        expected = oracles.two_agent_foc_solve(2.0, 2.0, lam)
        assert by_param[k].profile.probs == pytest.approx(expected, abs=1e-9)
        assert abs(by_param[k].z - 1.0) <= 1e-9


def test_frontier_dominates_piece_rate_equilibrium():
    # shares 0.3 give marginal gain 0.3, so both agents respond with 0.15
    f = piece_rate((0.15, 0.15), QUAD22)
    res = find_equilibria(f, QUAD22)[0]
    assert res.profile.probs == pytest.approx((0.15, 0.15), abs=1e-10)
    frontier = brute_force_frontier(QUAD22, 100)
    assert dominated_by(frontier.points, res.profile)
    assert dominated_by(frontier.points, (0.15, 0.15), slack=0.0)


def test_frontier_dominance_audit_passes_at_fine_grid():
    result = brute_force_frontier(QUAD22, 100, non_sge_samples=25, seed=11)
    assert result.checks
    assert result.all_dominated()
    assert result.slack_allowed == pytest.approx(0.02)


def test_frontier_three_agents_small_grid():
    costs = CostModel.power([2, 2, 2])
    result = brute_force_frontier(costs, 2, non_sge_samples=5, seed=7)
    assert result.all_dominated()
    for pt in result.points:
        assert abs(pt.z - 1.0) <= 1e-8


def test_frontier_default_seed_is_reproducible():
    first = brute_force_frontier(QUAD22, 4, non_sge_samples=3)
    second = brute_force_frontier(QUAD22, 4, non_sge_samples=3)
    assert first.checks
    assert first == second


def test_frontier_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_frontier(CostModel.power([2, 2, 2, 2]), 3)


def test_sub_budget_fgn_equilibria_have_z_below_one():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        costs = CostModel.power(rng.uniform(1.5, 4, n))
        table = np.zeros((1 << n, n))
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if (mask >> i) & 1]
            table[mask, members] = rng.dirichlet(np.ones(len(members))) * rng.uniform(0.2, 0.9)
        from contractgames import Contract

        f = Contract(n, table)
        for res in find_equilibria(f, costs, SolverOptions(seed=0)):
            if res.converged:
                assert z_value(res.profile, costs) < 1.0 - 1e-10
