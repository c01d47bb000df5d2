import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractgames import (
    ConditionReport,
    CostModel,
    DegenerateProfile,
    InconsistentTightSets,
    LuceSpec,
    NoConvergence,
    NotLuceImplementable,
    SolverOptions,
    best_response,
    derive_partition,
    equilibrium_residual,
    expand_luce,
    find_equilibria,
    luce_condition,
    marginal_gain,
    required_budget,
    synthesize_luce,
    two_agent_equilibrium,
)
from contractgames.equilibrium import _marginal_gains, _Workspace
from contractgames.luce import _luce_gains, _tier_gains, _tier_jacobian, _tier_nodes

import oracles

QUAD22 = CostModel.power([2, 2])


def random_instance(rng, n):
    labels = rng.integers(0, n, size=n)
    blocks = tuple(
        tuple(i for i in range(n) if labels[i] == lab)
        for lab in sorted(set(int(x) for x in labels))
    )
    weights = rng.uniform(0.15, 1.0, size=n)
    spec = LuceSpec(blocks, tuple(weights))
    costs = CostModel.power(rng.uniform(1.5, 4, n), rng.uniform(2, 3, n))
    return spec, costs


# ---------------------------------------------------------------------------
# required budget
# ---------------------------------------------------------------------------

def test_required_budget_examples():
    assert required_budget((0.4, 0.4), QUAD22) == pytest.approx(1.0, abs=1e-12)
    assert required_budget((0.5, 0.25), QUAD22) == pytest.approx(1.0, abs=1e-12)
    assert required_budget((0.2, 0.2), QUAD22) == pytest.approx(0.16 / 0.36, abs=1e-12)


def test_required_budget_rejects_boundary():
    with pytest.raises(DegenerateProfile):
        required_budget((0.0, 0.3), QUAD22)


# ---------------------------------------------------------------------------
# partition derivation
# ---------------------------------------------------------------------------

def test_derive_partition_single_tight_set():
    report = ConditionReport(n=2, holds=True, worst_subset=0b11, lhs=1.0, rhs=1.0,
                             tight_sets=(0b11,))
    assert derive_partition(report) == ((0, 1),)


def test_derive_partition_chain():
    report = luce_condition((0.5, 0.25), QUAD22)
    assert derive_partition(report) == ((0,), (1,))


def test_derive_partition_incomparable_sets_raise():
    report = ConditionReport(n=2, holds=True, worst_subset=0b11, lhs=1.0, rhs=1.0,
                             tight_sets=(0b01, 0b10, 0b11))
    with pytest.raises(InconsistentTightSets):
        derive_partition(report)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesize_symmetric_profile_gives_equal_split():
    result = synthesize_luce((0.4, 0.4), QUAD22)
    assert result.spec.partition == ((0, 1),)
    assert result.spec.weights == pytest.approx((0.5, 0.5), abs=1e-9)
    assert result.budget == pytest.approx(1.0, abs=1e-12)
    assert result.residual <= 1e-10


def test_synthesize_priority_profile():
    result = synthesize_luce((0.5, 0.25), QUAD22)
    assert result.spec.partition == ((0,), (1,))
    assert result.budget == pytest.approx(1.0, abs=1e-12)
    assert result.tight_chain == (0b01, 0b11)


def test_synthesize_rejects_non_implementable_profile():
    with pytest.raises(NotLuceImplementable) as err:
        synthesize_luce((0.5, 0.05), CostModel.power([2, 4]))
    assert err.value.report.worst_subset == 0b01


def test_synthesize_soundness_expanded_contract_returns_profile():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        spec, costs = random_instance(rng, n)
        f = expand_luce(spec, n)
        res = find_equilibria(f, costs, SolverOptions(tolerance=1e-12, seed=0))[0]
        assert res.converged
        result = synthesize_luce(res.profile, costs)
        g = expand_luce(result.spec, n, result.budget)
        assert equilibrium_residual(g, res.profile, costs) <= 1e-8


def test_synthesize_roundtrip_recovers_spec():
    rng = np.random.default_rng(31)
    done = 0
    while done < 15:
        n = int(rng.integers(2, 7))
        spec, costs = random_instance(rng, n)
        f = expand_luce(spec, n)
        res = find_equilibria(f, costs, SolverOptions(tolerance=1e-12, seed=1))[0]
        if not res.converged or min(res.profile) < 0.02:
            continue
        report = luce_condition(res.profile, costs)
        assert report.holds
        result = synthesize_luce(res.profile, costs)
        assert result.spec.partition == spec.partition
        assert result.spec.weights == pytest.approx(spec.weights, abs=1e-6)
        assert result.budget == pytest.approx(1.0, abs=1e-8)
        done += 1


def test_budget_identity_for_synthesized_contracts():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        p = tuple(rng.uniform(0.1, 0.5, n))
        costs = CostModel.power(rng.uniform(1.5, 4, n))
        if not luce_condition(p, costs).holds:
            continue
        result = synthesize_luce(p, costs)
        arr = np.array(p)
        spend = float(arr @ costs.marginal_vec(arr))
        p_any = 1.0 - float(np.prod(1.0 - arr))
        assert result.budget * p_any == pytest.approx(spend, abs=1e-12)


def test_block_decoupling_lower_tiers_do_not_move_marginal_gain():
    # agent 0 sits in the top tier; changing tier-2 probabilities must leave
    # its marginal gain unchanged to 1e-12
    spec = LuceSpec(((0, 1), (2, 3)), (0.6, 0.4, 0.5, 0.5))
    f = expand_luce(spec, 4)
    base = marginal_gain(0, f, (0.3, 0.4, 0.2, 0.6))
    moved = marginal_gain(0, f, (0.3, 0.4, 0.9, 0.05))
    assert moved == pytest.approx(base, abs=1e-12)
    # but a same-tier change does move it
    assert marginal_gain(0, f, (0.3, 0.8, 0.2, 0.6)) != pytest.approx(base, abs=1e-6)


# ---------------------------------------------------------------------------
# table-free gains and Newton synthesis
# ---------------------------------------------------------------------------

@st.composite
def tiered_games(draw, n_max=12):
    """(spec, p, budget): 1-3 tiers, log-weights in [-8, 8], p in [0.001, 0.95]."""
    n = draw(st.integers(1, n_max))
    order = draw(st.permutations(range(n)))
    tiers = draw(st.integers(1, min(3, n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=tiers - 1,
                               max_size=tiers - 1))) if n > 1 else []
    blocks = tuple(tuple(b) for b in np.split(np.array(order), cuts))
    log_w = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    p = draw(st.lists(st.floats(0.001, 0.95), min_size=n, max_size=n))
    budget = draw(st.floats(0.25, 4.0))
    return LuceSpec(blocks, tuple(np.exp(log_w))), np.array(p), budget


@settings(max_examples=60, deadline=None)
@given(tiered_games())
def test_quadrature_gains_match_the_table(game):
    spec, p, budget = game
    table = _marginal_gains(_Workspace(expand_luce(spec, spec.n, budget)), p)
    ours = _luce_gains(spec.partition, np.array(spec.weights), p, budget)
    assert np.max(np.abs(ours - table)) <= 1e-12


def test_tier_gain_jacobian_matches_central_differences():
    rng = np.random.default_rng(17)
    for m in (1, 2, 5, 9):
        log_w, p = rng.uniform(-8.0, 8.0, m), rng.uniform(0.001, 0.95, m)
        gains, jac = _tier_jacobian(np.exp(log_w), p)
        # the sweeps' gains-only path gives the same gains, also with its
        # weight-only terms computed once and reused at another profile
        nodes = _tier_nodes(np.exp(log_w))
        assert np.array_equal(gains, _tier_gains(nodes, p))
        q = rng.uniform(0.0, 0.95, m)
        assert np.array_equal(_tier_jacobian(np.exp(log_w), q)[0], _tier_gains(nodes, q))
        h = 1e-6
        numeric = np.column_stack([
            (_tier_gains(_tier_nodes(np.exp(log_w + h * e)), p)
             - _tier_gains(_tier_nodes(np.exp(log_w - h * e)), p)) / (2 * h)
            for e in np.eye(m)])
        assert np.max(np.abs(jac - numeric)) <= 1e-8
        # rescaling every weight leaves the gains unchanged
        assert np.max(np.abs(jac.sum(axis=1))) <= 1e-13


def implementing_costs(spec, p, rng):
    """Power costs under which p is the equilibrium of spec at a unit budget."""
    exponents = rng.uniform(2.0, 3.0, len(p))
    r = _luce_gains(spec.partition, np.array(spec.weights), p)
    return CostModel.power(r / p ** (exponents - 1.0), exponents)


def test_synthesize_matches_the_former_weight_iteration():
    rng = np.random.default_rng(43)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        spec, _ = random_instance(rng, n)
        p = rng.uniform(0.05, 0.6, n)
        costs = implementing_costs(spec, p, rng)
        ours = synthesize_luce(p, costs).spec
        ref = oracles.synthesize_luce_iteration(p, costs)
        assert ours.partition == ref.partition == spec.partition
        assert ours.weights == pytest.approx(ref.weights, abs=1e-8)
        assert ours.weights == pytest.approx(spec.weights, abs=1e-12)


@pytest.mark.parametrize("lam", [1e-5, 1e-7])
def test_synthesize_reaches_tiny_within_tier_weights(lam):
    # The former iteration stalled on weights below about 1e-4.
    result = synthesize_luce(two_agent_equilibrium(2, 2, lam), QUAD22)
    assert result.spec.partition == ((0, 1),)
    assert result.spec.weights[0] == pytest.approx(lam, rel=1e-5)
    assert result.residual <= 1e-10


def test_max_iterations_bounds_the_newton_steps():
    p = (0.3, 0.15, 0.2)
    costs = implementing_costs(LuceSpec.single_block((1.0, 0.2, 3.0)), np.array(p),
                               np.random.default_rng(0))
    with pytest.raises(NoConvergence) as err:
        synthesize_luce(p, costs, max_iterations=0)
    assert err.value.best_residual > 1e-10
    assert synthesize_luce(p, costs, max_iterations=20).residual <= 1e-10


def test_synthesize_symmetric_profile_at_200_agents():
    n = 200
    result = synthesize_luce((0.004,) * n, CostModel.power([2.0] * n))
    assert result.spec.partition == (tuple(range(n)),)
    assert result.spec.weights == pytest.approx((1 / n,) * n, rel=1e-12)
    assert result.residual <= 1e-10


def test_synthesize_recovers_a_two_tier_spec_at_200_agents():
    rng = np.random.default_rng(200)
    n = 200
    order = [int(i) for i in rng.permutation(n)]
    spec = LuceSpec((tuple(order[:60]), tuple(order[60:])), tuple(rng.uniform(0.5, 2.0, n)))
    p = rng.uniform(0.002, 0.01, n)
    costs = implementing_costs(spec, p, rng)
    assert required_budget(p, costs) == pytest.approx(1.0, abs=1e-12)
    result = synthesize_luce(p, costs)
    assert result.spec.partition == spec.partition
    assert result.spec.weights == pytest.approx(spec.weights, rel=1e-9)
    assert result.residual <= 1e-10


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def test_weight_jitter_moves_the_best_response():
    # tilting the equal split to (0.55, 0.45) lowers agent 2's gain, so its
    # best response falls below 0.4
    tilted = expand_luce(LuceSpec.single_block([0.55, 0.45]), 2)
    assert best_response(1, tilted, (0.4, 0.4), QUAD22) < 0.4
    assert best_response(0, tilted, (0.4, 0.4), QUAD22) > 0.4


def test_partition_swap_separates_equilibrium():
    swapped = expand_luce(LuceSpec.priority([1, 0]), 2)
    res = find_equilibria(swapped, QUAD22)[0]
    gap = np.max(np.abs(res.profile.as_array() - np.array([0.5, 0.25])))
    assert gap > 0.2


def test_verify_uniqueness_reports_positive_separation():
    result = synthesize_luce((0.4, 0.4), QUAD22)
    report = oracles.verify_uniqueness(result, (0.4, 0.4), QUAD22, trials=40, seed=5)
    assert report.trials == 40
    assert report.worst_separation > 1e-4


def test_verify_uniqueness_skips_recanonicalized_duplicates():
    # all-singleton tiers make every weight jitter collapse to the original
    # spec; those draws must be skipped, with partition mutations filling in
    result = synthesize_luce((0.5, 0.25), QUAD22)
    report = oracles.verify_uniqueness(result, (0.5, 0.25), QUAD22, trials=20, seed=6)
    assert report.trials == 20
    assert report.worst_separation > 1e-3


def test_verify_uniqueness_across_random_roundtrips():
    rng = np.random.default_rng(41)
    done = 0
    while done < 5:
        n = int(rng.integers(2, 5))
        spec, costs = random_instance(rng, n)
        f = expand_luce(spec, n)
        res = find_equilibria(f, costs, SolverOptions(tolerance=1e-12, seed=2))[0]
        if not res.converged or min(res.profile) < 0.05:
            continue
        result = synthesize_luce(res.profile, costs)
        report = oracles.verify_uniqueness(result, res.profile, costs, trials=20, seed=done)
        assert report.worst_separation > 1e-4
        done += 1
