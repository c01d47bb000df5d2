import numpy as np
import pytest

from contractgames import (
    CostModel,
    LuceSpec,
    NoConvergence,
    NotAdmissible,
    Objective,
    ObjectiveNotIncreasing,
    ParameterOutOfRange,
    SolverOptions,
    TabulatedMonotone,
    brute_force_frontier,
    equilibrium_residual,
    expand_luce,
    find_equilibria,
    lambda_thresholds,
    luce_condition,
    maximal_candidate,
    optimize_principal,
    synthesize_luce,
    two_agent_equilibrium,
    two_agent_equilibrium_derivatives,
    two_agent_optimal_lambda,
    two_agent_sge,
    z_value,
)

import oracles
from contractgames import optimize

QUAD22 = CostModel.power([2, 2])


def winner_lambda(optimum):
    """Agent 1's joint-success share of the winning contract."""
    return float(expand_luce(optimum.spec, 2).table[0b11, 0])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_two_agent_equilibrium_examples():
    assert two_agent_equilibrium(2, 2, 0.5) == pytest.approx((0.4, 0.4))
    assert two_agent_equilibrium(2, 2, 1.0) == pytest.approx((0.5, 0.25))
    assert two_agent_equilibrium(2, 2, 0.0) == pytest.approx((0.25, 0.5))


def test_two_agent_equilibrium_matches_linear_solve():
    for c1 in (1.5, 2.0, 4.0):
        for c2 in (1.5, 2.0, 4.0):
            for lam in (0.0, 0.3, 0.77, 1.0):
                assert two_agent_equilibrium(c1, c2, lam) == pytest.approx(
                    oracles.two_agent_foc_solve(c1, c2, lam), abs=1e-12
                )


def test_two_agent_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        two_agent_equilibrium(1.0, 2.0, 0.5)
    with pytest.raises(ParameterOutOfRange):
        two_agent_equilibrium(2.0, 2.0, 1.2)
    with pytest.raises(ParameterOutOfRange):
        two_agent_optimal_lambda(2.0, 2.0, 0.0)


def test_derivatives_match_central_differences():
    for c1, c2 in ((1.5, 2.0), (2.0, 2.0), (4.0, 1.5)):
        for lam in (0.1, 0.5, 0.9):
            dp1, dp2 = two_agent_equilibrium_derivatives(c1, c2, lam)
            fd1 = oracles.central_diff(lambda x: two_agent_equilibrium(c1, c2, x)[0], lam)
            fd2 = oracles.central_diff(lambda x: two_agent_equilibrium(c1, c2, x)[1], lam)
            assert dp1 == pytest.approx(fd1, abs=1e-6)
            assert dp2 == pytest.approx(fd2, abs=1e-6)


def test_thresholds_exact_for_symmetric_quadratic():
    lower, upper = lambda_thresholds(2.0, 2.0)
    assert lower == 0.4
    assert upper == 2.5


def test_optimal_lambda_corners_and_midpoint():
    assert two_agent_optimal_lambda(2, 2, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert two_agent_optimal_lambda(2, 2, 0.4) == 0.0
    assert two_agent_optimal_lambda(2, 2, 0.25) == 0.0
    assert two_agent_optimal_lambda(2, 2, 2.5) == 1.0
    assert two_agent_optimal_lambda(2, 2, 3.5) == 1.0


def test_optimal_lambda_interior_solves_first_order_condition():
    for w in (0.6, 1.4, 2.2):
        lam = two_agent_optimal_lambda(2, 2, w)
        dp1, dp2 = two_agent_equilibrium_derivatives(2, 2, lam)
        assert dp2 / dp1 == pytest.approx(-w, abs=1e-9)


def test_optimal_lambda_matches_bisection():
    rng = np.random.default_rng(0)
    for _ in range(500):
        c1, c2 = np.exp(rng.uniform(np.log(1.01), np.log(50.0), 2))
        lower, upper = lambda_thresholds(c1, c2)
        w = rng.uniform(0.9 * lower, 1.1 * upper)
        assert two_agent_optimal_lambda(c1, c2, w) == pytest.approx(
            oracles.two_agent_optimal_lambda_bisect(c1, c2, w), abs=1e-11)


# (1.2, 5.0) puts the unclipped root one ulp above 1 just below the upper threshold.
@pytest.mark.parametrize("c1, c2", [(1.2, 1.2), (1.2, 5.0), (1.2, 20.0), (2.0, 2.0), (5.0, 2.0),
                                    (20.0, 20.0)])
def test_optimal_lambda_at_one_and_at_the_thresholds(c1, c2):
    assert two_agent_optimal_lambda(c1, c2, 1.0) == 0.5
    lower, upper = lambda_thresholds(c1, c2)
    for w in (lower, np.nextafter(lower, 2.0), np.nextafter(upper, 0.0), upper):
        lam = two_agent_optimal_lambda(c1, c2, w)
        assert 0.0 <= lam <= 1.0
        assert lam == pytest.approx(oracles.two_agent_optimal_lambda_bisect(c1, c2, w), abs=1e-11)
    assert two_agent_optimal_lambda(c1, c2, lower) == 0.0
    assert two_agent_optimal_lambda(c1, c2, upper) == 1.0


def test_optimal_lambda_monotone_in_w():
    grid = np.linspace(0.05, 3.0, 60)
    lams = [two_agent_optimal_lambda(2, 3, w) for w in grid]
    assert np.all(np.diff(lams) >= -1e-12)


def test_closed_form_matches_solver_dense_grid():
    opts = SolverOptions(tolerance=1e-12, starts=2)
    for c1 in (1.5, 2.0, 4.0):
        for c2 in (1.5, 2.0, 4.0):
            costs = CostModel.power([c1, c2])
            for lam in np.arange(0.0, 1.0001, 0.01):
                res = find_equilibria(two_agent_sge(lam), costs, opts)[0]
                assert res.converged
                expected = two_agent_equilibrium(c1, c2, lam)
                assert res.profile.probs == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# partition enumeration
# ---------------------------------------------------------------------------

def test_ordered_partition_counts():
    assert [len(oracles.ordered_set_partitions(n)) for n in (1, 2, 3, 4, 5)] == [1, 3, 13, 75, 541]


def test_ordered_partitions_cover_and_order():
    parts = oracles.ordered_set_partitions(3)
    assert parts[0] == ((0, 1, 2),)
    sizes = [len(p) for p in parts]
    assert sizes == sorted(sizes)
    for part in parts:
        flat = sorted(i for block in part for i in block)
        assert flat == [0, 1, 2]
    assert len(set(parts)) == len(parts)


# ---------------------------------------------------------------------------
# generic optimizer
# ---------------------------------------------------------------------------

def test_optimizer_symmetric_objective_splits_equally():
    opt = optimize_principal(Objective.linear([1, 1]), QUAD22, seed=0)
    assert opt.spec.partition == ((0, 1),)
    assert opt.spec.weights == pytest.approx((0.5, 0.5), abs=1e-6)
    assert opt.equilibrium.probs == pytest.approx((0.4, 0.4), abs=1e-8)
    assert opt.value == pytest.approx(0.8, abs=1e-8)
    assert opt.search_trace > 0


def test_optimizer_biased_objective_picks_priority():
    opt = optimize_principal(Objective.linear([3, 1]), QUAD22, seed=0)
    assert opt.spec.partition == ((0,), (1,))
    assert opt.value == pytest.approx(1.75, abs=1e-9)


def test_optimizer_single_agent_trivial():
    opt = optimize_principal(Objective.linear([1]), CostModel.power([2]), seed=0)
    assert opt.spec.partition == ((0,),)
    assert opt.equilibrium.probs == pytest.approx((0.5,), abs=1e-10)


def test_optimizer_agrees_with_closed_form_lambda():
    for w in (0.5, 1.0, 2.0, 3.0):
        opt = optimize_principal(Objective.linear([w, 1]), QUAD22, seed=1)
        lam = winner_lambda(opt)
        assert lam == pytest.approx(two_agent_optimal_lambda(2, 2, w), abs=1e-4)


def test_optimizer_output_is_maximal_candidate():
    for w in (0.7, 1.0, 1.8):
        opt = optimize_principal(Objective.linear([w, 1]), QUAD22, seed=2)
        assert maximal_candidate(opt.equilibrium, QUAD22, tol=1e-8)


def test_optimizer_three_agents_symmetric():
    costs = CostModel.power([2, 2, 2])
    opt = optimize_principal(Objective.linear([1, 1, 1]), costs, seed=3)
    assert opt.spec.partition == ((0, 1, 2),)
    assert opt.spec.weights == pytest.approx((1 / 3,) * 3, abs=1e-4)
    p = opt.equilibrium.probs
    assert p[0] == pytest.approx(p[1], abs=1e-6)
    assert p[1] == pytest.approx(p[2], abs=1e-6)


def test_optimizer_custom_objective_and_probe_warning():
    opt = optimize_principal(Objective.custom(lambda p: min(p)), QUAD22, seed=4)
    # maximizing the minimum coordinate also lands on the equal split
    assert opt.spec.weights == pytest.approx((0.5, 0.5), abs=1e-4)
    with pytest.warns(ObjectiveNotIncreasing):
        optimize_principal(
            Objective.custom(lambda p: -p[0]), QUAD22, seed=5,
        )


def test_optimizer_searches_tiers_beyond_six_agents():
    # The weight search used to fall back to one tier for n > 6 and stopped
    # at 7.179496 here; two tiers reach 7.183201.
    costs = CostModel.power([2.0] * 8)
    objective = Objective.linear([8, 8, 1, 1, 1, 1, 1, 1])
    two_tier = LuceSpec(((0, 1), (2, 3, 4, 5, 6, 7)), (1.0,) * 8)
    direct = max(objective.value(r.profile.probs)
                 for r in find_equilibria(expand_luce(two_tier, 8), costs) if r.converged)
    opt = optimize_principal(objective, costs, seed=0)
    assert opt.value >= direct - 1e-9
    assert len(opt.spec.partition) == 2


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_optimizer_matches_partition_search_oracle(n, seed):
    rng = np.random.default_rng(seed)
    costs = CostModel.power(rng.uniform(2.0, 4.0, size=n))
    objective = Objective.linear(rng.uniform(0.5, 2.0, size=n))
    solver = SolverOptions(starts=2)
    value, _, _ = oracles.partition_search_optimum(
        objective, costs, solver, grid_resolution=6, restarts=2, seed=seed)
    assert optimize_principal(objective, costs, seed=seed).value == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize("scales,weights,resolution", [
    ((2.0, 3.0), (1.0, 1.5), 40),
    ((2.0, 2.5, 3.0), (1.2, 0.7, 1.0), 4),
])
def test_some_luce_contract_is_optimal(scales, weights, resolution):
    costs = CostModel.power(scales)
    objective = Objective.linear(weights)
    frontier = brute_force_frontier(costs, resolution, options=SolverOptions(starts=2))
    best = max(objective.value(pt.profile.probs) for pt in frontier.points)
    opt = optimize_principal(objective, costs, seed=0)
    # Each frontier point is an exact equilibrium of some contract, so no
    # point may beat the Luce optimum beyond solver tolerance, which is much
    # tighter than the grid's slack; the grid must come within that slack.
    assert best <= opt.value + 1e-8
    assert best >= opt.value - frontier.slack_allowed * sum(weights)


def test_optimizer_with_tabulated_costs_matches_power_costs():
    # This marginal is 2p up to p = 0.5, where the optimum lies, so the
    # central-difference slope must reproduce the power-cost answer.
    tab = TabulatedMonotone((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))
    objective = Objective.linear([1.0, 2.0, 1.5])
    power = optimize_principal(objective, CostModel.power([2.0] * 3), seed=0)
    tabulated = optimize_principal(objective, CostModel((tab,) * 3), seed=0)
    assert tabulated.value == pytest.approx(power.value, abs=1e-9)
    assert tabulated.spec.partition == power.spec.partition


def test_failed_start_is_counted(monkeypatch):
    solve = optimize._ProfileSearch.solve
    calls = []

    def first_start_fails(self, p0):
        calls.append(p0)
        p = solve(self, p0)
        return p * 1.5 if len(calls) == 1 else p

    monkeypatch.setattr(optimize._ProfileSearch, "solve", first_start_fails)
    opt = optimize_principal(Objective.linear([1, 1]), QUAD22, seed=0)
    assert opt.failed_starts == 1
    assert opt.value == pytest.approx(0.8, abs=1e-8)


def test_solver_stops_outside_constraint_are_projected_back(monkeypatch):
    # At this corner SLSQP stops a hair outside z <= 1 (status 8) from the
    # equal-weights start; the Gauss-Newton steps put it back inside.
    import scipy.optimize

    minimize, outside = scipy.optimize.minimize, []

    def recording_minimize(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        p = np.clip(res.x, optimize._EDGE, 1.0 - optimize._EDGE)
        outside.append(bool(np.any(kwargs["constraints"][0]["fun"](p) < 0.0)))
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
    opt = optimize_principal(Objective.linear([0.4, 1]), QUAD22, seed=0)
    assert any(outside), outside
    assert opt.failed_starts == 0
    assert z_value(opt.equilibrium, QUAD22) <= 1.0 + 1e-10


def test_synthesis_failure_falls_back_to_the_other_profile(monkeypatch):
    calls = []
    synthesize = optimize.synthesize_luce

    def first_call_fails(p, costs):
        calls.append(np.array(p))
        if len(calls) == 1:
            raise NoConvergence("first candidate fails")
        return synthesize(p, costs)

    monkeypatch.setattr(optimize, "synthesize_luce", first_call_fails)
    search = optimize._ProfileSearch(Objective.linear([0.4, 1]), QUAD22)
    near_corner = np.array(two_agent_equilibrium(2, 2, 1e-7))
    spec, p = search.contract(near_corner)
    assert len(calls) == 2
    assert not np.array_equal(calls[0], calls[1])
    assert np.array_equal(p, calls[1])
    assert spec.partition == synthesize(p, QUAD22).spec.partition


def test_near_tight_prefix_is_snapped_before_synthesis(monkeypatch):
    # A joint share of 1e-7 leaves the prefix {agent 2} 2e-8 short of tight:
    # the snap makes it tight, so the first synthesis call already succeeds.
    calls = []
    synthesize = optimize.synthesize_luce
    monkeypatch.setattr(optimize, "synthesize_luce",
                        lambda p, costs: calls.append(p) or synthesize(p, costs))
    search = optimize._ProfileSearch(Objective.linear([0.4, 1]), QUAD22)
    near_corner = np.array(two_agent_equilibrium(2, 2, 1e-7))
    spec, p = search.contract(near_corner)
    assert spec.partition == ((1,), (0,))
    assert len(calls) == 1
    assert p == pytest.approx((0.25, 0.5), abs=1e-12)


def test_optimizer_just_past_corner_threshold_still_returns_contract():
    # The optimal joint share here is about 1e-5, so agent 1's within-tier
    # weight is about 1e-5; Newton synthesis reaches it directly.
    w = 0.4 + 1e-5
    lam = two_agent_optimal_lambda(2, 2, w)
    p1, p2 = two_agent_equilibrium(2, 2, lam)
    opt = optimize_principal(Objective.linear([w, 1]), QUAD22, seed=0)
    assert opt.value == pytest.approx(w * p1 + p2, abs=1e-9)
    assert opt.value <= w * p1 + p2 + 1e-12


def test_non_increasing_objective_contract_implements_its_optimum():
    # Maximizing -p_0 leaves z(p) < 1, so the contract needs less than the
    # whole budget; at unit budget it would implement (0.4, 0.4) instead.
    with pytest.warns(ObjectiveNotIncreasing):
        opt = optimize_principal(Objective.custom(lambda p: -p[0]), QUAD22, seed=5)
    assert opt.budget < 0.5
    contract = expand_luce(opt.spec, 2, opt.budget)
    assert equilibrium_residual(contract, opt.equilibrium, QUAD22) <= 1e-10
    assert opt.value == pytest.approx(-opt.equilibrium[0], abs=1e-15)


def test_increasing_objective_needs_one_start(monkeypatch):
    # The equal-weights start decides; no seeded start is computed.
    starts = []
    equilibrium = optimize._single_tier_equilibrium
    monkeypatch.setattr(optimize, "_single_tier_equilibrium",
                        lambda w, costs: starts.append(w) or equilibrium(w, costs))
    opt = optimize_principal(Objective.linear([1, 2, 1]), CostModel.power([2, 2, 3]), seed=0)
    assert len(starts) == 1
    assert np.array_equal(starts[0], np.ones(3))
    assert opt.failed_starts == 0


def test_default_seed_is_reproducible():
    # -p_0 fails from the equal-weights start, so the seeded starts decide.
    objective = Objective.custom(lambda p: -p[0])
    with pytest.warns(ObjectiveNotIncreasing):
        first = optimize_principal(objective, QUAD22)
    with pytest.warns(ObjectiveNotIncreasing):
        second = optimize_principal(objective, QUAD22)
    assert first.failed_starts > 0
    assert first == second


@pytest.mark.parametrize("seed", range(20))
def test_first_working_start_is_as_good_as_the_best_of_eight(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    sigma = (0.3, 1.5, 2.5)[seed % 3]
    costs = CostModel.power(rng.uniform(1.5, 4.0, size=n), rng.uniform(2.0, 4.0, size=n))
    objective = Objective.linear(np.exp(sigma * rng.normal(size=n)))
    best = oracles.best_of_starts(objective, costs, seed)
    value = optimize_principal(objective, costs, seed=seed).value
    assert value >= best - 1e-9 * abs(best)


def test_increasing_objective_exhausts_the_budget():
    opt = optimize_principal(Objective.linear([1, 2, 1]), CostModel.power([2, 2, 3]), seed=0)
    assert opt.budget == pytest.approx(1.0, abs=1e-9)


def test_optimizer_at_fifty_agents():
    # No step builds a 2^n table, so n = 50 runs like n = 3.
    rng = np.random.default_rng(50)
    costs = CostModel.power(rng.uniform(2.0, 4.0, size=50))
    opt = optimize_principal(Objective.linear(rng.uniform(0.5, 2.0, size=50)), costs, seed=0)
    assert opt.failed_starts == 0
    assert z_value(opt.equilibrium, costs) == pytest.approx(1.0, abs=1e-9)
    assert luce_condition(opt.equilibrium, costs).holds
    again = synthesize_luce(opt.equilibrium, costs)
    assert again.spec.partition == opt.spec.partition
    assert again.residual <= 1e-10


TAB = TabulatedMonotone((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
@pytest.mark.parametrize("kind", ["power", "tabulated"])
def test_starts_match_table_equilibria(n, kind):
    rng = np.random.default_rng(n)
    costs = (CostModel.power(rng.uniform(2.0, 4.0, size=n)) if kind == "power"
             else CostModel((TAB,) * n))
    for w in [np.ones(n)] + [np.exp(rng.normal(size=n)) for _ in range(7)]:
        table = find_equilibria(expand_luce(LuceSpec.single_block(w), n), costs,
                                SolverOptions(starts=1))[0]
        assert table.converged
        start = optimize._single_tier_equilibrium(w, costs)
        assert np.max(np.abs(start - table.profile.as_array())) <= 1e-9


def test_start_at_two_hundred_agents_converges_in_few_sweeps(monkeypatch):
    # Plain sweeps from the origin stopped at the 10,000-sweep cap here.
    rng = np.random.default_rng(200)
    costs = CostModel.power(rng.uniform(2.0, 4.0, size=200))
    w = np.ones(200)
    sweeps = []
    gains = optimize._tier_gains

    def counting(nodes, p):
        sweeps.append(1)
        return gains(nodes, p)

    monkeypatch.setattr(optimize, "_tier_gains", counting)
    p = optimize._single_tier_equilibrium(w, costs)
    assert len(sweeps) <= 50
    b = costs.inverse_marginal_vec(gains(optimize._tier_nodes(w), p))
    assert np.max(np.abs(b - p)) <= 1e-10


def test_start_that_hits_the_sweep_cap_is_a_failed_start(monkeypatch):
    # The equal-weight start is given one sweep, which cannot converge from
    # the origin; the other starts keep the usual cap.
    iterate = optimize._iterate
    calls = []

    def first_capped(best_responses, starts, opts):
        calls.append(opts)
        if len(calls) == 1:
            opts = SolverOptions(tolerance=opts.tolerance, max_iterations=1)
        return iterate(best_responses, starts, opts)

    monkeypatch.setattr(optimize, "_iterate", first_capped)
    opt = optimize_principal(Objective.linear([1, 1]), QUAD22, seed=0)
    assert calls[0].max_iterations == optimize._START_SWEEPS
    assert opt.failed_starts == 1
    assert opt.value == pytest.approx(0.8, abs=1e-8)
    monkeypatch.setattr(optimize, "_START_SWEEPS", 1)
    with pytest.raises(NoConvergence, match="none of 8 starts"):
        optimize_principal(Objective.linear([1, 1]), QUAD22, seed=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_optimum_is_a_fixed_point_of_its_contract(n):
    rng = np.random.default_rng(n)
    costs = CostModel.power(rng.uniform(1.5, 4.0, size=n), rng.uniform(2.0, 3.0, size=n))
    opt = optimize_principal(Objective.linear(rng.uniform(0.5, 2.0, size=n)), costs, seed=n)
    contract = expand_luce(opt.spec, n, opt.budget)
    p = opt.equilibrium.as_array()
    results = find_equilibria(contract, costs, SolverOptions(tolerance=1e-12, starts=2),
                              initial_profiles=(p,))
    assert any(r.converged and np.max(np.abs(r.profile.as_array() - p)) <= 1e-8
               for r in results)


def test_local_solve_evaluates_each_point_once(monkeypatch):
    # SLSQP asks for constraint values and Jacobian separately at one point.
    running, solves = [], []
    rows, local = optimize._ProfileSearch.rows, optimize._ProfileSearch.local

    def recording_rows(self, p, masks):
        if running:
            running[-1].append(p.copy())
        return rows(self, p, masks)

    def recording_local(self, p0, equal):
        running.append([])
        try:
            return local(self, p0, equal)
        finally:
            solves.append(running.pop())

    monkeypatch.setattr(optimize._ProfileSearch, "rows", recording_rows)
    monkeypatch.setattr(optimize._ProfileSearch, "local", recording_local)
    optimize_principal(Objective.linear([1, 4, 2, 8, 0.5]),
                       CostModel.power([2, 3, 2.5, 4, 3]), seed=0)
    assert sum(len(points) for points in solves) > 50
    assert not any(np.array_equal(p, q) for points in solves for p, q in zip(points, points[1:]))


@pytest.mark.parametrize("scales", [(1.0, 1.0), (0.8, 3.0)])
def test_optimizer_rejects_inadmissible_costs(scales):
    with pytest.raises(NotAdmissible, match="agent 0"):
        optimize_principal(Objective.linear([1, 1]), CostModel.power(scales), seed=0)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective.linear([1.0, 0.0])
    assert Objective.linear([2, 1]).value((0.5, 0.25)) == pytest.approx(1.25)
