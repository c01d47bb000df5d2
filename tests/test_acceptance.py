"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All corpora are seeded, so the suite is deterministic.
"""

import warnings

import numpy as np
import pytest

from contractgames import (
    Contract,
    CostModel,
    LuceSpec,
    NotLuceImplementable,
    Objective,
    SolverOptions,
    bonus_pool,
    brute_force_frontier,
    expand_luce,
    find_equilibria,
    implementing_fgn_samples,
    lambda_thresholds,
    luce_condition,
    mps_compare,
    optimize_principal,
    outcome_probabilities,
    payment_distribution,
    piece_rate,
    synthesize_luce,
    two_agent_equilibrium,
    two_agent_optimal_lambda,
    two_agent_sge,
    z_value,
)

import oracles

SEED = 20260810
QUAD22 = CostModel.power([2, 2])


def report(k, label):
    print(f"criterion {k}: PASS - {label}")


def random_power_costs(rng, n):
    return CostModel.power(rng.uniform(1.5, 4.0, n), rng.uniform(2.0, 3.0, n))


def random_sge_contract(rng, n, scale=1.0):
    table = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        table[mask, members] = rng.dirichlet(np.ones(len(members))) * scale
    return Contract(n, table)


def random_luce_spec(rng, n):
    labels = rng.integers(0, n, size=n)
    blocks = tuple(
        tuple(i for i in range(n) if labels[i] == lab)
        for lab in sorted(set(int(x) for x in labels))
    )
    weights = np.empty(n)
    for block in blocks:
        w = rng.dirichlet(3.0 * np.ones(len(block)))
        while w.min() < 0.05:
            w = rng.dirichlet(3.0 * np.ones(len(block)))
        weights[list(block)] = w
    return LuceSpec(blocks, tuple(weights))


@pytest.fixture(scope="module")
def sge_corpus():
    """200 random budget-exhausting contracts with their equilibria."""
    rng = np.random.default_rng(SEED)
    corpus = []
    for k in range(200):
        n = int(rng.integers(2, 5))
        costs = random_power_costs(rng, n)
        f = random_sge_contract(rng, n)
        results = find_equilibria(
            f, costs, SolverOptions(tolerance=1e-11, starts=4, seed=k)
        )
        converged = [r for r in results if r.converged]
        assert converged, f"contract {k} produced no converged equilibrium"
        corpus.append((f, costs, converged))
    return corpus


@pytest.fixture(scope="module")
def subbudget_corpus():
    """200 random strictly-sub-budget FGN contracts with equilibria."""
    rng = np.random.default_rng(SEED + 7)
    corpus = []
    for k in range(200):
        n = int(rng.integers(2, 5))
        costs = random_power_costs(rng, n)
        f = random_sge_contract(rng, n, scale=float(rng.uniform(0.2, 0.9)))
        results = find_equilibria(
            f, costs, SolverOptions(tolerance=1e-11, starts=4, seed=k)
        )
        corpus.append((f, costs, [r for r in results if r.converged]))
    return corpus


@pytest.fixture(scope="module")
def roundtrip_corpus():
    """100 random tiered specs solved and re-synthesized from scratch."""
    rng = np.random.default_rng(SEED + 13)
    instances = []
    while len(instances) < 100:
        n = int(rng.integers(2, 6))
        spec = random_luce_spec(rng, n)
        costs = random_power_costs(rng, n)
        f = expand_luce(spec, n)
        results = find_equilibria(
            f, costs, SolverOptions(tolerance=1e-12, starts=4, seed=len(instances))
        )
        if not results or not results[0].converged:
            continue
        p = results[0].profile
        # keep equilibria where every agent is clearly interior so that a
        # one-percent spec perturbation moves some coordinate measurably
        if min(p) < 0.05:
            continue
        synthesis = synthesize_luce(p, costs)
        instances.append((spec, costs, f, p, synthesis))
    return instances


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_two_agent_closed_form():
    opts = SolverOptions(tolerance=1e-12, starts=2)
    checked = 0
    for c1 in (1.5, 2.0, 4.0):
        for c2 in (1.5, 2.0, 4.0):
            costs = CostModel.power([c1, c2])
            for lam in np.arange(0.0, 1.0001, 0.05):
                res = find_equilibria(two_agent_sge(lam), costs, opts)[0]
                assert res.converged
                expected = two_agent_equilibrium(c1, c2, float(lam))
                assert res.profile.probs == pytest.approx(expected, abs=1e-8)
                checked += 1
    assert checked == 9 * 21
    report(1, f"closed form matches the solver on {checked} (C, share) points at 1e-8")


def test_criterion_2_balanced_weight_gives_half():
    scales = (1.2, 2.0, 5.0, 20.0)
    for c1 in scales:
        for c2 in scales:
            lam = two_agent_optimal_lambda(c1, c2, 1.0)
            assert abs(lam - 0.5) <= 1e-9
            opt = optimize_principal(
                Objective.linear([1, 1]), CostModel.power([c1, c2]), seed=SEED,
            )
            lam_opt = float(expand_luce(opt.spec, 2).table[0b11, 0])
            assert abs(lam_opt - 0.5) <= 1e-4
    report(2, "equal objective weights give share 1/2 for all 16 cost pairs "
              "(formula 1e-9, optimizer 1e-4)")


def test_criterion_3_corner_thresholds():
    lower, upper = lambda_thresholds(2.0, 2.0)
    assert lower == 0.4 and upper == 2.5
    for w in (0.25, 0.4):
        assert two_agent_optimal_lambda(2, 2, w) == 0.0
    for w in (2.5, 3.0):
        assert two_agent_optimal_lambda(2, 2, w) == 1.0
    assert two_agent_optimal_lambda(2, 2, 0.4 + 1e-9) > 0.0
    for w, corner in ((0.4, 0.0), (0.3, 0.0), (2.5, 1.0), (3.0, 1.0)):
        opt = optimize_principal(Objective.linear([w, 1]), QUAD22, seed=SEED)
        lam_opt = float(expand_luce(opt.spec, 2).table[0b11, 0])
        assert abs(lam_opt - corner) <= 1e-6, (w, lam_opt)
    report(3, "corner thresholds 0.4 and 2.5 hold exactly in the formulas and "
              "to 1e-6 through the optimizer")


def test_criterion_4_budget_exhaustion_pins_z(sge_corpus, subbudget_corpus):
    eq_count = 0
    for _, costs, results in sge_corpus:
        for res in results:
            assert abs(z_value(res.profile, costs) - 1.0) <= 1e-8
            eq_count += 1
    assert eq_count >= 200
    sub_count = 0
    for _, costs, results in subbudget_corpus:
        for res in results:
            assert z_value(res.profile, costs) < 1.0 - 1e-10
            sub_count += 1
    assert sub_count >= 200
    report(4, f"z = 1 at {eq_count} budget-exhausting equilibria (1e-8); "
              f"z < 1 at {sub_count} sub-budget equilibria")


def test_criterion_5_dominance_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # GridTooCoarse must not fire
        result = brute_force_frontier(QUAD22, 100, non_sge_samples=50, seed=SEED)
    assert len(result.points) == 101
    assert len(result.checks) >= 50
    assert result.slack_allowed == pytest.approx(0.02)
    # budget exhaustion pins z = 1 along the sampled frontier
    assert max(abs(pt.z - 1.0) for pt in result.points) <= 1e-8
    worst = max(c.slack_needed for c in result.checks)
    assert worst <= result.slack_allowed
    assert result.all_dominated()
    report(5, f"all {len(result.checks)} sub-budget equilibria dominated by the "
              f"share-0.01 frontier (worst slack {worst:.3g} <= 0.02)")


def test_criterion_6_synthesis_roundtrip(roundtrip_corpus):
    for spec, costs, _, p, synthesis in roundtrip_corpus:
        assert synthesis.spec.partition == spec.partition
        assert synthesis.spec.weights == pytest.approx(spec.weights, abs=1e-6)
        assert abs(synthesis.budget - 1.0) <= 1e-8
    report(6, f"{len(roundtrip_corpus)} random specs recovered exactly "
              "(weights 1e-6, budget 1e-8)")


def test_criterion_7_implementability_boundary():
    costs = CostModel.power([2, 4])
    rep = luce_condition((0.5, 0.05), costs)
    assert not rep.holds
    assert rep.worst_subset == 0b01
    assert rep.lhs == pytest.approx(0.9804, abs=1e-4)
    assert rep.rhs == pytest.approx(0.9524, abs=1e-4)
    with pytest.raises(NotLuceImplementable):
        synthesize_luce((0.5, 0.05), costs)
    report(7, "profile (0.5, 0.05) rejected at subset {1} with the reported "
              "ratios 0.9804 vs 0.9524")


def test_criterion_8_uniqueness(roundtrip_corpus):
    worst = np.inf
    for k, (_, costs, _, p, synthesis) in enumerate(roundtrip_corpus):
        audit = oracles.verify_uniqueness(
            synthesis, p, costs, trials=50, seed=SEED + k, separation_tol=1e-4
        )
        assert audit.trials == 50
        assert audit.worst_separation > 1e-4
        worst = min(worst, audit.worst_separation)
    report(8, f"5000 perturbed specs all missed their profiles "
              f"(worst separation {worst:.3g} > 1e-4, zero violations)")


def test_criterion_9_payment_spread():
    q = (0.4, 0.4)
    synthesis = synthesize_luce(q, QUAD22)
    luce_dist = payment_distribution(expand_luce(synthesis.spec, 2, synthesis.budget), q)
    assert luce_dist.values == pytest.approx((0.0, 1.0), abs=1e-12)
    assert luce_dist.probs == pytest.approx((0.36, 0.64), abs=1e-12)
    pr = payment_distribution(piece_rate(q, QUAD22, unconstrained=True), q)
    assert pr.mean == pytest.approx(0.64, abs=1e-12)
    assert pr.variance == pytest.approx(0.3072, abs=1e-12)
    bp = payment_distribution(bonus_pool(q, QUAD22), q)
    assert bp.mean == pytest.approx(0.64, abs=1e-12)
    assert bp.variance == pytest.approx(2.1504, abs=1e-12)
    for other in (pr, bp):
        verdict = mps_compare(luce_dist, other)
        assert verdict.sosd and verdict.variance_ordered and verdict.means_equal
    for f in implementing_fgn_samples(q, QUAD22, 100, seed=SEED):
        verdict = mps_compare(luce_dist, payment_distribution(f, q))
        assert verdict.means_equal and verdict.variance_ordered and verdict.sosd
    report(9, "piece rate, bonus pool, and 100 sampled implementing contracts "
              "all spread the two-point reference payment")


def test_criterion_10_aggregate_identity(sge_corpus, subbudget_corpus, roundtrip_corpus):
    def check(contract, costs, profile):
        arr = profile.as_array()
        spend = float(arr @ costs.marginal_vec(arr))
        payout = contract.budget * float(
            outcome_probabilities(arr) @ contract.total_shares()
        )
        assert abs(spend - payout) <= 1e-8

    count = 0
    for f, costs, results in list(sge_corpus) + list(subbudget_corpus):
        for res in results:
            check(f, costs, res.profile)
            count += 1
    for _, costs, f, p, synthesis in roundtrip_corpus:
        check(f, costs, p)
        check(expand_luce(synthesis.spec, costs.n, synthesis.budget), costs, p)
        count += 2
    report(10, f"expected payout equals marginal spend on {count} equilibria (1e-8)")
