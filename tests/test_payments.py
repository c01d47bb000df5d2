import numpy as np
import pytest

from contractgames import (
    CostModel,
    DegenerateProfile,
    PaymentDistribution,
    bonus_pool,
    expand_luce,
    implementing_fgn_samples,
    mps_compare,
    payment_distribution,
    piece_rate,
    synthesize_luce,
)

import oracles

QUAD22 = CostModel.power([2, 2])
Q44 = (0.4, 0.4)


def luce_distribution(q, costs):
    result = synthesize_luce(q, costs)
    contract = expand_luce(result.spec, costs.n, result.budget)
    return payment_distribution(contract, q)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_luce_payment_is_two_point():
    dist = luce_distribution(Q44, QUAD22)
    assert dist.values == pytest.approx((0.0, 1.0), abs=1e-12)
    assert dist.probs == pytest.approx((0.36, 0.64), abs=1e-12)
    assert dist.mean == pytest.approx(0.64, abs=1e-12)
    assert dist.variance == pytest.approx(0.2304, abs=1e-12)


def test_piece_rate_payment_distribution():
    dist = payment_distribution(piece_rate(Q44, QUAD22, unconstrained=True), Q44)
    assert dist.values == pytest.approx((0.0, 0.8, 1.6), abs=1e-12)
    assert dist.probs == pytest.approx((0.36, 0.48, 0.16), abs=1e-12)
    assert dist.mean == pytest.approx(0.64, abs=1e-12)
    assert dist.variance == pytest.approx(0.3072, abs=1e-12)


def test_bonus_pool_payment_distribution():
    dist = payment_distribution(bonus_pool(Q44, QUAD22), Q44)
    assert dist.values == pytest.approx((0.0, 4.0), abs=1e-12)
    assert dist.probs == pytest.approx((0.84, 0.16), abs=1e-12)
    assert dist.mean == pytest.approx(0.64, abs=1e-12)
    assert dist.variance == pytest.approx(2.1504, abs=1e-12)


def test_distribution_respects_contract_budget():
    result = synthesize_luce((0.2, 0.2), QUAD22)
    contract = expand_luce(result.spec, 2, result.budget)
    dist = payment_distribution(contract, (0.2, 0.2))
    assert dist.max_payment == pytest.approx(result.budget, abs=1e-12)


def _merge_cases(rng):
    """Atom lists: payment atoms of random FGN tables, then clusters within 1e-12."""
    from contractgames import Contract, outcome_probabilities

    cases = [[(0.5, 0.25), (0.5 + 1e-13, 0.25), (0.0, 0.5)]]
    for n in (1, 3, 6, 9):
        member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        draws = rng.exponential(size=member.shape) * member
        draws[1:] /= draws[1:].sum(axis=1, keepdims=True)
        table = draws * rng.uniform(0.2, 0.95, (1 << n, 1))
        f = Contract(n, table, budget=rng.uniform(0.5, 2.0))
        probs = outcome_probabilities(rng.uniform(0.0, 0.95, n))
        cases.append(list(zip(f.total_shares() * f.budget, probs)))
    for size in (1, 5, 40):
        centres = np.arange(size) * 0.37 + rng.uniform(0.0, 0.1)
        per = rng.integers(1, 5, size)
        values = np.repeat(centres, per) + rng.uniform(0.0, 1e-12, per.sum())
        probs = rng.dirichlet(np.ones(per.sum()))
        zero = rng.uniform(size=probs.size) < 0.2
        zero[0] = False
        probs[zero] = 0.0
        probs /= probs.sum()
        cases.append(list(zip(values, probs)))
    return cases


def test_from_atoms_matches_merge_loop():
    for atoms in _merge_cases(np.random.default_rng(23)):
        dist = PaymentDistribution.from_atoms(atoms)
        values, probs, mean, variance = oracles.from_atoms_loop(atoms)
        assert dist.values == pytest.approx(values, rel=1e-14, abs=1e-14)
        assert dist.probs == pytest.approx(probs, rel=1e-14, abs=1e-14)
        assert dist.mean == pytest.approx(mean, rel=1e-14, abs=1e-14)
        assert dist.variance == pytest.approx(variance, rel=1e-14, abs=1e-14)


def test_from_atoms_merges_and_validates():
    dist = PaymentDistribution.from_atoms([(0.5, 0.25), (0.5 + 1e-13, 0.25), (0.0, 0.5)])
    assert len(dist.values) == 2
    assert dist.prob_at(0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        PaymentDistribution.from_atoms([(0.0, 0.4)])
    with pytest.raises(ValueError):
        PaymentDistribution.from_atoms([(0.0, -0.1), (1.0, 1.1)])


# ---------------------------------------------------------------------------
# implementing samples
# ---------------------------------------------------------------------------

def test_zero_count_gives_empty_list():
    assert implementing_fgn_samples(Q44, QUAD22, 0, seed=0) == []


def test_samples_implement_the_target_profile():
    from contractgames import best_response

    for f in implementing_fgn_samples(Q44, QUAD22, 10, seed=1):
        assert f.unconstrained
        for i in range(2):
            assert abs(best_response(i, f, Q44, QUAD22) - Q44[i]) <= 1e-10


def test_zero_scale_returns_piece_rate_copies():
    base = piece_rate(Q44, QUAD22, unconstrained=True)
    for f in implementing_fgn_samples(Q44, QUAD22, 3, seed=2, scale=0.0):
        assert np.max(np.abs(f.table - base.table)) <= 1e-15


def test_samples_are_distinct():
    samples = implementing_fgn_samples(Q44, QUAD22, 6, seed=3)
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            assert np.max(np.abs(samples[i].table - samples[j].table)) > 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_samples_match_per_agent_draws(n):
    # One (n, 2**(n-1)) draw per sample consumes the generator as n draws of
    # 2**(n-1), agent 0 first; only the row sums' order of addition differs.
    rng = np.random.default_rng(n)
    costs = CostModel.power(rng.uniform(n + 1, n + 6, n), rng.uniform(2.0, 3.0, n))
    q = tuple(rng.uniform(0.05, 0.9, n))
    for scale in (None, 2.0):
        samples = implementing_fgn_samples(q, costs, 5, seed=7, scale=scale)
        expected = oracles.implementing_fgn_tables(q, costs, 5, seed=7, scale=scale)
        for f, table in zip(samples, expected, strict=True):
            assert np.max(np.abs(f.table - table)) <= 1e-14


def test_default_seed_is_reproducible():
    first = implementing_fgn_samples(Q44, QUAD22, 3)
    second = implementing_fgn_samples(Q44, QUAD22, 3)
    for f, g in zip(first, second, strict=True):
        assert np.array_equal(f.table, g.table)


def test_samples_reject_boundary_profile():
    with pytest.raises(DegenerateProfile):
        implementing_fgn_samples((0.4, 0.0), QUAD22, 1, seed=0)


def test_zero_atom_and_mean_identity_for_samples():
    q = (0.3, 0.5, 0.2)
    costs = CostModel.power([2, 3, 4])
    expected_zero = float(np.prod([1 - x for x in q]))
    expected_mean = sum(x * costs.marginal(i, x) for i, x in enumerate(q))
    for f in implementing_fgn_samples(q, costs, 10, seed=4):
        dist = payment_distribution(f, q)
        assert dist.prob_at(0.0) == pytest.approx(expected_zero, abs=1e-12)
        assert dist.mean == pytest.approx(expected_mean, abs=1e-8)
    pr = payment_distribution(piece_rate(q, costs, unconstrained=True), q)
    assert pr.prob_at(0.0) == pytest.approx(expected_zero, abs=1e-12)
    assert pr.mean == pytest.approx(expected_mean, abs=1e-12)
    # the bonus pool concentrates extra mass at zero but keeps the mean
    bp = payment_distribution(bonus_pool(q, costs), q)
    assert bp.mean == pytest.approx(expected_mean, abs=1e-12)
    assert bp.prob_at(0.0) > expected_zero


# ---------------------------------------------------------------------------
# spread comparison
# ---------------------------------------------------------------------------

def test_mps_compare_piece_rate_and_bonus_pool():
    luce = luce_distribution(Q44, QUAD22)
    pr = payment_distribution(piece_rate(Q44, QUAD22, unconstrained=True), Q44)
    bp = payment_distribution(bonus_pool(Q44, QUAD22), Q44)
    for other in (pr, bp):
        verdict = mps_compare(luce, other)
        assert verdict.means_equal
        assert verdict.variance_ordered
        assert verdict.sosd
        assert verdict.max_payment_ordered
    assert mps_compare(luce, pr).variance_margin == pytest.approx(0.0768, abs=1e-12)
    assert mps_compare(luce, bp).variance_margin == pytest.approx(1.92, abs=1e-12)


def test_mps_compare_self_is_tight():
    luce = luce_distribution(Q44, QUAD22)
    verdict = mps_compare(luce, luce)
    assert verdict.means_equal and verdict.variance_ordered and verdict.sosd
    assert verdict.mean_difference == 0.0
    assert verdict.variance_margin == 0.0


def test_sosd_integrated_cdf_matches_brute():
    luce = luce_distribution(Q44, QUAD22)
    pr = payment_distribution(piece_rate(Q44, QUAD22, unconstrained=True), Q44)
    from contractgames.payments import _integrated_cdf

    xs = np.unique(np.concatenate([luce.values, pr.values]))
    for dist in (luce, pr):
        ours = _integrated_cdf(dist, xs)
        ref = [oracles.integrated_cdf_brute(dist.values, dist.probs, x) for x in xs]
        assert ours == pytest.approx(ref, abs=1e-14)


def test_integrated_cdf_matches_brute_on_random_distributions():
    from contractgames.payments import _integrated_cdf

    rng = np.random.default_rng(12)
    for size in (1, 2, 7, 64, 1024):
        dist = PaymentDistribution.from_atoms(
            zip(rng.uniform(0.0, 3.0, size), rng.dirichlet(np.ones(size))))
        xs = np.concatenate([dist.values, rng.uniform(-0.5, 3.5, 50)])
        ref = [oracles.integrated_cdf_brute(dist.values, dist.probs, x) for x in xs]
        assert np.max(np.abs(_integrated_cdf(dist, xs) - ref)) <= 1e-12


def test_sosd_detects_violation():
    tight = PaymentDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    shifted = PaymentDistribution.from_atoms([(0.2, 0.5), (0.8, 0.5)])
    # `shifted` has the same mean but is less spread, so it cannot dominate
    verdict = mps_compare(tight, shifted)
    assert verdict.means_equal
    assert not verdict.sosd
    assert not verdict.variance_ordered


def test_variance_minimality_over_sampled_family():
    luce = luce_distribution(Q44, QUAD22)
    for f in implementing_fgn_samples(Q44, QUAD22, 40, seed=5):
        other = payment_distribution(f, Q44)
        assert other.variance >= luce.variance - 1e-10


def test_homogeneous_symmetric_profile_synthesizes_equal_split():
    q = (0.3, 0.3, 0.3)
    costs = CostModel.power([2.5, 2.5, 2.5])
    result = synthesize_luce(q, costs)
    assert result.spec.partition == ((0, 1, 2),)
    assert result.spec.weights == pytest.approx((1 / 3,) * 3, abs=1e-9)
