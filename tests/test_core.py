import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractgames import (
    BudgetExceeded,
    Contract,
    CostModel,
    DegenerateProfile,
    LuceSpec,
    PowerCost,
    Profile,
    TabulatedMonotone,
    SolverOptions,
    bonus_pool,
    classify,
    equal_split,
    expand_luce,
    fgn_normalize,
    find_equilibria,
    implementing_fgn_samples,
    mask_agents,
    outcome_prob,
    outcome_probabilities,
    piece_rate,
    subset_mask,
    zero_contract,
)
from contractgames import core
from contractgames.serialize import contract_from_dict, contract_to_dict
from contractgames.core import membership

import oracles

QUAD22 = CostModel.power([2, 2])


def profiles(n_min=1, n_max=6):
    return st.lists(
        st.floats(min_value=0.0, max_value=0.95), min_size=n_min, max_size=n_max
    ).map(tuple)


# ---------------------------------------------------------------------------
# Outcome probabilities
# ---------------------------------------------------------------------------

def test_outcome_prob_examples():
    # products 0.4*0.6 and 0.6*0.6, agent 1 succeeding alone vs nobody
    assert outcome_prob((0.4, 0.4), 0b01) == pytest.approx(0.24, abs=1e-15)
    assert outcome_prob((0.4, 0.4), 0b00) == pytest.approx(0.36, abs=1e-15)


def test_outcome_prob_matches_brute_enumeration():
    rng = np.random.default_rng(0)
    p = tuple(rng.uniform(0, 0.95, 4))
    for mask in range(16):
        assert outcome_prob(p, mask) == pytest.approx(
            oracles.outcome_prob_brute(p, mask), abs=1e-15
        )


def test_outcome_probs_sum_to_one_n4():
    p = (0.13, 0.5, 0.77, 0.05)
    assert sum(outcome_prob(p, m) for m in range(16)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(profiles(n_max=10))
def test_outcome_probs_normalize(p):
    assert outcome_probabilities(p).sum() == pytest.approx(1.0, abs=1e-12)


def test_outcome_probabilities_match_brute_enumeration():
    # The table is the outer product of two half tables; at n = 1 the lower
    # half has no agents. Exact zeros and coordinates near 1 stay exact.
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 11):
        batch = rng.uniform(0.0, 0.95, size=(3, n))
        batch[0, 0] = 0.0
        batch[1, -1] = 1.0 - 1e-12
        out = outcome_probabilities(batch)
        assert out.shape == (3, 1 << n)
        masks = range(1 << n) if n <= 7 else [0, (1 << n) - 1, *rng.integers(1 << n, size=40)]
        for p, probs in zip(batch, out):
            for mask in masks:
                want = oracles.outcome_prob_brute(tuple(p), int(mask))
                assert abs(probs[mask] - want) <= 1e-13 * want


def test_outcome_probabilities_batch_rows_match_single_profiles():
    batch = np.random.default_rng(5).uniform(0.0, 0.95, size=(6, 4))
    out = outcome_probabilities(batch)
    assert out.shape == (6, 16)
    for row, probs in zip(batch, out):
        assert np.array_equal(probs, outcome_probabilities(row))
    with pytest.raises(ValueError):
        outcome_probabilities(batch[None])


def test_contract_copies_any_table_it_does_not_own():
    rows = np.full((4, 2), 0.25)
    f = Contract(2, rows)
    rows[3] = 0.5  # the caller's array stays writable and the contract's copy does not move
    assert f.table[3, 0] == 0.25 and not f.table.flags.writeable
    frozen = np.full((4, 2), 0.25, order="F")
    frozen.setflags(write=False)
    assert Contract(2, frozen).table is frozen
    row_major = np.full((4, 2), 0.25)  # read-only and owning its data, but row-major
    row_major.setflags(write=False)
    writable = np.full((4, 2), 0.25, order="F")
    view = frozen[:, :]  # read-only and F-ordered, but not owning its data
    for supplied in (rows, row_major, writable, view):
        g = Contract(2, supplied)
        assert g.table is not supplied and not np.shares_memory(g.table, supplied)
        assert g.table.flags.f_contiguous and not g.table.flags.writeable
    # Tables taller than one copy block come out agent-major with every entry in place.
    table = np.random.default_rng(3).uniform(0.0, 1.0, size=(1 << 11, 11))
    g = Contract(11, table, unconstrained=True)
    assert g.table.flags.f_contiguous and np.array_equal(g.table, table)
    for g in (equal_split(3), expand_luce(LuceSpec.single_block((1.0, 2.0, 3.0)), 3)):
        assert not g.table.flags.writeable
        with pytest.raises(ValueError):
            g.table[1, 0] = 0.0


def test_constructors_hand_over_agent_major_tables(monkeypatch):
    # Every library constructor builds its table agent-major, read-only and
    # owning its data, so Contract keeps it: none may reach the copy.
    costs = CostModel.power([3.0, 4.0, 5.0])
    q = (0.2, 0.3, 0.25)
    f = equal_split(3)
    p = find_equilibria(f, costs, SolverOptions(seed=0))[0].profile
    doc = contract_to_dict(expand_luce(LuceSpec(((2,), (0, 1)), (1.0, 1.0, 2.0)), 3))

    def refuse(table):
        raise AssertionError("a constructor's table was copied")

    monkeypatch.setattr(core, "_agent_major_copy", refuse)
    built = [equal_split(1), zero_contract(1), expand_luce(LuceSpec.single_block((1.0,)), 1)]
    for n in (3, 16):
        tiers = LuceSpec((tuple(range(n // 2)), tuple(range(n // 2, n))), tuple(range(1, n + 1)))
        built += [equal_split(n), zero_contract(n), expand_luce(tiers, n)]
        assert built[-1].with_budget(2.0).table is built[-1].table
    built += [
        Contract.from_rows(3, {0b011: (0.5, 0.5, 0.0)}),
        piece_rate(q, costs, unconstrained=True),
        bonus_pool(q, costs),
        *implementing_fgn_samples(q, costs, 2, seed=0),
        fgn_normalize(f, p, costs),
        contract_from_dict(doc),
    ]
    for g in built:
        assert g.table.flags.f_contiguous and g.table.flags.owndata
        assert not g.table.flags.writeable


def test_membership_matches_bit_shifts():
    # Reference: integer shifts on every mask, one column per agent.
    for n in (1, 2, 7, 9, 16, 20):
        masks = np.arange(1 << n, dtype=np.int64)
        member = membership(n)
        assert member.dtype == bool and member.shape == (1 << n, n)
        assert np.array_equal(member, (masks[:, None] >> np.arange(n)) & 1 == 1)


def test_mask_helpers():
    assert subset_mask([0, 2], 3) == 0b101
    assert mask_agents(0b101) == (0, 2)
    with pytest.raises(ValueError):
        subset_mask([3], 3)
    with pytest.raises(ValueError):
        outcome_prob((0.5, 0.5), 4)


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

def test_power_cost_quadratic_relations():
    c = PowerCost(2.0, 2.0)
    assert c.marginal(0.4) == pytest.approx(0.8)
    assert c.cost(0.4) == pytest.approx(0.16)
    assert c.inverse_marginal(0.8) == pytest.approx(0.4)
    assert c.marginal(0.0) == 0.0


def test_power_cost_validation():
    with pytest.raises(ValueError):
        PowerCost(0.0, 2.0)
    with pytest.raises(ValueError):
        PowerCost(1.0, 1.5)


def test_tabulated_matches_power_model():
    ref = PowerCost(3.0, 2.0)
    grid = np.linspace(0, 1, 2001)
    tab = TabulatedMonotone(tuple(grid), tuple(ref.marginal(x) for x in grid))
    for x in (0.1, 0.37, 0.9):
        assert tab.marginal(x) == pytest.approx(ref.marginal(x), abs=1e-6)
        assert tab.cost(x) == pytest.approx(ref.cost(x), abs=1e-6)
    for r in (0.3, 1.2, 2.9):
        # the inverse interpolates grid over values, so it is exact to rounding
        assert tab.marginal(tab.inverse_marginal(r)) == pytest.approx(r, abs=1e-14)
    assert tab.inverse_marginal(0.0) == 0.0


def test_tabulated_inverse_round_trip_and_ends():
    tab = TabulatedMonotone((0.0, 0.2, 0.7, 1.0), (0.0, 0.5, 1.1, 3.0))
    x = np.linspace(0.0, 1.0, 101)
    r = np.array([tab.marginal(v) for v in x])
    assert np.max(np.abs(tab.inverse_marginal(r) - x)) <= 1e-15
    for v, rv in zip(x, r):
        assert abs(tab.inverse_marginal(rv) - v) <= 1e-15
    assert tab.inverse_marginal(0.0) == 0.0
    assert tab.inverse_marginal(3.0) == 1.0
    for bad in (3.0 + 1e-12, np.array([0.5, 3.5]), -1e-300):
        with pytest.raises(ValueError):
            tab.inverse_marginal(bad)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedMonotone((0.0, 1.0), (0.1, 1.0))  # marginal not 0 at 0
    with pytest.raises(ValueError):
        TabulatedMonotone((0.0, 0.5, 1.0), (0.0, 1.0, 1.0))  # not strictly increasing
    tab = TabulatedMonotone((0.0, 1.0), (0.0, 2.0))
    with pytest.raises(ValueError):
        tab.inverse_marginal(2.5)


def test_cost_model_admissibility_and_normalization():
    model = CostModel.power([2, 3])
    assert model.admissible(1.0)
    assert not model.admissible(2.5)
    halved = model.normalized(2.0)
    assert halved.marginal(0, 1.0) == pytest.approx(1.0)
    assert not halved.admissible(1.0)
    with pytest.raises(ValueError):
        model.normalized(0.0)


def test_cost_model_vector_paths_match_scalar():
    model = CostModel(
        (PowerCost(2.0, 2.0), TabulatedMonotone((0.0, 0.5, 1.0), (0.0, 1.5, 3.0)))
    )
    p = np.array([0.3, 0.6])
    expected = [model.marginal(i, p[i]) for i in range(2)]
    assert model.marginal_vec(p) == pytest.approx(expected)
    r = np.array([0.5, 1.2])
    expected_inv = [model.inverse_marginal(i, r[i]) for i in range(2)]
    assert model.inverse_marginal_vec(r) == pytest.approx(expected_inv)
    # a (k, n) batch mixing power and tabulated agents, ends included
    batch = np.array([[0.5, 1.2], [0.0, 3.0], [1.9, 0.0], [0.7, 2.4]])
    expected = [[model.inverse_marginal(i, x) for i, x in enumerate(row)] for row in batch]
    assert np.array_equal(model.inverse_marginal_vec(batch), np.array(expected))
    with pytest.raises(ValueError):
        model.inverse_marginal_vec(np.array([[0.5, 1.2], [0.5, 3.5]]))


# ---------------------------------------------------------------------------
# Profiles and contracts
# ---------------------------------------------------------------------------

def test_agent_cap_applies_only_to_outcome_tables():
    n = 50
    costs = CostModel.power([2.0] * n)
    assert costs.n == n
    assert Profile((0.1,) * n).n == n
    assert LuceSpec.single_block((1.0,) * n).n == n
    with pytest.raises(ValueError, match="1..20"):
        Contract(21, np.zeros((1, 21)))
    with pytest.raises(ValueError, match="1..20"):
        outcome_probabilities((0.1,) * 21)
    with pytest.raises(ValueError):
        Profile(())


def test_profile_bounds():
    with pytest.raises(ValueError):
        Profile((0.5, 1.0))
    with pytest.raises(ValueError):
        Profile((-0.1,))
    assert Profile((0.0, 0.5)).interior() is False


def test_contract_validation():
    with pytest.raises(ValueError):
        Contract(2, np.zeros((3, 2)))
    bad = np.zeros((4, 2))
    bad[1, 0] = -0.2
    with pytest.raises(ValueError):
        Contract(2, bad)
    over = np.zeros((4, 2))
    over[3] = (0.7, 0.7)
    with pytest.raises(BudgetExceeded):
        Contract(2, over)
    Contract(2, over, unconstrained=True)  # allowed with the flag
    with pytest.raises(ValueError):
        Contract(21, np.zeros((2 ** 21, 21)))


@pytest.mark.parametrize("unconstrained", [False, True])
def test_contract_rejects_nan_shares(unconstrained):
    table = np.zeros((4, 2))
    table[3] = (np.nan, 0.5)
    with pytest.raises(ValueError, match="NaN"):
        Contract(2, table, unconstrained=unconstrained)


@pytest.mark.parametrize("budget", [np.inf, np.nan, 0.0, -1.0])
def test_contract_rejects_budget_that_is_not_positive_and_finite(budget):
    with pytest.raises(ValueError, match="positive and finite"):
        Contract(2, np.zeros((4, 2)), budget)
    with pytest.raises(ValueError, match="positive and finite"):
        equal_split(2).with_budget(budget)


def test_contract_table_read_only():
    f = equal_split(2)
    with pytest.raises(ValueError):
        f.table[0, 0] = 1.0


# ---------------------------------------------------------------------------
# expand_luce
# ---------------------------------------------------------------------------

def test_expand_luce_equal_weights_is_equal_split():
    spec = LuceSpec.single_block([0.5, 0.5])
    f = expand_luce(spec, 2)
    assert f.table[0b11, 0] == pytest.approx(0.5)
    assert f.table[0b11, 1] == pytest.approx(0.5)
    assert f.table[0b01, 0] == 1.0
    assert f.table[0b10, 1] == 1.0
    assert np.allclose(f.table, equal_split(2).table)


def test_expand_luce_priority_awards_whole_budget_to_top():
    f = expand_luce(LuceSpec.priority([0, 1]), 2)
    assert f.table[0b11, 0] == 1.0
    assert f.table[0b11, 1] == 0.0
    assert f.table[0b10, 1] == 1.0


def test_expand_luce_two_tier_three_agents():
    spec = LuceSpec(((0, 1), (2,)), (0.75, 0.25, 1.0))
    f = expand_luce(spec, 3)
    assert f.table[0b111, 0] == pytest.approx(0.75)
    assert f.table[0b111, 1] == pytest.approx(0.25)
    assert f.table[0b111, 2] == 0.0
    assert f.table[0b100, 2] == 1.0


def random_spec(rng, n):
    labels = rng.integers(0, n, size=n)
    blocks = [
        tuple(i for i in range(n) if labels[i] == lab)
        for lab in sorted(set(int(x) for x in labels))
    ]
    weights = rng.uniform(0.1, 1.0, size=n)
    return LuceSpec(tuple(blocks), tuple(weights))


@st.composite
def luce_specs(draw, n_max=10):
    """1..n tiers over a random agent order, with random positive weights."""
    n = draw(st.integers(1, n_max))
    order = draw(st.permutations(range(n)))
    cut_after = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    blocks, block = [], [order[0]]
    for agent, cut in zip(order[1:], cut_after):
        if cut:
            blocks.append(tuple(block))
            block = []
        block.append(agent)
    blocks.append(tuple(block))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    return LuceSpec(tuple(blocks), tuple(weights))


@settings(max_examples=60, deadline=None)
@given(luce_specs())
@example(LuceSpec(((2, 7, 0, 9, 4, 1, 8, 3, 6, 5),), (0.01, 3, 100, 0.5, 7, 1, 20, 0.2, 9, 60)))
@example(LuceSpec(((6, 1), (0, 2, 3, 4, 5, 7, 8, 9)), (5, 0.01, 3, 100, 0.5, 7, 1, 20, 0.2, 9)))
@example(LuceSpec(((9,), (4, 0, 7), (1, 2, 3, 5, 6, 8)), (1, 2, 30, 0.1, 5, 8, 0.02, 7, 4, 60)))
@example(LuceSpec(((3, 8), (5,), (0, 6, 9), (1, 2, 4, 7)), (9, 0.3, 4, 0.05, 70, 2, 6, 1, 11, 3)))
def test_expand_luce_matches_mask_loop_oracle(spec):
    ref = oracles.expand_luce_table(spec, spec.n)
    assert np.max(np.abs(expand_luce(spec, spec.n).table - ref)) <= 1e-15


def test_equal_split_and_piece_rate_match_mask_loop_oracles():
    rng = np.random.default_rng(4)
    for n in range(1, 11):
        assert np.array_equal(equal_split(n).table, oracles.equal_split_table(n))
        q = tuple(rng.uniform(0.0, 0.9, n))
        costs = CostModel.power(rng.uniform(1.0, 5.0, n), rng.uniform(2.0, 4.0, n))
        assert np.array_equal(piece_rate(q, costs, unconstrained=True).table,
                              oracles.piece_rate_table(q, costs))


def test_expand_luce_is_always_sge():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        f = expand_luce(random_spec(rng, n), n)
        flags = classify(f)
        assert flags.is_sge and flags.is_fgn


def test_luce_iia_ratio_independent_of_other_successes():
    # for agents i, j sharing the top tier of two outcomes, the reward ratio
    # must agree to 1e-12
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        spec = random_spec(rng, n)
        f = expand_luce(spec, n)
        top = spec.partition[0]
        if len(top) < 2:
            continue
        i, j = top[0], top[1]
        pair = (1 << i) | (1 << j)
        ratios = []
        for mask in range(1, 1 << n):
            if mask & pair == pair and f.table[mask, i] > 0 and f.table[mask, j] > 0:
                ratios.append(f.table[mask, i] / f.table[mask, j])
        assert max(ratios) - min(ratios) <= 1e-12


def test_classify_recovers_canonical_spec_exactly():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        spec = random_spec(rng, n)
        flags = classify(expand_luce(spec, n))
        assert flags.is_luce
        assert flags.luce_spec.partition == spec.partition
        assert flags.luce_spec.weights == pytest.approx(spec.weights, abs=1e-12)


# ---------------------------------------------------------------------------
# piece rate / bonus pool
# ---------------------------------------------------------------------------

def test_piece_rate_pays_marginal_cost():
    f = piece_rate((0.4, 0.4), QUAD22, unconstrained=True)
    assert f.table[0b01, 0] == pytest.approx(0.8)
    assert f.table[0b11, 1] == pytest.approx(0.8)
    assert f.table[0b10, 0] == 0.0


def test_piece_rate_zero_profile_is_zero_contract():
    f = piece_rate((0.0, 0.0), QUAD22)
    assert np.all(f.table == 0.0)


def test_piece_rate_budget_guard():
    with pytest.raises(BudgetExceeded):
        piece_rate((0.9, 0.9), QUAD22)


def test_bonus_pool_values():
    f = bonus_pool((0.4, 0.4), QUAD22)
    assert f.table[0b11, 0] == pytest.approx(2.0)  # 0.32 / 0.16
    assert f.table[0b11, 1] == pytest.approx(2.0)
    assert np.all(f.table[:0b11] == 0.0)
    assert f.unconstrained
    g = bonus_pool((0.5, 0.5), QUAD22)
    assert g.table[0b11, 0] == pytest.approx(2.0)  # 0.5 / 0.25


def test_bonus_pool_rejects_zero_coordinate():
    with pytest.raises(DegenerateProfile):
        bonus_pool((0.4, 0.0), QUAD22)


# ---------------------------------------------------------------------------
# classify flags
# ---------------------------------------------------------------------------

def test_classify_equal_split_all_flags():
    flags = classify(equal_split(2))
    assert flags.is_fgn and flags.is_sge and flags.is_weighted and flags.is_luce


def test_classify_piece_rate_fgn_but_not_sge():
    flags = classify(piece_rate((0.1, 0.1), QUAD22))
    assert flags.is_fgn and not flags.is_sge
    assert not flags.is_weighted and not flags.is_luce


def test_classify_bonus_pool_fgn_but_not_sge():
    flags = classify(bonus_pool((0.5, 0.5), CostModel.power([1.2, 1.2])))
    assert flags.is_fgn and not flags.is_sge


def test_classify_rewards_failure_not_fgn():
    f = Contract.from_rows(1, {0: [0.3], 1: [0.8]})
    assert not classify(f).is_fgn


def test_zero_contract_is_fgn_not_sge():
    flags = classify(zero_contract(3))
    assert flags.is_fgn and not flags.is_sge


# ---------------------------------------------------------------------------
# LuceSpec canonicalization
# ---------------------------------------------------------------------------

def test_luce_spec_canonicalizes_weights_per_block():
    # weights are per agent: agent 0 carries 3.0, agent 1 carries 1.0
    spec = LuceSpec(((1, 0), (2,)), (3.0, 1.0, 7.0))
    assert spec.partition == ((0, 1), (2,))
    assert spec.weights[0] == pytest.approx(0.75)
    assert spec.weights[1] == pytest.approx(0.25)
    assert spec.weights[2] == 1.0
    assert spec == LuceSpec(((0, 1), (2,)), (0.75, 0.25, 1.0))


def test_luce_spec_validation():
    with pytest.raises(ValueError):
        LuceSpec(((0,), (0, 1)), (1.0, 1.0))  # overlapping blocks
    with pytest.raises(ValueError):
        LuceSpec(((0,),), (0.0,))  # zero weight
    with pytest.raises(ValueError):
        LuceSpec(((0, 2),), (1.0, 1.0))  # hole in coverage
