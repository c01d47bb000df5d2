import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractgames import (
    Contract,
    CostModel,
    LuceSpec,
    NotAdmissible,
    NotAnEquilibrium,
    SolverOptions,
    best_response,
    bonus_pool,
    classify,
    equal_split,
    equilibrium_residual,
    expand_luce,
    fgn_normalize,
    find_equilibria,
    marginal_gain,
    outcome_probabilities,
    piece_rate,
    zero_contract,
)

from contractgames import equilibrium

import oracles

QUAD22 = CostModel.power([2, 2])


def random_fgn(rng, n, sge=False):
    table = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        shares = rng.dirichlet(np.ones(len(members)))
        if not sge:
            shares = shares * rng.uniform(0.2, 0.95)
        table[mask, members] = shares
    return Contract(n, table)


# ---------------------------------------------------------------------------
# marginal gain
# ---------------------------------------------------------------------------

def test_marginal_gain_equal_split():
    # 0.6 * 1 + 0.4 * 0.5, with own coordinate ignored
    assert marginal_gain(0, equal_split(2), (0.99, 0.4)) == pytest.approx(0.8)
    assert marginal_gain(0, equal_split(2), (0.0, 0.4)) == pytest.approx(0.8)


def test_marginal_gain_single_agent_difference():
    f = Contract.from_rows(1, {0: [0.3], 1: [0.5]})
    assert marginal_gain(0, f, (0.7,)) == pytest.approx(0.2)


def test_marginal_gain_fgn_equals_success_conditional():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = random_fgn(rng, n)
        p = tuple(rng.uniform(0.05, 0.9, n))
        for i in range(n):
            r = marginal_gain(i, f, p)
            assert r >= 0.0
            assert r == pytest.approx(oracles.expected_reward(f, p, i, p_i=1.0), abs=1e-12)


def test_marginal_gain_matches_brute_oracle_general_contracts():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        table = rng.uniform(0, 1.0 / n, size=(1 << n, n))
        f = Contract(n, table, budget=rng.uniform(0.5, 2.0))
        p = tuple(rng.uniform(0, 0.9, n))
        for i in range(n):
            assert marginal_gain(i, f, p) == pytest.approx(
                oracles.marginal_gain_brute(f, p, i), abs=1e-12
            )


def test_batched_marginal_gains_match_brute_oracle():
    # The contracts pay failures too, so gains can be negative. Profiles hold
    # exact zeros (the origin among them) and coordinates at 1 - 1e-12. Odd
    # n splits the agents unevenly, and at n = 1 the low half is empty.
    rng = np.random.default_rng(61)
    negative = False
    for n in (1, 2, 3, 4, 5, 6, 7, 9, 11):
        f = Contract(n, rng.uniform(0.0, 1.0, size=(1 << n, n)),
                     budget=rng.uniform(0.5, 2.0), unconstrained=True)
        batch = rng.uniform(0.0, 0.95, size=(5, n))
        batch[0] = 0.0
        batch[1, rng.integers(n)] = 0.0
        batch[2, rng.integers(n)] = 1.0 - 1e-12
        batch[3, ::2], batch[3, 1::2] = 0.0, 1.0 - 1e-12
        ws = equilibrium._Workspace(f)
        gains = equilibrium._marginal_gains(ws, batch)
        assert gains.shape == (5, n)
        for p, row in zip(batch if n <= 7 else batch[:3], gains):
            want = np.array([oracles.marginal_gain_brute(f, p, i) for i in range(n)])
            assert np.max(np.abs(row - want)) <= 1e-12
            assert np.max(np.abs(equilibrium._marginal_gains(ws, p) - want)) <= 1e-12
            negative |= bool((want < 0).any())
    assert negative


def test_marginal_gains_match_gain_table_oracle_at_n16():
    rng = np.random.default_rng(16)
    n = 16
    for f in (Contract(n, rng.uniform(0.0, 1.0, size=(1 << n, n)), unconstrained=True),
              equal_split(n, budget=1.7)):
        batch = rng.uniform(0.0, 0.95, size=(8, n))
        batch[0] = 0.0
        batch[1, rng.integers(n, size=4)] = 0.0
        batch[2, rng.integers(n, size=4)] = 1.0 - 1e-12
        batch[3, ::2], batch[3, 1::2] = 0.0, 1.0 - 1e-12
        gains = equilibrium._marginal_gains(equilibrium._Workspace(f), batch)
        assert np.max(np.abs(gains - oracles.gain_table_gains(f, batch))) <= 1e-12


def test_marginal_gains_match_gain_table_oracle_across_n():
    # n = 1 has no low agents and n = 2 one agent per half; odd n pads the low
    # half. At n = 17 with k = 8 each agent's rows split into several blocks.
    # The row-major table is the caller's, copied agent-major; the
    # unconstrained one pays failures, so gains can be negative.
    rng = np.random.default_rng(117)
    for n in (1, 2, 3, 5, 9, 17):
        row_major = np.ascontiguousarray(rng.dirichlet(np.ones(n + 1), size=1 << n)[:, :n])
        pays_failures = rng.uniform(0.0, 1.0, size=(1 << n, n))
        for f in (Contract(n, row_major, budget=rng.uniform(0.5, 2.0)),
                  Contract(n, pays_failures, unconstrained=True)):
            ws = equilibrium._Workspace(f)
            for shape in ((n,), (8, n)):
                p = rng.uniform(0.0, 0.95, size=shape)
                p[..., rng.integers(n)] = 0.0
                gains = equilibrium._marginal_gains(ws, p)
                assert gains.shape == shape
                assert np.max(np.abs(gains - oracles.gain_table_gains(f, p))) <= 1e-12


def test_workspace_views_table_as_thin_stacked_blocks():
    # Each agent's (A, B) matrix is a contiguous block of the contract's own
    # table, not a copy, and cols[i, hi, lo] is table[hi * B + lo, i].
    for n in (1, 2, 5, 16):
        f = equal_split(n)
        ws = equilibrium._Workspace(f)
        h = n // 2
        assert ws.cols.shape == (n, 1 << (n - h), 1 << h)
        assert ws.cols.flags.c_contiguous and ws.cols.base is not None
        assert np.shares_memory(ws.cols, f.table)
        for i in range(n):
            assert np.array_equal(ws.cols[i].ravel(), f.table[:, i])
        lo, hi = (1 << h) - 1, (1 << (n - h)) - 1
        assert np.array_equal(ws.cols[:, hi, lo], f.table[hi * (1 << h) + lo])


def test_sweep_products_stay_within_single_thread_size():
    # A sweep's products are k by block by B (low agents) and block by B by k
    # (high agents): row blocks of each agent's (A, B) matrix keep every one
    # within _PRODUCT_SIZE multiply-adds, and together they cover all A rows.
    assert equilibrium._PRODUCT_SIZE <= 1 << 18
    for n in range(1, 21):
        a, b = 1 << (n - n // 2), 1 << (n // 2)
        for k in (1, 2, 8, 9, 64):
            blocks = equilibrium._row_blocks(a, b, k)
            assert [r for s in blocks for r in range(a)[s]] == list(range(a))
            assert all(k * len(range(a)[s]) * b <= equilibrium._PRODUCT_SIZE for s in blocks)
    assert len(equilibrium._row_blocks(1 << 10, 1 << 10, 8)) == 32  # n = 20, k = 8


def test_marginal_gain_ignores_own_probability():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 8):
        f = Contract(n, rng.uniform(0.0, 1.0, size=(1 << n, n)), unconstrained=True)
        p = rng.uniform(0.0, 0.95, size=n)
        for i in range(n):
            values = set()
            for own in (0.0, 0.3, 0.7, 1.0 - 1e-12):
                p[i] = own
                values.add(marginal_gain(i, f, p))
            assert len(values) == 1


def test_solo_start_is_best_response_at_origin():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 6, 9):
        f = Contract(n, general_table(rng, n), budget=rng.uniform(0.5, 2.0))
        costs = CostModel.power(rng.uniform(n + 1, n + 6, n))
        ws = equilibrium._Workspace(f)
        r = equilibrium._marginal_gains(ws, np.zeros(n))
        assert np.array_equal(equilibrium._solo_start(ws, costs),
                              costs.inverse_marginal_vec(np.maximum(r, 0.0)))


def relabelled(f, perm):
    """f with agent k playing the part of agent perm[k]."""
    masks = np.arange(1 << f.n)
    image = sum(((masks >> int(j)) & 1) << k for k, j in enumerate(perm))
    table = np.empty_like(f.table)
    table[image] = f.table[:, perm]
    return Contract(f.n, table, f.budget, f.unconstrained)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.integers(0, 2 ** 32 - 1), st.booleans())))
def test_relabelling_agents_permutes_gains_and_equilibria(game):
    perm, seed, fgn = game
    perm, n = np.array(perm), len(perm)
    rng = np.random.default_rng(seed)
    f = random_fgn(rng, n) if fgn else Contract(n, general_table(rng, n))
    costs = CostModel.power(rng.uniform(n + 1, n + 6, n), rng.uniform(2, 3, n))
    g, g_costs = relabelled(f, perm), CostModel(tuple(costs.agents[j] for j in perm))
    p = rng.uniform(0.0, 0.9, size=(3, n))
    gains = equilibrium._marginal_gains(equilibrium._Workspace(f), p)
    again = equilibrium._marginal_gains(equilibrium._Workspace(g), p[:, perm])
    assert np.max(np.abs(again - gains[:, perm])) <= 1e-12
    # The origin and solo starts relabel with the agents; random starts do not.
    opts = SolverOptions(starts=2)
    found = [r.profile.as_array()[perm] for r in find_equilibria(f, costs, opts) if r.converged]
    relab = [r.profile.as_array() for r in find_equilibria(g, g_costs, opts) if r.converged]
    assert len(found) == len(relab)
    for q in found:
        assert min(np.max(np.abs(q - r)) for r in relab) <= 1e-9


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def test_best_response_values():
    assert best_response(0, equal_split(2), (0.0, 0.4), QUAD22) == pytest.approx(0.4)
    assert best_response(0, zero_contract(2), (0.0, 0.5), QUAD22) == 0.0


def test_best_response_negative_gain_clamps_to_zero():
    # rewarding failure more than success drives the gain below zero
    f = Contract.from_rows(1, {0: [0.5], 1: [0.3]})
    assert marginal_gain(0, f, (0.1,)) == pytest.approx(-0.2)
    assert best_response(0, f, (0.1,), CostModel.power([2])) == 0.0


def test_best_response_matches_numeric_maximizer():
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        table = rng.uniform(0, 1.0 / n, size=(1 << n, n))
        f = Contract(n, table)
        costs = CostModel.power(rng.uniform(1.5, 4, n), rng.uniform(2, 3, n))
        p = tuple(rng.uniform(0, 0.9, n))
        for i in range(n):
            assert best_response(i, f, p, costs) == pytest.approx(
                oracles.best_response_brute(i, f, p, costs), abs=1e-7
            )


def test_best_response_not_admissible():
    f = equal_split(1)
    with pytest.raises(NotAdmissible):
        best_response(0, f, (0.0,), CostModel.power([0.9] , 2.0))


def test_best_response_monotone_in_marginal_gain():
    # sweeping the other agent's probability sweeps the gain; the response
    # must be nondecreasing along it
    gains, responses = [], []
    for p2 in np.linspace(0, 0.95, 40):
        gains.append(marginal_gain(0, equal_split(2), (0.0, p2)))
        responses.append(best_response(0, equal_split(2), (0.0, p2), QUAD22))
    order = np.argsort(gains)
    assert np.all(np.diff(np.array(responses)[order]) >= -1e-12)


# ---------------------------------------------------------------------------
# find_equilibria
# ---------------------------------------------------------------------------

def test_equal_split_equilibrium():
    res = find_equilibria(equal_split(2), QUAD22)
    assert len(res) == 1 and res[0].converged
    assert res[0].profile.probs == pytest.approx((0.4, 0.4), abs=1e-9)
    assert res[0].max_residual <= 1e-10


def test_priority_contract_equilibrium():
    f = expand_luce(LuceSpec.priority([0, 1]), 2)
    res = find_equilibria(f, QUAD22)
    assert res[0].profile.probs == pytest.approx((0.5, 0.25), abs=1e-9)


def test_zero_contract_equilibrium_is_origin():
    res = find_equilibria(zero_contract(3), CostModel.power([2, 2, 2]))
    assert len(res) == 1
    assert res[0].profile.probs == (0.0, 0.0, 0.0)


def test_best_response_consistency_of_converged_results():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = random_fgn(rng, n, sge=True)
        costs = CostModel.power(rng.uniform(1.5, 4, n), rng.uniform(2, 3, n))
        opts = SolverOptions(seed=0)
        for res in find_equilibria(f, costs, opts):
            if res.converged:
                for i in range(n):
                    bi = best_response(i, f, res.profile, costs)
                    assert abs(res.profile[i] - bi) <= opts.tolerance * 1.01


def test_aggregate_identity_on_fgn_equilibria():
    # total expected payout equals total marginal spend at any equilibrium
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = random_fgn(rng, n)
        costs = CostModel.power(rng.uniform(1.5, 4, n), rng.uniform(2, 3, n))
        for res in find_equilibria(f, costs, SolverOptions(seed=1)):
            if not res.converged:
                continue
            arr = res.profile.as_array()
            spend = float(arr @ costs.marginal_vec(arr))
            payout = f.budget * float(outcome_probabilities(arr) @ f.total_shares())
            assert abs(spend - payout) <= 1e-8


def test_budget_scaling_equivalence():
    rng = np.random.default_rng(33)
    for _ in range(5):
        n = 3
        f = random_fgn(rng, n, sge=True)
        costs = CostModel.power(rng.uniform(2.5, 5, n))
        budget = 0.5
        scaled = f.with_budget(budget)
        direct = find_equilibria(scaled, costs, SolverOptions(seed=2))
        normalized = find_equilibria(f, costs.normalized(budget), SolverOptions(seed=2))
        assert len(direct) == len(normalized)
        for a, b in zip(direct, normalized):
            assert a.profile.probs == pytest.approx(b.profile.probs, abs=1e-10)


def test_find_equilibria_deterministic_for_fixed_seed():
    f = equal_split(3)
    costs = CostModel.power([2, 3, 4])
    a = find_equilibria(f, costs, SolverOptions(seed=42))
    b = find_equilibria(f, costs, SolverOptions(seed=42))
    assert [r.profile.probs for r in a] == [r.profile.probs for r in b]


def test_sorted_by_total_effort():
    rng = np.random.default_rng(8)
    f = random_fgn(rng, 3, sge=True)
    res = find_equilibria(f, CostModel.power([2, 2, 2]))
    sums = [sum(r.profile) for r in res]
    assert sums == sorted(sums, reverse=True)


def general_table(rng, n):
    """Shares on every outcome for every agent, failures included; rows sum below 1."""
    return rng.dirichlet(np.ones(n + 1), size=1 << n)[:, :n]


def oracle_cases():
    for n in (2, 3, 5, 8):
        rng = np.random.default_rng(n)
        costs = CostModel.power(rng.uniform(n + 1, n + 6, n), rng.uniform(2, 3, n))
        spec = LuceSpec((tuple(range(n // 2)), tuple(range(n // 2, n))),
                        tuple(rng.uniform(0.5, 2.0, n)))
        for f in (equal_split(n), expand_luce(spec, n), random_fgn(rng, n),
                  Contract(n, general_table(rng, n))):
            yield f, costs, rng
    # Cheap effort on a contract that also pays failures: plain damped
    # iteration oscillates from some of the starts.
    rng = np.random.default_rng(81)
    f = Contract(3, general_table(rng, 3))
    yield f, CostModel.power(rng.uniform(1.01, 1.3, 3), rng.uniform(2, 2.5, 3)), rng


def test_batched_iteration_matches_single_start_oracle():
    for f, costs, rng in oracle_cases():
        ws = equilibrium._Workspace(f)
        # The origin start puts every p_i at 0 in the first sweep.
        starts = np.vstack([np.zeros(f.n), equilibrium._solo_start(ws, costs),
                            rng.uniform(0.0, 0.9, (4, f.n))])
        for opts in (SolverOptions(), SolverOptions(max_iterations=3)):
            profiles, residuals, iterations, converged = equilibrium._iterate(
                lambda p: equilibrium._best_responses(ws, p, costs), starts, opts)
            for s, start in enumerate(starts):
                p, residual, its, conv = oracles.iterate_single(ws, costs, start, opts)
                assert (converged[s], iterations[s]) == (conv, its)
                assert np.max(np.abs(profiles[s] - p)) <= 1e-9
                assert residuals[s] == pytest.approx(residual, abs=1e-9)
        oracle = [oracles.iterate_single(ws, costs, s, SolverOptions()) for s in starts]
        found = find_equilibria(f, costs, SolverOptions(starts=2),
                                initial_profiles=tuple(starts[2:]))
        for res in found:
            assert any(
                conv == res.converged and np.max(np.abs(p - res.profile.as_array())) <= 1e-9
                for p, _, _, conv in oracle
            )


def test_batched_iteration_raises_not_admissible():
    # No solo reward, so the solo start passes; a joint bonus of 5 against
    # c'(1) = 2 is inadmissible for any start where the other agent is above 0.4.
    f = Contract.from_rows(2, {0b11: [5.0, 5.0]}, unconstrained=True)
    with pytest.raises(NotAdmissible):
        find_equilibria(f, QUAD22, SolverOptions(seed=0))
    with pytest.raises(NotAdmissible):
        oracles.iterate_single(equilibrium._Workspace(f), QUAD22, (0.5, 0.5), SolverOptions())


def test_clipped_steps_keep_admissibility_verdicts():
    # Clipping keeps the secant iterates in [0, 1]. It neither hides an
    # inadmissible contract nor makes an admissible one that pays beyond
    # the budget look inadmissible.
    f = Contract.from_rows(2, {0b11: [5.0, 5.0]}, unconstrained=True)
    with pytest.raises(NotAdmissible):
        find_equilibria(f, QUAD22, SolverOptions(seed=0))
    costs = CostModel.power([2.0, 3.0, 2.5], [2.0, 2.5, 3.0])
    q = (0.7, 0.95, 0.9)
    f = piece_rate(q, costs, unconstrained=True)
    assert np.sum(f.table[-1]) > 1.0
    for res in find_equilibria(f, costs, SolverOptions(seed=0)):
        assert res.converged
        assert np.max(np.abs(res.profile.as_array() - q)) <= 1e-9


def test_bonus_pool_diagonal_starts_converge():
    # BR(p) = (p2, p1): every diagonal profile is an equilibrium, and plain
    # iteration swaps the coordinates forever. The secant step lands on the
    # diagonal in its second step.
    f = bonus_pool((0.4, 0.4), QUAD22)
    results = find_equilibria(f, QUAD22, SolverOptions(seed=0))
    assert len(results) == 7
    for res in results:
        p1, p2 = res.profile
        assert res.converged and res.iterations <= 3
        assert res.max_residual <= 1e-10
        assert equilibrium_residual(f, res.profile, QUAD22) <= 1e-10
        assert abs(p1 - p2) <= 1e-10


def random_games(count, seed):
    """Seeded games at n = 2..6: general or FGN tables, power costs of scale U(1.01, 3)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 7))
        f = Contract(n, general_table(rng, n)) if k % 2 else random_fgn(rng, n)
        yield f, CostModel.power(rng.uniform(1.01, 3.0, n), rng.uniform(2.0, 3.0, n)), rng


def distinct(profiles):
    kept = []
    for p in profiles:
        if not any(np.max(np.abs(p - q)) <= 1e-6 for q in kept):
            kept.append(p)
    return kept


def test_secant_sweeps_find_the_fixed_points_of_plain_iteration():
    opts = SolverOptions()
    sweeps = {"secant": 0, "plain": 0}
    games = 0
    for f, costs, rng in itertools.chain(oracle_cases(), random_games(200, 14)):
        games += 1
        ws = equilibrium._Workspace(f)
        starts = np.vstack([np.zeros(f.n), equilibrium._solo_start(ws, costs),
                            rng.uniform(0.0, 0.9, (6, f.n))])
        profiles, _, iterations, converged = equilibrium._iterate(
            lambda p: equilibrium._best_responses(ws, p, costs), starts, opts)
        plain = [oracles.iterate_plain(ws, costs, s, opts) for s in starts]
        sweeps["secant"] += int(iterations.sum())
        sweeps["plain"] += sum(its for _, _, its, _ in plain)
        ours = distinct(profiles[converged])
        theirs = distinct([p for p, _, _, conv in plain if conv])
        assert len(ours) == len(theirs), (games, ours, theirs)
        for p in ours:
            assert min(np.max(np.abs(p - q)) for q in theirs) <= 1e-9, (games, p)
    assert games > 200
    assert sweeps["secant"] <= sweeps["plain"], sweeps


# ---------------------------------------------------------------------------
# fgn_normalize
# ---------------------------------------------------------------------------

def test_fgn_normalize_identity_on_fgn_contract():
    f = equal_split(2)
    p = find_equilibria(f, QUAD22)[0].profile
    g = fgn_normalize(f, p, QUAD22, tolerance=1e-8)
    assert np.max(np.abs(g.table - f.table)) <= 1e-8


def test_fgn_normalize_single_agent_example():
    # gain 0.5 against success reward 0.8 scales the contract by 0.625
    costs = CostModel.power([2])
    f = Contract.from_rows(1, {0: [0.3], 1: [0.8]})
    p = (0.25,)
    assert equilibrium_residual(f, p, costs) <= 1e-12
    g = fgn_normalize(f, p, costs)
    assert g.table[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert g.table[0, 0] == 0.0
    assert best_response(0, g, p, costs) == pytest.approx(0.25, abs=1e-12)


def test_fgn_normalize_zero_probability_agent_gets_zero_column():
    # agent 1 is never rewarded, so its equilibrium effort is 0 and the
    # normalized contract zeroes its column entirely
    table = np.zeros((4, 2))
    table[0b01, 0] = 0.6
    table[0b11, 0] = 0.6
    table[0b10, 1] = 0.0
    f = Contract(2, table)
    res = find_equilibria(f, QUAD22)[0]
    assert res.profile[1] == 0.0
    g = fgn_normalize(f, res.profile, QUAD22, tolerance=1e-9)
    assert np.all(g.table[:, 1] == 0.0)
    assert classify(g).is_fgn


def test_fgn_normalize_rejects_non_equilibrium():
    with pytest.raises(NotAnEquilibrium):
        fgn_normalize(equal_split(2), (0.1, 0.1), QUAD22)


def test_fgn_normalize_preserves_equilibrium_random_contracts():
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        table = rng.uniform(0, 1.0 / n, size=(1 << n, n))
        f = Contract(n, table)
        costs = CostModel.power(rng.uniform(1.5, 4, n), rng.uniform(2, 3, n))
        res = find_equilibria(f, costs, SolverOptions(tolerance=1e-12, seed=3))[0]
        g = fgn_normalize(f, res.profile, costs, tolerance=1e-9)
        assert classify(g).is_fgn
        assert equilibrium_residual(g, res.profile, costs) <= 1e-9
