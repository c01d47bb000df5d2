"""Total-payment distributions and the spread comparison between contracts.

For a target profile q implementable by a tiered-weights contract, every
failures-get-nothing contract implementing q pays out the same mean, but the
tiered contract concentrates the payment on two atoms {0, budget}. The
comparison here checks means, variances, maximum payments, and second-order
stochastic dominance via integrated CDFs on the merged support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    Contract,
    CostModel,
    ProfileLike,
    _empty_table,
    as_profile,
    membership,
    outcome_probabilities,
    require_interior,
)

_ATOM_MERGE_TOL = 1e-12
_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PaymentDistribution:
    """Finite distribution of the total payment, atoms sorted ascending."""

    values: tuple[float, ...]
    probs: tuple[float, ...]
    mean: float
    variance: float

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "PaymentDistribution":
        """Build from (value, probability) pairs, or an (k, 2) array of them.

        Zero-mass atoms are dropped. After sorting, each run of values whose
        consecutive gaps are at most 1e-12 merges into one atom at the run's
        probability-weighted mean value.
        """
        pairs = np.asarray(atoms if isinstance(atoms, np.ndarray) else list(atoms),
                           dtype=float).reshape(-1, 2)
        if np.any(pairs[:, 1] < 0):
            raise ValueError("atom probabilities must be nonnegative")
        pairs = pairs[pairs[:, 1] != 0.0]
        if not len(pairs):
            raise ValueError("distribution needs at least one atom with mass")
        v, q = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T
        starts = np.flatnonzero(np.diff(v, prepend=-np.inf) > _ATOM_MERGE_TOL)
        mass = np.add.reduceat(q, starts)
        first = v[starts]
        offset = v - np.repeat(first, np.diff(starts, append=len(v)))
        values = first + np.add.reduceat(offset * q, starts) / mass
        total = float(mass.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        mean = float(values @ mass)
        variance = float((values - mean) ** 2 @ mass)
        return cls(tuple(values.tolist()), tuple(mass.tolist()), mean, variance)

    @property
    def max_payment(self) -> float:
        return self.values[-1]

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.values, self.probs))

    def prob_at(self, value: float, tol: float = _ATOM_MERGE_TOL) -> float:
        return sum(q for v, q in zip(self.values, self.probs) if abs(v - value) <= tol)


def payment_distribution(f: Contract, p: ProfileLike) -> PaymentDistribution:
    """Exact distribution of budget * total shares over all outcomes."""
    prof = as_profile(p, f.n)
    probs = outcome_probabilities(prof)
    totals = f.total_shares() * f.budget
    return PaymentDistribution.from_atoms(np.column_stack((totals, probs)))


def implementing_fgn_samples(q: ProfileLike, costs: CostModel, count: int,
                             seed: int | None = 0,
                             scale: float | None = None) -> list[Contract]:
    """Random failures-get-nothing contracts that all implement q.

    Starting from the per-success payment c_i'(q_i), each agent's success
    rewards get zero-mean noise under the success-conditional outcome
    distribution, are truncated at zero, and are rescaled so the conditional
    expectation is exactly c_i'(q_i) again; q is then an equilibrium of every
    sample. Noise is uniform on [-scale, scale] with scale defaulting to a
    quarter of the smallest per-success payment, which keeps truncation
    inactive at the default. Contracts carry the unconstrained flag.

    Each sample draws all agents' noise at once, agent 0's first, so the
    stream is that of one draw per agent in turn.
    """
    prof = require_interior(as_profile(q, costs.n))
    n = prof.n
    arr = prof.as_array()
    base = costs.marginal_vec(arr)[:, None]
    if scale is None:
        scale = 0.25 * float(base.min())
    rng = np.random.default_rng(seed)
    # Row i: agent i's success outcomes, in ascending mask order.
    succeeds = membership(n).T
    # Row i is the outcome distribution with agent i forced to succeed.
    forced = np.tile(arr, (n, 1))
    np.fill_diagonal(forced, 1.0)
    cond = outcome_probabilities(forced)[succeeds].reshape(n, -1)
    samples = []
    for _ in range(count):
        noise = rng.uniform(-scale, scale, size=cond.shape)
        noise -= np.einsum("ij,ij->i", cond, noise)[:, None]
        cols = np.maximum(base + noise, 0.0, out=noise)
        cols *= base / np.einsum("ij,ij->i", cond, cols)[:, None]
        table = _empty_table(n)
        table.T[succeeds] = cols.ravel()
        table.setflags(write=False)
        samples.append(Contract(n, table, budget=1.0, unconstrained=True))
    return samples


@dataclass(frozen=True)
class MpsVerdict:
    """Comparison of a reference payment distribution against another."""

    means_equal: bool
    variance_ordered: bool
    sosd: bool
    max_payment_ordered: bool
    mean_difference: float
    variance_margin: float


def _integrated_cdf(dist: PaymentDistribution, xs: np.ndarray) -> np.ndarray:
    """Integral of the CDF from -inf to each x: sum_v p_v * max(0, x - v).

    Evaluated as x * F(x) - sum_{v <= x} p_v v from cumulative sums over the
    ascending atoms.
    """
    values = np.asarray(dist.values)
    probs = np.asarray(dist.probs)
    cdf = np.concatenate([[0.0], np.cumsum(probs)])
    first_moment = np.concatenate([[0.0], np.cumsum(probs * values)])
    k = np.searchsorted(values, xs, side="right")
    return xs * cdf[k] - first_moment[k]


def mps_compare(luce_dist: PaymentDistribution, other_dist: PaymentDistribution) -> MpsVerdict:
    """Check that `other_dist` spreads `luce_dist` while preserving the mean.

    sosd is true when other's integrated CDF dominates luce's pointwise on
    the merged support (with 1e-10 slack), i.e. the reference distribution
    second-order stochastically dominates the other.
    """
    mean_diff = other_dist.mean - luce_dist.mean
    var_margin = other_dist.variance - luce_dist.variance
    xs = np.unique(np.concatenate([luce_dist.values, other_dist.values]))
    sosd = bool(np.all(
        _integrated_cdf(other_dist, xs) >= _integrated_cdf(luce_dist, xs) - 1e-10
    ))
    return MpsVerdict(
        means_equal=abs(mean_diff) <= 1e-8,
        variance_ordered=var_margin >= -1e-10,
        sosd=sosd,
        max_payment_ordered=luce_dist.max_payment <= other_dist.max_payment + 1e-10,
        mean_difference=float(mean_diff),
        variance_margin=float(var_margin),
    )
