"""Domain types and contract constructors for budgeted success/failure games.

Agents are indexed 0..n-1. An outcome (the set of agents that succeeded) is
encoded as an n-bit mask: bit i set means agent i succeeded. Contract tables
are indexed by outcome mask, one nonnegative share per agent per outcome.
All types are immutable after construction and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BudgetExceeded, DegenerateProfile

# Largest agent count for anything that builds a 2^n outcome table. Costs,
# profiles, Luce specs and the Luce-family checks take any n >= 1.
MAX_AGENTS = 20

# Default tolerance for contract classification and share comparisons.
CLASSIFY_TOL = 1e-9

# Slack allowed on the per-outcome budget constraint at construction, so that
# contracts assembled from floating-point shares (e.g. normalized weights) are
# not rejected for rounding noise.
_SHARE_SUM_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Outcome masks
# ---------------------------------------------------------------------------

def subset_mask(agents: Iterable[int], n: int) -> int:
    """Encode a collection of agent indices as an outcome bitmask."""
    mask = 0
    for i in agents:
        if not 0 <= i < n:
            raise ValueError(f"agent index {i} out of range for n={n}")
        mask |= 1 << i
    return mask


def mask_agents(mask: int) -> tuple[int, ...]:
    """Decode an outcome bitmask into sorted agent indices."""
    agents = []
    i = 0
    while mask:
        if mask & 1:
            agents.append(i)
        mask >>= 1
        i += 1
    return tuple(agents)


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_AGENTS:
        raise ValueError(f"agent count must be in 1..{MAX_AGENTS}, got {n}")


def validate_mask(mask: int, n: int) -> None:
    """Reject masks with bits at or above position n."""
    _check_n(n)
    if mask < 0 or mask >= (1 << n):
        raise ValueError(f"outcome mask {mask} has bits outside 0..{n - 1}")


def membership(n: int) -> np.ndarray:
    """Boolean (2**n, n) matrix whose entry [m, i] is True when bit i of m is set.

    Stored agent-major like contract tables: each agent's column is contiguous.
    """
    _check_n(n)
    member = np.zeros((n, 1 << n), dtype=bool)
    for i in range(n):
        # Agent i's column repeats 2**i outcomes without it, then 2**i with it.
        member[i].reshape(-1, 2, 1 << i)[:, 1] = True
    return member.T


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerCost:
    """Cost (scale/exponent) * p**exponent with marginal scale * p**(exponent-1).

    The closed-form inverse marginal is (r/scale)**(1/(exponent-1)). With
    exponent 2 this is the quadratic family: cost (scale/2) * p**2.
    """

    scale: float
    exponent: float = 2.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"cost scale must be positive, got {self.scale}")
        if not self.exponent >= 2:
            raise ValueError(f"cost exponent must be >= 2, got {self.exponent}")

    def cost(self, p: float) -> float:
        return self.scale / self.exponent * p ** self.exponent

    def marginal(self, p: float) -> float:
        return self.scale * p ** (self.exponent - 1.0)

    def inverse_marginal(self, r: float | np.ndarray) -> float | np.ndarray:
        if np.any(np.less(r, 0)):
            raise ValueError("marginal cost is nonnegative; cannot invert r < 0")
        return (r / self.scale) ** (1.0 / (self.exponent - 1.0))

    def rescaled(self, factor: float) -> "PowerCost":
        return PowerCost(self.scale * factor, self.exponent)


@dataclass(frozen=True)
class TabulatedMonotone:
    """Convex cost given by sampled marginal-cost values on [0, 1].

    `grid` must start at 0, end at 1, and increase strictly; `values` are the
    marginal costs at the grid points, strictly increasing with values[0] = 0.
    The marginal is interpolated linearly, so its inverse is the linear
    interpolant of grid over values, exact up to rounding. The cost itself
    is the exact integral of the interpolant.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    _cumulative: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = tuple(float(x) for x in self.grid)
        values = tuple(float(v) for v in self.values)
        if len(grid) != len(values) or len(grid) < 2:
            raise ValueError("grid and values must be equal-length, size >= 2")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must span [0, 1]")
        if values[0] != 0.0:
            raise ValueError("marginal cost must be 0 at 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must increase strictly")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("marginal-cost samples must increase strictly")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        # Exact integral of the piecewise-linear marginal up to each knot.
        cum = [0.0]
        for (a, b, va, vb) in zip(grid, grid[1:], values, values[1:]):
            cum.append(cum[-1] + 0.5 * (va + vb) * (b - a))
        object.__setattr__(self, "_cumulative", tuple(cum))

    def cost(self, p: float) -> float:
        grid = np.asarray(self.grid)
        k = int(np.searchsorted(grid, p, side="right")) - 1
        k = min(max(k, 0), len(self.grid) - 2)
        a, b = self.grid[k], self.grid[k + 1]
        va, vb = self.values[k], self.values[k + 1]
        t = (p - a) / (b - a)
        v_p = va + t * (vb - va)
        return self._cumulative[k] + 0.5 * (va + v_p) * (p - a)

    def marginal(self, p: float) -> float:
        return float(np.interp(p, self.grid, self.values))

    def inverse_marginal(self, r: float | np.ndarray) -> float | np.ndarray:
        if np.any(np.less(r, 0)):
            raise ValueError("marginal cost is nonnegative; cannot invert r < 0")
        if np.any(np.greater(r, self.values[-1])):
            raise ValueError(
                f"marginal gain {np.max(r)} exceeds tabulated marginal cost at 1 "
                f"({self.values[-1]})"
            )
        return np.interp(r, self.values, self.grid)

    def rescaled(self, factor: float) -> "TabulatedMonotone":
        return TabulatedMonotone(self.grid, tuple(v * factor for v in self.values))


AgentCost = Union[PowerCost, TabulatedMonotone]


@dataclass(frozen=True)
class CostModel:
    """Per-agent strictly convex effort costs with c_i'(0) = 0."""

    agents: tuple[AgentCost, ...]
    _power_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _power_exp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise ValueError("cost model needs at least one agent")
        object.__setattr__(self, "agents", agents)
        if all(isinstance(c, PowerCost) for c in agents):
            scale = np.array([c.scale for c in agents])
            expo = np.array([c.exponent for c in agents])
        else:
            scale = expo = None
        object.__setattr__(self, "_power_scale", scale)
        object.__setattr__(self, "_power_exp", expo)

    @classmethod
    def power(cls, scales: Sequence[float], exponents: Union[float, Sequence[float]] = 2.0) -> "CostModel":
        if np.isscalar(exponents):
            exponents = [float(exponents)] * len(scales)
        return cls(tuple(PowerCost(float(c), float(k)) for c, k in zip(scales, exponents)))

    @property
    def n(self) -> int:
        return len(self.agents)

    def cost(self, i: int, p: float) -> float:
        return self.agents[i].cost(p)

    def marginal(self, i: int, p: float) -> float:
        return self.agents[i].marginal(p)

    def inverse_marginal(self, i: int, r: float) -> float:
        return self.agents[i].inverse_marginal(r)

    def marginal_vec(self, p: np.ndarray) -> np.ndarray:
        if self._power_scale is not None:
            return self._power_scale * np.asarray(p, dtype=float) ** (self._power_exp - 1.0)
        return np.array([c.marginal(x) for c, x in zip(self.agents, p)])

    def inverse_marginal_vec(self, r: np.ndarray) -> np.ndarray:
        """Per-agent inverse marginals of r, shaped (n,) or a (k, n) batch."""
        r = np.asarray(r, dtype=float)
        if self._power_scale is not None:
            return (r / self._power_scale) ** (1.0 / (self._power_exp - 1.0))
        out = np.empty_like(r)
        for i, c in enumerate(self.agents):
            out[..., i] = c.inverse_marginal(r[..., i])
        return out

    def marginal_at_one(self) -> np.ndarray:
        return np.array([c.marginal(1.0) for c in self.agents])

    def admissible(self, budget: float = 1.0) -> bool:
        """Small-budget admissibility: c_i'(1) > budget for every agent."""
        return bool(np.all(self.marginal_at_one() > budget))

    def normalized(self, budget: float) -> "CostModel":
        """Rescale costs by 1/budget, making the game a budget-1 game."""
        if not budget > 0:
            raise ValueError(f"budget must be positive, got {budget}")
        return CostModel(tuple(c.rescaled(1.0 / budget) for c in self.agents))


# ---------------------------------------------------------------------------
# Profiles and outcome probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Per-agent success probabilities, each in [0, 1)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(x) for x in self.probs)
        if not probs:
            raise ValueError("profile needs at least one agent")
        for i, x in enumerate(probs):
            if not (0.0 <= x < 1.0):
                raise ValueError(f"p[{i}]={x} outside [0, 1)")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return self.probs[i]

    def __iter__(self):
        return iter(self.probs)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs)

    def interior(self) -> bool:
        return all(x > 0.0 for x in self.probs)


ProfileLike = Union[Profile, Sequence[float], np.ndarray]


def as_profile(p: ProfileLike, n: int | None = None) -> Profile:
    """Coerce a sequence of probabilities to a Profile, checking length."""
    prof = p if isinstance(p, Profile) else Profile(tuple(float(x) for x in p))
    if n is not None and prof.n != n:
        raise ValueError(f"profile has {prof.n} agents, expected {n}")
    return prof


def require_interior(p: Profile) -> Profile:
    if not p.interior():
        raise DegenerateProfile(f"profile {p.probs} has a zero coordinate; interior required")
    return p


def outcome_probabilities(p: ProfileLike) -> np.ndarray:
    """Probability of every outcome mask under independent successes.

    Returns an array of length 2**n with entry m equal to the probability
    that the set of successful agents is exactly the agents in mask m. A
    (k, n) batch of profiles gives one such row per profile, shape (k, 2**n).
    Mask m splits into the bits of the first n // 2 agents and of the rest,
    so the result is the outer product of those two halves' tables.
    """
    arr = p.as_array() if isinstance(p, Profile) else np.asarray(p, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a profile or a (k, n) batch, got shape {arr.shape}")
    _check_n(arr.shape[-1])
    half = arr.shape[-1] // 2
    pairs = np.stack((1.0 - arr.T, arr.T), axis=1)
    low, high = _outcome_table(pairs[:half]), _outcome_table(pairs[half:])
    return (high[:, None] * low).reshape((-1,) + arr.shape[:-1]).T


def _outcome_table(pairs: np.ndarray) -> np.ndarray:
    """Outcome table of m agents by doubling, outcomes first: (2**m, ...).

    `pairs[j]` holds agent j's factors for failing and for succeeding,
    (1 - p_j, p_j) for a probability table, stacked on axis 1 and followed
    by any batch axes. Each agent's pair multiplies the table so far as its
    new highest bit. No agents gives a table of ones of length 1.
    """
    probs = np.ones((1,) + pairs.shape[2:])
    for pair in pairs[:, :, None]:
        probs = (pair * probs).reshape((-1,) + pairs.shape[2:])
    return probs


def outcome_prob(p: ProfileLike, mask: int) -> float:
    """Probability that exactly the agents in `mask` succeed."""
    prof = as_profile(p)
    validate_mask(mask, prof.n)
    out = 1.0
    for i, pi in enumerate(prof):
        out *= pi if (mask >> i) & 1 else 1.0 - pi
    return out


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Contract:
    """Reward table: a nonnegative share per agent for every outcome.

    Unless `unconstrained` is set, shares on each outcome must sum to at most
    1; rewards are share * budget. The table is indexed [mask, agent] and
    stored agent-major (Fortran order), so each agent's column is contiguous
    and the 2^n solver reads it as one block per agent. It is read-only: a
    float array that is already read-only, F-contiguous and owns its data is
    kept as it is (the library's constructors build theirs that way and hand
    it over), anything else, such as a writable array, a view or a row-major
    table, is copied.
    """

    n: int
    table: np.ndarray
    budget: float = 1.0
    unconstrained: bool = False

    def __post_init__(self):
        _check_n(self.n)
        if not 0 < self.budget < np.inf:
            raise ValueError(f"budget must be positive and finite, got {self.budget}")
        table = self.table
        if np.shape(table) != (1 << self.n, self.n):
            raise ValueError(
                f"table shape {np.shape(table)} != {(1 << self.n, self.n)} for n={self.n}"
            )
        if not (isinstance(table, np.ndarray) and table.dtype == np.float64
                and table.flags.f_contiguous and table.flags.owndata
                and not table.flags.writeable):
            table = _agent_major_copy(table)
        if not np.all(table >= 0.0):  # also catches NaN
            raise ValueError("limited liability violated: negative or NaN share in table")
        if not self.unconstrained:
            sums = table.sum(axis=1)
            worst = int(np.argmax(sums))
            if sums[worst] > 1.0 + _SHARE_SUM_SLACK:
                raise BudgetExceeded(
                    f"budget constraint violated: shares sum to {sums[worst]:.6g} "
                    f"on outcome mask {worst}"
                )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_rows(cls, n: int, rows: dict[int, Sequence[float]], budget: float = 1.0,
                  unconstrained: bool = False) -> "Contract":
        """Build a contract from a sparse mask -> shares mapping (rest zero)."""
        table = _empty_table(n)
        for mask, shares in rows.items():
            validate_mask(mask, n)
            table[mask] = shares
        table.setflags(write=False)
        return cls(n, table, budget, unconstrained)

    def shares(self, mask: int) -> np.ndarray:
        validate_mask(mask, self.n)
        return self.table[mask]

    def total_shares(self) -> np.ndarray:
        """Sum of shares on each outcome (length 2**n)."""
        return self.table.sum(axis=1)

    def with_budget(self, budget: float) -> "Contract":
        return Contract(self.n, self.table, budget, self.unconstrained)

    def allclose(self, other: "Contract", tol: float = CLASSIFY_TOL) -> bool:
        return (
            self.n == other.n
            and abs(self.budget - other.budget) <= tol
            and bool(np.max(np.abs(self.table - other.table)) <= tol)
        )


# Rows per block when a row-major table is copied agent-major: a block's
# reads and writes stay in cache, where numpy's one-pass Fortran-order copy of
# a (2**16, 16) table takes about 3.5x as long.
_COPY_ROWS = 256


def _empty_table(n: int) -> np.ndarray:
    """A zeroed, writable (2**n, n) table stored agent-major.

    Fill it, freeze it with `setflags(write=False)` and hand it to `Contract`,
    which then keeps it without a copy.
    """
    _check_n(n)
    return np.zeros((1 << n, n), order="F")


def _agent_major_copy(table) -> np.ndarray:
    """Copy a 2-D table into a new agent-major float array, in row blocks."""
    src = np.asarray(table, dtype=float)
    out = np.empty(src.shape, order="F")
    for start in range(0, len(src), _COPY_ROWS):
        out[start:start + _COPY_ROWS] = src[start:start + _COPY_ROWS]
    return out


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Entry m is the sum of values[i] over the agents i in mask m, built by doubling."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate((sums, sums + v))
    return sums


def zero_contract(n: int, budget: float = 1.0) -> Contract:
    """The contract that never pays anything."""
    table = _empty_table(n)
    table.setflags(write=False)
    return Contract(n, table, budget)


def equal_split(n: int, budget: float = 1.0) -> Contract:
    """Split the whole budget equally among the successful agents."""
    member = membership(n)
    counts = _subset_sums(np.ones(n))
    counts[0] = 1.0  # the empty outcome pays nobody
    table = _empty_table(n)
    np.divide(member.T, counts, out=table.T)
    table.setflags(write=False)
    return Contract(n, table, budget)


# ---------------------------------------------------------------------------
# Luce specs: priority tiers plus weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LuceSpec:
    """Ordered priority tiers plus positive per-agent weights.

    `partition` lists disjoint agent blocks covering 0..n-1, earlier blocks
    having higher priority. Rewards depend only on weight ratios within a
    tier, so weights are canonicalized to sum to 1 within each block; two
    specs are equal exactly when their canonical forms coincide.
    """

    partition: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in block)) for block in self.partition)
        if not blocks or any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError("partition must cover agents 0..n-1 exactly once")
        weights = np.array([float(w) for w in self.weights])
        if weights.size != n:
            raise ValueError(f"need {n} weights, got {weights.size}")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        canon = weights.copy()
        for block in blocks:
            idx = list(block)
            canon[idx] = canon[idx] / canon[idx].sum()
        object.__setattr__(self, "partition", blocks)
        object.__setattr__(self, "weights", tuple(float(w) for w in canon))

    @classmethod
    def single_block(cls, weights: Sequence[float]) -> "LuceSpec":
        return cls((tuple(range(len(weights))),), tuple(weights))

    @classmethod
    def priority(cls, order: Sequence[int]) -> "LuceSpec":
        """Strict priority: each agent its own tier, highest first."""
        return cls(tuple((int(i),) for i in order), (1.0,) * len(order))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.partition)

    def allclose(self, other: "LuceSpec", tol: float = 1e-12) -> bool:
        return self.partition == other.partition and all(
            abs(a - b) <= tol for a, b in zip(self.weights, other.weights)
        )


def expand_luce(spec: LuceSpec, n: int, budget: float = 1.0) -> Contract:
    """Expand a LuceSpec into its full reward table.

    On each nonempty outcome, the highest-priority successful tier splits the
    whole budget in proportion to weights; everyone else gets nothing. The
    result always passes the successful-get-everything classification.
    """
    if spec.n != n:
        raise ValueError(f"spec covers {spec.n} agents, expected {n}")
    w = np.array(spec.weights)
    masks = np.arange(1 << n, dtype=np.uint32)
    tier_masks = np.array([subset_mask(block, n) for block in spec.partition], dtype=np.uint32)
    tier_of = np.empty(n, dtype=np.intp)
    for t, block in enumerate(spec.partition):
        tier_of[list(block)] = t
    # The highest-priority tier each outcome meets (0 for the empty outcome).
    top = ((masks[:, None] & tier_masks) != 0).argmax(axis=1)
    winners = membership(n).T & (tier_of[:, None] == top)  # agent-major
    denom = _subset_sums(w)[masks & tier_masks[top]]
    denom[0] = 1.0  # the empty outcome pays nobody
    table = _empty_table(n)
    cols = table.T  # row i is agent i's column, contiguous
    np.multiply(winners, w[:, None], out=cols)
    cols /= denom
    table.setflags(write=False)
    return Contract(n, table, budget)


# ---------------------------------------------------------------------------
# Named contract families
# ---------------------------------------------------------------------------

def piece_rate(q: ProfileLike, costs: CostModel, unconstrained: bool = False) -> Contract:
    """Pay c_i'(q_i) to agent i whenever it succeeds (absolute payments).

    Induces q as the unique equilibrium regardless of the other agents. Total
    payments may exceed the unit budget; pass unconstrained=True to allow
    that (raises BudgetExceeded otherwise).
    """
    prof = as_profile(q, costs.n)
    n = prof.n
    rates = np.array([costs.marginal(i, prof[i]) for i in range(n)])
    table = _empty_table(n)
    np.multiply(membership(n).T, rates[:, None], out=table.T)
    table.setflags(write=False)
    return Contract(n, table, budget=1.0, unconstrained=unconstrained)


def bonus_pool(q: ProfileLike, costs: CostModel) -> Contract:
    """Pay q_i c_i'(q_i) / prod(q) to agent i only when every agent succeeds.

    Induces q in equilibrium; degenerate when some q_i = 0. The unconstrained
    flag is set automatically when the payments exceed the unit budget.
    """
    prof = as_profile(q, costs.n)
    n = prof.n
    if not prof.interior():
        raise DegenerateProfile("bonus pool undefined when some q_i = 0")
    prod = float(np.prod(prof.as_array()))
    pays = np.array([prof[i] * costs.marginal(i, prof[i]) / prod for i in range(n)])
    table = _empty_table(n)
    table[(1 << n) - 1] = pays
    table.setflags(write=False)
    return Contract(n, table, budget=1.0, unconstrained=bool(pays.sum() > 1.0))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractClass:
    """Structural flags for a contract, with the recovered spec when Luce."""

    is_fgn: bool
    is_sge: bool
    is_weighted: bool
    is_luce: bool
    luce_spec: LuceSpec | None = None


def _recover_luce(f: Contract, tol: float) -> LuceSpec | None:
    """Read a candidate LuceSpec off singleton and pairwise outcomes."""
    n = f.n
    if n == 1:
        return LuceSpec.single_block((1.0,))
    # Pairwise outcomes decide priority: in {i, j}, a strictly positive share
    # means membership in the top tier of that pair.
    beats = np.zeros((n, n), dtype=bool)
    same = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            mask = (1 << i) | (1 << j)
            a, b = f.table[mask, i], f.table[mask, j]
            if a > tol and b > tol:
                same[i, j] = same[j, i] = True
            elif a > tol:
                beats[i, j] = True
            elif b > tol:
                beats[j, i] = True
            else:
                return None
    # Agents in higher tiers beat strictly more opponents; equal counts must
    # form one tier.
    counts = beats.sum(axis=1)
    order = sorted(range(n), key=lambda i: (-counts[i], i))
    blocks: list[list[int]] = []
    for i in order:
        if blocks and counts[blocks[-1][0]] == counts[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    for k, block in enumerate(blocks):
        for i in block:
            for j in block:
                if i != j and not same[i, j]:
                    return None
            for later in blocks[k + 1:]:
                if not all(beats[i, j] for j in later):
                    return None
    # Within a tier, pairwise shares give the weight ratios.
    weights = np.zeros(n)
    for block in blocks:
        anchor = block[0]
        weights[anchor] = 1.0
        for j in block[1:]:
            mask = (1 << anchor) | (1 << j)
            weights[j] = f.table[mask, j] / f.table[mask, anchor]
    return LuceSpec(tuple(tuple(sorted(b)) for b in blocks), tuple(weights))


def classify(f: Contract, tol: float = CLASSIFY_TOL) -> ContractClass:
    """Test a contract for the named structural families.

    failures-get-nothing: zero share for every agent outside the outcome.
    successful-get-everything: additionally the shares sum to 1 on every
    nonempty outcome. Luce/weighted contracts are detected by recovering a
    spec from singleton and pairwise outcomes and comparing its expansion
    against the table within `tol`.
    """
    n = f.n
    in_outcome = membership(n)
    is_fgn = bool(np.max(np.abs(f.table[~in_outcome])) <= tol) if (~in_outcome).any() else True
    sums = f.table.sum(axis=1)
    is_sge = is_fgn and bool(np.max(np.abs(sums[1:] - 1.0)) <= tol)
    luce_spec = None
    if is_sge:
        candidate = _recover_luce(f, tol)
        if candidate is not None:
            expanded = expand_luce(candidate, n, budget=f.budget)
            if np.max(np.abs(expanded.table - f.table)) <= tol:
                luce_spec = candidate
    is_luce = luce_spec is not None
    is_weighted = is_luce and len(luce_spec.partition) == 1
    return ContractClass(is_fgn, is_sge, is_weighted, is_luce, luce_spec)


# ---------------------------------------------------------------------------
# Equilibrium result container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumResult:
    """A fixed point of the simultaneous best-response map."""

    profile: Profile
    max_residual: float
    iterations: int
    converged: bool
