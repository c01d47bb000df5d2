"""The benchmark's workloads, their correctness gates and the layer metrics.

Every op drives the library through its public names only. Inputs for op i
come from numpy's generator seeded with (workload seed, i), so a run's inputs
do not depend on how many ops fit in it. See README.md for why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any

import numpy as np

import contractgames as cg
from contractgames import core, equilibrium, luce, maximal, optimize, payments

from harness import checksum_mismatch, rounded
from tracer import ROOT, Tracer, by_name, calls_under

DEFAULT_SEED = 0
CHECKSUM_FILE = Path(__file__).with_name("checksums.json")
# Answers of the first CHECKSUM_OPS ops of a default-seed run are compared
# with CHECKSUM_FILE.
CHECKSUM_OPS = 6

DEFAULT_SOLVER = cg.SolverOptions()


def random_spec(n: int, tiers: int, rng: np.random.Generator) -> cg.LuceSpec:
    """`tiers` priority tiers over a random agent order, weights in [0.5, 2]."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=tiers - 1, replace=False))
    blocks = tuple(tuple(int(a) for a in b) for b in np.split(order, cuts))
    return cg.LuceSpec(blocks, tuple(rng.uniform(0.5, 2.0, size=n)))


def random_fgn_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """Failures-get-nothing shares: Dirichlet(1) over the winners, times U(0.2, 0.95)."""
    member = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    draws = rng.exponential(size=member.shape) * member
    sums = draws.sum(axis=1)
    sums[0] = 1.0
    return draws / sums[:, None] * rng.uniform(0.2, 0.95, size=(1 << n, 1))


def _costs(n: int, rng: np.random.Generator) -> cg.CostModel:
    # c_i'(1) = scale >= n + 1 exceeds any marginal gain a unit budget can give.
    return cg.CostModel.power(rng.uniform(n + 1, n + 6, size=n))


class Workload:
    """make_input(i) builds op i's inputs, run(inp) is the timed op, check gates it."""

    name = ""
    warm_up_n = 2
    warm_ups = 1
    # Inputs rotate through this many kinds; runs end on a whole rotation.
    period = 1

    def __init__(self, seed: int, n: int | None = None):
        self.seed = seed
        self.n = n if n is not None else self.default_n
        self.answers: list[Any] = []
        self.expected: list[Any] = []
        if seed == DEFAULT_SEED and n is None:
            self.expected = json.loads(CHECKSUM_FILE.read_text()).get(self.name, [])

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def tiers(self, k: int) -> int:
        """1, 2, 3, 1, ... tiers: fixed proportions keep seeds comparable."""
        return 1 + k % min(3, self.n)

    def check(self, i: int, inp: Any, out: Any) -> str | None:
        reason = self.gate(inp, out)
        if reason is not None or i >= CHECKSUM_OPS:
            return reason
        answer = rounded(self.answer(inp, out))
        if len(self.answers) == i:
            self.answers.append(answer)
        if i < len(self.expected):
            return checksum_mismatch(self.expected[i], answer, where=f"op {i} answer")
        return None

    def warm_up(self) -> None:
        """Run a few small ops so lazy imports and first-call costs are paid in set-up."""
        small = type(self)(self.seed, n=self.warm_up_n)
        for i in range(self.warm_ups):
            inp = small.make_input(i)
            reason = small.check(i, inp, small.run(inp))
            if reason is not None:
                raise RuntimeError(f"warm-up op {i} failed: {reason}")


class Equilibria(Workload):
    """n = 16: build one contract (rotating constructors), then find_equilibria."""

    name = "equilibria"
    default_n = 16
    warm_up_n = 4
    kinds = ("equal_split", "expand_luce", "Contract")
    warm_ups = len(kinds)
    period = 3 * len(kinds)  # constructors, and tier counts of the expand_luce ops

    def make_input(self, i):
        rng = self.rng(i)
        costs = _costs(self.n, rng)
        kind = self.kinds[i % len(self.kinds)]
        arg = None
        if kind == "expand_luce":
            arg = random_spec(self.n, self.tiers(i // len(self.kinds)), rng)
        elif kind == "Contract":
            arg = random_fgn_table(self.n, rng)
        return kind, arg, costs

    def run(self, inp):
        kind, arg, costs = inp
        if kind == "equal_split":
            f = cg.equal_split(self.n)
        elif kind == "expand_luce":
            f = cg.expand_luce(arg, self.n)
        else:
            f = cg.Contract(self.n, arg)
        return f, cg.find_equilibria(f, costs)

    def gate(self, inp, out):
        _, _, costs = inp
        f, results = out
        converged = [r for r in results if r.converged]
        if not converged:
            return "no converged equilibrium"
        limit = 10 * DEFAULT_SOLVER.tolerance
        for r in converged:
            residual = cg.equilibrium_residual(f, r.profile, costs)
            if not residual <= limit:
                return f"equilibrium residual {residual:.3g} > {limit:.3g}"
        return None

    def answer(self, inp, out):
        return [list(r.profile.probs) for r in out[1] if r.converged]


class Synthesis(Workload):
    """n = 10: Luce round trip (expand, solve, synthesize) plus a payment audit."""

    name = "synthesis"
    default_n = 10
    solver = cg.SolverOptions(tolerance=1e-13)
    samples = 8
    period = 3  # tier counts

    def make_input(self, i):
        rng = self.rng(i)
        costs = _costs(self.n, rng)
        return random_spec(self.n, self.tiers(i), rng), costs, int(rng.integers(2 ** 32))

    def run(self, inp):
        spec, costs, sample_seed = inp
        f = cg.expand_luce(spec, self.n)
        converged = [r for r in cg.find_equilibria(f, costs, self.solver) if r.converged]
        if not converged:
            return None
        p = converged[0].profile
        syn = cg.synthesize_luce(p, costs)
        dist = cg.payment_distribution(cg.expand_luce(syn.spec, self.n, syn.budget), p)
        others = cg.implementing_fgn_samples(p, costs, self.samples, seed=sample_seed)
        verdicts = [cg.mps_compare(dist, cg.payment_distribution(g, p)) for g in others]
        return p, syn, dist, verdicts

    def gate(self, inp, out):
        if out is None:
            return "no converged equilibrium"
        spec = inp[0]
        _, syn, dist, verdicts = out
        if syn.spec.partition != spec.partition:
            return f"recovered tiers {syn.spec.partition} != {spec.partition}"
        gap = max(abs(a - b) for a, b in zip(syn.spec.weights, spec.weights))
        if not gap <= 1e-6:
            return f"recovered weights off by {gap:.3g}"
        if not abs(syn.budget - 1.0) <= 1e-8:
            return f"recovered budget {syn.budget!r} != 1"
        atoms = dist.values
        if len(atoms) != 2 or abs(atoms[0]) > 1e-9 or abs(atoms[1] - syn.budget) > 1e-9:
            return f"payment atoms {atoms} are not {{0, budget}}"
        for k, v in enumerate(verdicts):
            if not (v.means_equal and v.variance_ordered and v.sosd and v.max_payment_ordered):
                return f"sample {k}: spread verdict fails: {v}"
        return None

    def answer(self, inp, out):
        p, syn, _, _ = out
        return [list(p.probs), [list(b) for b in syn.spec.partition],
                list(syn.spec.weights), syn.budget]


class Optimize(Workload):
    """n = 3: optimize_principal with a linear objective and library defaults."""

    name = "optimize"
    default_n = 3

    def make_input(self, i):
        rng = self.rng(i)
        costs = cg.CostModel.power(rng.uniform(2.0, 4.0, size=self.n))
        objective = cg.Objective.linear(rng.uniform(0.5, 2.0, size=self.n))
        return objective, costs, int(rng.integers(2 ** 31))

    def run(self, inp):
        objective, costs, k = inp
        return cg.optimize_principal(objective, costs, seed=k)

    def _best_value(self, spec, objective, costs):
        results = cg.find_equilibria(cg.expand_luce(spec, self.n), costs)
        values = [objective.value(r.profile.probs) for r in results if r.converged]
        return max(values, default=-np.inf), results

    def gate(self, inp, out):
        objective, costs, _ = inp
        target = np.array(out.equilibrium.probs)
        _, results = self._best_value(out.spec, objective, costs)
        if not any(r.converged and np.max(np.abs(np.array(r.profile.probs) - target)) <= 1e-6
                   for r in results):
            return "returned profile is not an equilibrium of the returned spec"
        value = objective.value(out.equilibrium.probs)
        if not abs(out.value - value) <= 1e-12:
            return f"value {out.value!r} != objective at the profile {value!r}"
        candidates = [cg.LuceSpec.priority(order)
                      for order in itertools.permutations(range(self.n))]
        candidates.append(cg.LuceSpec.single_block((1.0,) * self.n))
        best = max(self._best_value(spec, objective, costs)[0] for spec in candidates)
        if not out.value >= best - 1e-9:
            return f"value {out.value!r} below a directly evaluated candidate {best!r}"
        return None

    def answer(self, inp, out):
        return [out.value, list(out.equilibrium.probs)]


WORKLOADS = {w.name: w for w in (Equilibria, Synthesis, Optimize)}

# ---------------------------------------------------------------------------
# Tracing: the wrapped public functions and the per-layer metrics
# ---------------------------------------------------------------------------

MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (core, equilibrium, maximal, luce, optimize, payments)}

TRACED = (
    "core.Contract", "core.LuceSpec", "core.equal_split", "core.expand_luce",
    "core.outcome_probabilities",
    "equilibrium.find_equilibria",
    "maximal.luce_condition",
    "luce.synthesize_luce",
    "optimize.optimize_principal",
    "payments.payment_distribution", "payments.implementing_fgn_samples",
    "payments.mps_compare",
)


def _observe_find_equilibria(counts, args, kwargs, out):
    options = args[2] if len(args) > 2 else kwargs.get("options")
    extra = args[3] if len(args) > 3 else kwargs.get("initial_profiles", ())
    counts["equilibrium.starts"] += max(1, (options or DEFAULT_SOLVER).starts) + len(extra)
    counts["equilibrium.fixed_points"] += len(out)
    counts["equilibrium.converged"] += sum(r.converged for r in out)


def _observe_optimum(counts, args, kwargs, out):
    counts["optimize.evals"] += out.search_trace


OBSERVERS = {
    "equilibrium.find_equilibria": _observe_find_equilibria,
    "optimize.optimize_principal": _observe_optimum,
}


def trace_targets():
    """(span name, original object, observer) for tracer.installed."""
    out = []
    for name in TRACED:
        module, attr = name.split(".")
        out.append((name, getattr(MODULES[module], attr), OBSERVERS.get(name)))
    return out


# name -> unit, in the order printed; must match BENCHMARK.json's per_layer.
LAYER_METRICS = {
    "core.expand_luce.calls": "calls/op",
    "core.expand_luce.self_s": "s/op",
    "core.equal_split.self_s": "s/op",
    "core.Contract.self_s": "s/op",
    "core.outcome_probabilities.calls": "calls/op",
    "core.outcome_probabilities.self_s": "s/op",
    "equilibrium.find_equilibria.calls": "calls/op",
    "equilibrium.find_equilibria.self_s": "s/op",
    "equilibrium.sweeps_per_call": "sweeps/call",
    "equilibrium.converged_ratio": "ratio",
    "equilibrium.distinct_per_start": "ratio",
    "maximal.luce_condition.self_s": "s/op",
    "luce.synthesize_luce.self_s": "s/op",
    "luce.weight_sweeps_per_call": "sweeps/call",
    "optimize.optimize_principal.self_s": "s/op",
    "optimize.evals_per_call": "evals/call",
    "payments.payment_distribution.self_s": "s/op",
    "payments.implementing_fgn_samples.self_s": "s/op",
    "payments.mps_compare.self_s": "s/op",
    **{f"{m}.{k}": u for m in MODULES for k, u in (("self_s", "s/op"), ("self_share", "ratio"))},
    "op.traced_s": "s/op",
    "op.self_share": "ratio",
    "trace_overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-op layer metrics from one run's spans and counts.

    traced_s and untraced_s are the summed durations of the same inputs run
    with and without tracing.
    """
    spans, counts = tracer.spans, tracer.counts
    stats = by_name(spans)
    roots = [s for s in spans if s.name == ROOT]
    ops = len(roots)
    op_s = sum(s.end - s.start for s in roots)

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    out = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(base) / ops
        elif kind == "self_s" and base in MODULES:
            out[metric] = sum(t for name, (_, t) in stats.items()
                              if name.split(".")[0] == base) / ops
        elif kind == "self_s":
            out[metric] = self_s(base) / ops
    for m in MODULES:
        out[f"{m}.self_share"] = _ratio(out[f"{m}.self_s"] * ops, op_s)
    finds = calls("equilibrium.find_equilibria")
    out["equilibrium.sweeps_per_call"] = _ratio(
        calls_under(spans, "core.outcome_probabilities", "equilibrium.find_equilibria"), finds)
    out["equilibrium.converged_ratio"] = _ratio(counts["equilibrium.converged"],
                                                counts["equilibrium.fixed_points"])
    out["equilibrium.distinct_per_start"] = _ratio(counts["equilibrium.converged"],
                                                   counts["equilibrium.starts"])
    out["luce.weight_sweeps_per_call"] = _ratio(
        calls_under(spans, "core.expand_luce", "luce.synthesize_luce"),
        calls("luce.synthesize_luce"))
    out["optimize.evals_per_call"] = _ratio(counts["optimize.evals"],
                                            calls("optimize.optimize_principal"))
    out["op.traced_s"] = op_s / ops
    out["op.self_share"] = _ratio(self_s(ROOT), op_s)
    out["trace_overhead_ratio"] = _ratio(traced_s, untraced_s)
    return {name: out[name] for name in LAYER_METRICS}
