"""Command-line toolkit for contract-game computations.

Subcommands: solve, check, synthesize, optimize, two-agent, payments,
frontier. Inputs come from flags or a JSON config document (the config wins
on conflict, with a warning); outputs are JSON or CSV written to stdout or
--out. Agent indices are 1-based in all input and output. Exit codes: 0
success, 2 validation error, 3 profile not implementable by a tiered
contract, 4 no convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import serialize
from .core import CostModel, Profile, bonus_pool, classify, expand_luce, piece_rate
from .equilibrium import SolverOptions, find_equilibria
from .errors import ContractGameError, NoConvergence, NotLuceImplementable
from .luce import synthesize_luce
from .maximal import brute_force_frontier, implementability_necessary, luce_condition, z_value
from .optimize import (
    Objective,
    optimize_principal,
    two_agent_equilibrium,
    two_agent_optimal_lambda,
)
from .payments import implementing_fgn_samples, mps_compare, payment_distribution

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_IMPLEMENTABLE = 3
EXIT_NO_CONVERGENCE = 4

PROBLEM_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "costs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "kind": {"const": "power"},
                    "scale": {"type": "number", "exclusiveMinimum": 0},
                    "exponent": {"type": "number", "minimum": 2},
                },
                "required": ["kind", "scale", "exponent"],
                "additionalProperties": False,
            },
        },
        "budget": {"type": "number", "exclusiveMinimum": 0},
        "objective": {
            "type": "object",
            "properties": {
                "kind": {"const": "linear"},
                "weights": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
            },
            "required": ["kind", "weights"],
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
                "max_iterations": {"type": "integer", "minimum": 1},
                "starts": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "out": {"type": "string"},
    },
    "required": ["n", "costs"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def parse_profile(text: str) -> Profile:
    try:
        return Profile(tuple(float(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad --profile {text!r}: {exc}") from exc


def parse_costs(text: str) -> CostModel:
    """Comma-separated cost entries, each 'power:SCALE:EXPONENT'."""
    entries = []
    for item in text.split(","):
        parts = item.split(":")
        if len(parts) != 3 or parts[0] != "power":
            raise ValueError(
                f"bad cost entry {item!r}; expected power:SCALE:EXPONENT"
            )
        entries.append({"kind": "power", "scale": float(parts[1]), "exponent": float(parts[2])})
    return _costs_from_entries(entries)


def _costs_from_entries(entries) -> CostModel:
    return CostModel.power(
        [e["scale"] for e in entries], [e["exponent"] for e in entries]
    )


def load_config(path: str) -> dict:
    """Read and validate a problem-config document; a schema violation is a ValueError.

    jsonschema is imported here, so only --config pays for loading it.
    """
    import jsonschema

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        jsonschema.validate(doc, PROBLEM_CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValueError(str(exc)) from exc
    if len(doc["costs"]) != doc["n"]:
        raise ValueError(
            f"config lists {len(doc['costs'])} cost entries for n={doc['n']}"
        )
    return doc


def _solver_from_config(doc: dict | None, seed: int) -> SolverOptions:
    """The config's solver settings over SolverOptions' defaults; --seed unless it sets one."""
    return SolverOptions(**{"seed": seed, **(doc or {}).get("solver", {})})


def resolve_problem(args) -> tuple[CostModel, float, SolverOptions, dict | None]:
    """Merge --costs/--budget flags with an optional config document.

    The config wins on conflict (warning to stderr). Costs are normalized to
    a unit budget at ingestion and small-budget admissibility is enforced.
    The output path is settled here too: --out, else the config's `out`.
    """
    doc = load_config(args.config) if getattr(args, "config", None) else None
    flag_costs = parse_costs(args.costs) if getattr(args, "costs", None) else None
    budget = 1.0
    if doc is not None:
        costs = _costs_from_entries(doc["costs"])
        budget = doc.get("budget", 1.0)
        if flag_costs is not None and flag_costs != costs:
            print(
                "warning: --costs conflicts with the config document; using the config",
                file=sys.stderr,
            )
        if getattr(args, "budget", None) is not None and args.budget != budget:
            print(
                "warning: --budget conflicts with the config document; using the config",
                file=sys.stderr,
            )
        if args.out is None:
            args.out = doc.get("out")
    else:
        if flag_costs is None:
            raise ValueError("either --costs or --config is required")
        costs = flag_costs
        if getattr(args, "budget", None) is not None:
            budget = args.budget
    normalized = costs.normalized(budget)
    if not normalized.admissible(1.0):
        raise ValueError(
            "small-budget admissibility violated: need c_i'(1) > budget for every "
            "agent after normalization"
        )
    solver = _solver_from_config(doc, args.seed)
    return normalized, budget, solver, doc


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    costs, _, solver, _ = resolve_problem(args)
    with open(args.contract, encoding="utf-8") as fh:
        contract = serialize.contract_from_dict(json.load(fh))
    if contract.n != costs.n:
        raise ValueError(f"contract has n={contract.n}, costs have n={costs.n}")
    results = find_equilibria(contract, costs, solver)
    flags = classify(contract)
    payload = {
        "classification": {
            "is_fgn": flags.is_fgn,
            "is_sge": flags.is_sge,
            "is_weighted": flags.is_weighted,
            "is_luce": flags.is_luce,
        },
        "equilibria": [serialize.equilibrium_to_dict(r) for r in results],
    }
    _emit(serialize.canonical_json(payload), args)
    if not any(r.converged for r in results):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_check(args) -> int:
    costs, _, _, _ = resolve_problem(args)
    profile = parse_profile(args.profile)
    report = luce_condition(profile, costs)
    payload = {
        "profile": list(profile.probs),
        "z": z_value(profile, costs),
        "z_at_most_one": implementability_necessary(profile, costs),
        "condition": serialize.condition_report_to_dict(report),
    }
    _emit(serialize.canonical_json(payload), args)
    return EXIT_OK if report.holds else EXIT_NOT_IMPLEMENTABLE


def cmd_synthesize(args) -> int:
    costs, _, _, _ = resolve_problem(args)
    result = synthesize_luce(parse_profile(args.profile), costs)
    _emit(serialize.canonical_json(serialize.synthesis_to_dict(result)), args)
    return EXIT_OK


def cmd_optimize(args) -> int:
    costs, _, _, doc = resolve_problem(args)
    if doc is not None and "objective" in doc:
        weights = doc["objective"]["weights"]
        if args.weights:
            print(
                "warning: --weights conflicts with the config document; using the config",
                file=sys.stderr,
            )
    elif args.weights:
        weights = [float(x) for x in args.weights.split(",")]
    else:
        raise ValueError("either --weights or a config objective is required")
    if len(weights) != costs.n:
        raise ValueError(f"{len(weights)} objective weights for n={costs.n}")
    optimum = optimize_principal(Objective.linear(weights), costs, seed=args.seed)
    _emit(serialize.canonical_json(serialize.optimum_to_dict(optimum)), args)
    return EXIT_OK


def cmd_two_agent(args) -> int:
    if args.sweep:
        lo, hi, step = (float(x) for x in args.sweep.split(":"))
        if step <= 0 or hi < lo:
            raise ValueError(f"bad --sweep {args.sweep!r}; expected LO:HI:STEP")
        rows = [["w", "lambda_star", "p_1", "p_2"]]
        for k in range(int((hi - lo) / step + 1e-9) + 1):
            w = lo + k * step
            lam = two_agent_optimal_lambda(args.c1, args.c2, w)
            p1, p2 = two_agent_equilibrium(args.c1, args.c2, lam)
            rows.append([serialize.fmt_float(x) for x in (w, lam, p1, p2)])
        _emit(_csv_text(rows), args)
        return EXIT_OK
    if args.w is None:
        raise ValueError("--w is required unless --sweep is given")
    lam = two_agent_optimal_lambda(args.c1, args.c2, args.w)
    p1, p2 = two_agent_equilibrium(args.c1, args.c2, lam)
    payload = {
        "lambda_star": lam,
        "equilibrium": [p1, p2],
        "value": args.w * p1 + p2,
    }
    _emit(serialize.canonical_json(payload), args)
    return EXIT_OK


def cmd_payments(args) -> int:
    costs, _, _, _ = resolve_problem(args)
    profile = parse_profile(args.profile)
    synthesis = synthesize_luce(profile, costs)
    luce_contract = expand_luce(synthesis.spec, costs.n, synthesis.budget)
    luce_dist = payment_distribution(luce_contract, profile)
    named = {
        "piece_rate": payment_distribution(
            piece_rate(profile, costs, unconstrained=True), profile
        ),
        "bonus_pool": payment_distribution(bonus_pool(profile, costs), profile),
    }
    verdicts = {name: mps_compare(luce_dist, dist) for name, dist in named.items()}
    sampled_ok = True
    for contract in implementing_fgn_samples(profile, costs, args.samples, seed=args.seed):
        verdict = mps_compare(luce_dist, payment_distribution(contract, profile))
        sampled_ok = sampled_ok and verdict.means_equal and verdict.variance_ordered and verdict.sosd
    payload = {
        "budget": synthesis.budget,
        "luce": serialize.distribution_to_dict(luce_dist),
        "piece_rate": serialize.distribution_to_dict(named["piece_rate"]),
        "bonus_pool": serialize.distribution_to_dict(named["bonus_pool"]),
        "verdicts": {k: serialize.verdict_to_dict(v) for k, v in verdicts.items()},
        "sampled": {"count": args.samples, "all_pass": sampled_ok},
    }
    _emit(serialize.canonical_json(payload), args)
    if args.csv:
        rows = [["contract", "value", "probability"]]
        for name, dist in [("luce", luce_dist)] + list(named.items()):
            for v, q in dist.atoms():
                rows.append([name, serialize.fmt_float(v), serialize.fmt_float(q)])
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(rows))
    return EXIT_OK


def cmd_frontier(args) -> int:
    costs, _, solver, _ = resolve_problem(args)
    result = brute_force_frontier(
        costs,
        args.grid,
        non_sge_samples=args.samples,
        seed=args.seed,
        options=SolverOptions(tolerance=solver.tolerance, starts=4, seed=solver.seed),
    )
    _emit(_csv_text(serialize.frontier_csv_rows(result, costs.n)), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _add_problem_flags(sub, profile: bool = False) -> None:
    sub.add_argument("--costs", help="comma-separated power:SCALE:EXPONENT entries")
    sub.add_argument("--budget", type=float, default=None, help="budget (default 1)")
    sub.add_argument("--config", help="JSON problem-config document")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed of the random starts and samples (default 0)")
    if profile:
        sub.add_argument("--profile", required=True, help="comma-separated probabilities")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contract-games",
        description="Equilibria, synthesis, and optimization for budgeted contract games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibria of a contract file")
    p.add_argument("--contract", required=True, help="contract JSON document")
    _add_problem_flags(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("check", help="z value and subset-inequality report for a profile")
    _add_problem_flags(p, profile=True)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("synthesize", help="the tiered contract implementing a profile")
    _add_problem_flags(p, profile=True)
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("optimize", help="best tiered contract for a linear objective")
    _add_problem_flags(p)
    p.add_argument("--weights", help="comma-separated positive objective weights")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("two-agent", help="closed-form two-agent quadratic solution")
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--w", type=float, default=None, help="objective weight on agent 1")
    p.add_argument("--sweep", help="LO:HI:STEP sweep over w, emitted as CSV")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_two_agent)

    p = sub.add_parser("payments", help="payment distributions and spread verdicts")
    _add_problem_flags(p, profile=True)
    p.add_argument("--samples", type=int, default=0,
                   help="random implementing contracts to compare")
    p.add_argument("--csv", help="also write the distribution table to this CSV path")
    p.set_defaults(handler=cmd_payments)

    p = sub.add_parser("frontier", help="sampled maximal frontier as CSV")
    _add_problem_flags(p)
    p.add_argument("--grid", type=int, required=True, help="share-grid resolution")
    p.add_argument("--samples", type=int, default=0,
                   help="sub-budget contracts to audit for dominance")
    p.set_defaults(handler=cmd_frontier)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NotLuceImplementable as exc:
        payload = {"error": "not implementable by a tiered contract", "detail": str(exc)}
        if exc.report is not None:
            payload["condition"] = serialize.condition_report_to_dict(exc.report)
        _emit(serialize.canonical_json(payload), args)
        return EXIT_NOT_IMPLEMENTABLE
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    # Malformed JSON raises json.JSONDecodeError, a ValueError.
    except (ValueError, OSError, ContractGameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


main = run


if __name__ == "__main__":
    sys.exit(run())
