"""JSON-document conversions for the CLI schemas.

Agent indices are 1-based in every document (bit k of a subset mask is agent
k+1); internal objects stay 0-based. Floats in emitted documents are rounded
to 12 significant digits so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import (
    Contract,
    EquilibriumResult,
    LuceSpec,
    _empty_table,
    mask_agents,
    validate_mask,
)
from .luce import SynthesisResult
from .maximal import ConditionReport, FrontierResult
from .optimize import Optimum
from .payments import MpsVerdict, PaymentDistribution

SIGNIFICANT_DIGITS = 12


def fmt_float(x: float) -> str:
    return format(float(x), f".{SIGNIFICANT_DIGITS}g")


def round_floats(obj: Any) -> Any:
    """Recursively snap floats to 12 significant digits for stable output."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(fmt_float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(round_floats(obj), indent=2) + "\n"


def ids_from_mask(mask: int) -> list[int]:
    return [i + 1 for i in mask_agents(mask)]


# -- contracts ---------------------------------------------------------------

def contract_to_dict(f: Contract) -> dict:
    return {
        "n": f.n,
        "budget": f.budget,
        "unconstrained": f.unconstrained,
        "table": [
            {"subset_bits": mask, "shares": list(f.table[mask])}
            for mask in range(1 << f.n)
        ],
    }


def _is_number_type(t: type) -> bool:
    """Python and numpy ints and floats; bool, a subclass of int, is not a number here."""
    return issubclass(t, (int, float, np.integer, np.floating)) and t is not bool


def _integer(value: Any, what: str) -> int:
    if not (isinstance(value, (int, np.integer)) and type(value) is not bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def contract_from_dict(doc: Any) -> Contract:
    """The contract a JSON document describes; a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a contract document must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("n", "table") if key not in doc]
    if missing:
        raise ValueError(f"contract document lacks {', '.join(missing)}")
    n = _integer(doc["n"], "n")
    budget = doc.get("budget", 1.0)
    if not _is_number_type(type(budget)):
        raise ValueError(f"budget must be a number, got {budget!r}")
    unconstrained = doc.get("unconstrained", False)
    if not isinstance(unconstrained, bool):
        raise ValueError(f"unconstrained must be true or false, got {unconstrained!r}")
    if not isinstance(doc["table"], list):
        raise ValueError("table must be a list of rows")
    table = _empty_table(n)
    number_types: set[type] = set()  # the share types seen so far, all numbers
    for row in doc["table"]:
        if not (isinstance(row, dict) and "subset_bits" in row and "shares" in row):
            raise ValueError(f"table row {row!r} needs subset_bits and shares")
        mask = _integer(row["subset_bits"], "subset_bits")
        validate_mask(mask, n)
        shares = row["shares"]
        if not (isinstance(shares, list) and len(shares) == n):
            raise ValueError(f"row for mask {mask} needs a list of {n} shares, got {shares!r}")
        types = set(map(type, shares))
        if not types <= number_types:
            if not all(map(_is_number_type, types)):
                raise ValueError(f"row for mask {mask} has a share that is not a number: {shares!r}")
            number_types |= types
        table[mask] = shares
    table.setflags(write=False)
    return Contract(n, table, float(budget), unconstrained)


# -- specs and reports --------------------------------------------------------

def luce_spec_to_dict(spec: LuceSpec) -> dict:
    return {
        "partition": [[i + 1 for i in block] for block in spec.partition],
        "weights": list(spec.weights),
    }


def luce_spec_from_dict(doc: dict) -> LuceSpec:
    partition = tuple(tuple(int(i) - 1 for i in block) for block in doc["partition"])
    return LuceSpec(partition, tuple(float(w) for w in doc["weights"]))


def condition_report_to_dict(report: ConditionReport) -> dict:
    return {
        "holds": report.holds,
        "worst_subset": ids_from_mask(report.worst_subset),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "tight_sets": [ids_from_mask(m) for m in report.tight_sets],
    }


def synthesis_to_dict(result: SynthesisResult) -> dict:
    return {
        "spec": luce_spec_to_dict(result.spec),
        "budget": result.budget,
        "residual": result.residual,
        "tight_chain": [ids_from_mask(m) for m in result.tight_chain],
    }


def equilibrium_to_dict(res: EquilibriumResult) -> dict:
    return {
        "profile": list(res.profile.probs),
        "max_residual": res.max_residual,
        "iterations": res.iterations,
        "converged": res.converged,
    }


def optimum_to_dict(opt: Optimum) -> dict:
    return {
        "spec": luce_spec_to_dict(opt.spec),
        "equilibrium": list(opt.equilibrium.probs),
        "value": opt.value,
        "search_trace": opt.search_trace,
        "failed_starts": opt.failed_starts,
        "budget": opt.budget,
    }


def distribution_to_dict(dist: PaymentDistribution) -> dict:
    return {
        "atoms": [[v, q] for v, q in dist.atoms()],
        "mean": dist.mean,
        "variance": dist.variance,
    }


def verdict_to_dict(verdict: MpsVerdict) -> dict:
    return {
        "means_equal": verdict.means_equal,
        "variance_ordered": verdict.variance_ordered,
        "sosd": verdict.sosd,
        "max_payment_ordered": verdict.max_payment_ordered,
        "mean_difference": verdict.mean_difference,
        "variance_margin": verdict.variance_margin,
    }


# -- CSV helpers ---------------------------------------------------------------

def frontier_csv_rows(result: FrontierResult, n: int) -> list[list[str]]:
    if result.points:
        n_params = len(result.points[0].params)
    else:
        n_params = 0
    if n == 2 and n_params == 1:
        param_names = ["lambda"]
    else:
        param_names = [f"param_{k + 1}" for k in range(n_params)]
    header = param_names + [f"p_{i + 1}" for i in range(n)] + ["z"]
    rows = [header]
    for point in result.points:
        rows.append(
            [fmt_float(x) for x in point.params]
            + [fmt_float(x) for x in point.profile.probs]
            + [fmt_float(point.z)]
        )
    return rows
