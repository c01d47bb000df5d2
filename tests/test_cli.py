import csv
import io
import json

import pytest

from contractgames import CostModel, LuceSpec, equal_split, expand_luce, piece_rate
from contractgames import serialize
from contractgames.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# two-agent
# ---------------------------------------------------------------------------

def test_two_agent_balanced(capsys):
    code, out, _ = run_cli(capsys, "two-agent", "--c1", "2", "--c2", "2", "--w", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_star"] == pytest.approx(0.5, abs=1e-9)
    assert doc["equilibrium"] == pytest.approx([0.4, 0.4], abs=1e-9)


def test_two_agent_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "two-agent", "--c1", "2", "--c2", "2", "--sweep", "0.5:1.5:0.5"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["w", "lambda_star", "p_1", "p_2"]
    assert len(rows) == 4
    assert float(rows[2][1]) == pytest.approx(0.5, abs=1e-9)


def test_two_agent_rejects_bad_costs(capsys):
    code, _, err = run_cli(capsys, "two-agent", "--c1", "0.5", "--c2", "2", "--w", "1")
    assert code == 2
    assert "exceed 1" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_rejects_profile_with_exit_3(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--profile", "0.5,0.05", "--costs", "power:2:2,power:4:2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["condition"]["holds"] is False
    assert doc["condition"]["worst_subset"] == [1]
    assert doc["condition"]["lhs"] == pytest.approx(0.9804, abs=1e-4)
    assert doc["condition"]["rhs"] == pytest.approx(0.9524, abs=1e-4)


def test_check_accepts_implementable_profile(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--profile", "0.4,0.4", "--costs", "power:2:2,power:2:2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z"] == pytest.approx(1.0, abs=1e-9)
    assert doc["condition"]["tight_sets"] == [[1, 2]]


@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_check_and_synthesize_beyond_the_table_cap(capsys, command):
    n = 50
    code, out, _ = run_cli(
        capsys, command, "--profile", ",".join(["0.01"] * n),
        "--costs", ",".join(["power:2:2"] * n),
    )
    assert code == 0
    doc = json.loads(out)
    chain = doc["condition"]["tight_sets"] if command == "check" else doc["tight_chain"]
    assert chain == [list(range(1, n + 1))]


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_synthesize_priority_profile(capsys):
    code, out, _ = run_cli(
        capsys, "synthesize", "--profile", "0.5,0.25",
        "--costs", "power:2:2,power:2:2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["partition"] == [[1], [2]]
    assert doc["budget"] == pytest.approx(1.0, abs=1e-9)
    assert doc["tight_chain"] == [[1], [1, 2]]


def test_synthesize_not_implementable_exits_3(capsys):
    code, out, _ = run_cli(
        capsys, "synthesize", "--profile", "0.5,0.05",
        "--costs", "power:2:2,power:4:2",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["condition"]["worst_subset"] == [1]


def test_synthesize_rejects_verify_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synthesize", "--profile", "0.4,0.4", "--costs", "power:2:2,power:2:2",
             "--verify-trials", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_contract_file(tmp_path, capsys):
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(serialize.contract_to_dict(equal_split(2))))
    code, out, _ = run_cli(
        capsys, "solve", "--contract", str(path), "--costs", "power:2:2,power:2:2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["is_sge"] is True
    assert doc["equilibria"][0]["converged"] is True
    assert doc["equilibria"][0]["profile"] == pytest.approx([0.4, 0.4], abs=1e-8)


@pytest.mark.parametrize("bits", [-1, 4])
def test_solve_rejects_subset_bits_outside_n(tmp_path, capsys, bits):
    doc = serialize.contract_to_dict(equal_split(2))
    doc["table"].append({"subset_bits": bits, "shares": [1.0, 0.0]})
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "solve", "--contract", str(path), "--costs", "power:2:2,power:2:2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: outcome mask") and "Traceback" not in err


_EQUAL_SPLIT_2 = serialize.contract_to_dict(equal_split(2))


@pytest.mark.parametrize("doc", [
    [_EQUAL_SPLIT_2],
    "equal split",
    {k: v for k, v in _EQUAL_SPLIT_2.items() if k != "table"},
    {k: v for k, v in _EQUAL_SPLIT_2.items() if k != "n"},
    {**_EQUAL_SPLIT_2, "table": [{"subset_bits": 3}]},
    {**_EQUAL_SPLIT_2, "table": {"subset_bits": 3, "shares": [0.5, 0.5]}},
    {**_EQUAL_SPLIT_2, "table": [[3, [0.5, 0.5]]]},
    {**_EQUAL_SPLIT_2, "table": [{"subset_bits": 3, "shares": [None, 0.5]}]},
    {**_EQUAL_SPLIT_2, "table": [{"subset_bits": 3, "shares": ["0.5", 0.5]}]},
    {**_EQUAL_SPLIT_2, "table": [{"subset_bits": 3, "shares": 0.5}]},
    {**_EQUAL_SPLIT_2, "table": [{"subset_bits": "3", "shares": [0.5, 0.5]}]},
    {**_EQUAL_SPLIT_2, "budget": None},
    {**_EQUAL_SPLIT_2, "budget": "1"},
    {**_EQUAL_SPLIT_2, "n": 2.7},
    {**_EQUAL_SPLIT_2, "n": True},
    {**_EQUAL_SPLIT_2, "unconstrained": "no"},
], ids=["list", "string", "no-table", "no-n", "no-shares", "table-object", "row-list",
        "null-share", "string-share", "scalar-shares", "string-bits", "null-budget",
        "string-budget", "fractional-n", "bool-n", "string-unconstrained"])
def test_solve_rejects_malformed_contract_document(tmp_path, capsys, doc):
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "solve", "--contract", str(path), "--costs", "power:2:2,power:2:2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_solve_rejects_non_finite_budget(tmp_path, capsys):
    # json.dumps writes Infinity, which json.load reads back as a float
    path = tmp_path / "contract.json"
    path.write_text(json.dumps({**_EQUAL_SPLIT_2, "budget": float("inf")}))
    code, out, err = run_cli(
        capsys, "solve", "--contract", str(path), "--costs", "power:2:2,power:2:2"
    )
    assert code == 2
    assert out == ""
    assert "positive and finite" in err


def test_solve_applies_budget_normalization(tmp_path, capsys):
    # budget 2 with scales (4, 4) is the same game as budget 1 with (2, 2)
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(serialize.contract_to_dict(equal_split(2))))
    code, out, _ = run_cli(
        capsys, "solve", "--contract", str(path),
        "--costs", "power:4:2,power:4:2", "--budget", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibria"][0]["profile"] == pytest.approx([0.4, 0.4], abs=1e-8)


# ---------------------------------------------------------------------------
# optimize / payments / frontier
# ---------------------------------------------------------------------------

def test_optimize_linear_objective(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--costs", "power:2:2,power:2:2",
        "--weights", "3,1", "--seed", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["partition"] == [[1], [2]]
    assert doc["value"] == pytest.approx(1.75, abs=1e-6)


def test_optimize_reports_search_counts(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--costs", "power:2:2,power:2:2,power:3:2",
        "--weights", "1,2,1", "--seed", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failed_starts"] == 0
    assert doc["search_trace"] > 0
    assert doc["budget"] == pytest.approx(1.0, abs=1e-9)


def test_optimize_thirty_agents(capsys):
    scales = [2.0 + 0.05 * k for k in range(30)]
    code, out, _ = run_cli(
        capsys, "optimize", "--costs", ",".join(f"power:{c}:2" for c in scales),
        "--weights", ",".join(str(1.0 + 0.03 * k) for k in range(30)), "--seed", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failed_starts"] == 0
    assert len(doc["equilibrium"]) == 30
    assert sorted(i for block in doc["spec"]["partition"] for i in block) == list(range(1, 31))
    assert doc["budget"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["optimize", "--weights", "1,1", "--grid", "4"],
    ["optimize", "--weights", "1,1", "--threads", "2"],
    ["frontier", "--grid", "4", "--threads", "2"],
])
def test_removed_search_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--costs", "power:2:2,power:2:2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_payments_command(capsys):
    code, out, _ = run_cli(
        capsys, "payments", "--profile", "0.4,0.4",
        "--costs", "power:2:2,power:2:2", "--samples", "5", "--seed", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["luce"]["atoms"] == [[0.0, 0.36], [1.0, 0.64]]
    assert doc["piece_rate"]["variance"] == pytest.approx(0.3072, abs=1e-9)
    assert doc["bonus_pool"]["variance"] == pytest.approx(2.1504, abs=1e-9)
    assert doc["verdicts"]["piece_rate"]["sosd"] is True
    assert doc["verdicts"]["bonus_pool"]["variance_ordered"] is True
    assert doc["sampled"] == {"count": 5, "all_pass": True}


def test_payments_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "dist.csv"
    code, _, _ = run_cli(
        capsys, "payments", "--profile", "0.4,0.4",
        "--costs", "power:2:2,power:2:2", "--csv", str(csv_path),
    )
    assert code == 0
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["contract", "value", "probability"]
    assert ["luce", "0", "0.36"] in rows


def test_frontier_csv(capsys):
    code, out, _ = run_cli(
        capsys, "frontier", "--costs", "power:2:2,power:2:2", "--grid", "4"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "p_1", "p_2", "z"]
    assert len(rows) == 6
    lams = sorted(float(r[0]) for r in rows[1:])
    assert lams == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


# ---------------------------------------------------------------------------
# config handling and validation
# ---------------------------------------------------------------------------

def make_config(tmp_path, **overrides):
    doc = {
        "n": 2,
        "costs": [
            {"kind": "power", "scale": 2.0, "exponent": 2.0},
            {"kind": "power", "scale": 2.0, "exponent": 2.0},
        ],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_document_drives_check(tmp_path, capsys):
    path = make_config(tmp_path)
    code, out, _ = run_cli(capsys, "check", "--profile", "0.4,0.4", "--config", str(path))
    assert code == 0
    assert json.loads(out)["z"] == pytest.approx(1.0, abs=1e-9)


def test_config_wins_over_flags_with_warning(tmp_path, capsys):
    path = make_config(tmp_path)
    code, out, err = run_cli(
        capsys, "check", "--profile", "0.4,0.4", "--config", str(path),
        "--costs", "power:9:2,power:9:2",
    )
    assert code == 0
    assert "using the config" in err
    assert json.loads(out)["z"] == pytest.approx(1.0, abs=1e-9)


def test_optimize_reads_objective_from_config(tmp_path, capsys):
    path = make_config(tmp_path, objective={"kind": "linear", "weights": [3.0, 1.0]})
    code, out, _ = run_cli(capsys, "optimize", "--config", str(path), "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["partition"] == [[1], [2]]
    assert doc["value"] == pytest.approx(1.75, abs=1e-6)


def test_config_schema_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "costs": [{"kind": "linear"}]}))
    code, _, err = run_cli(capsys, "check", "--profile", "0.4,0.4", "--config", str(path))
    assert code == 2


def test_config_damping_rejected(tmp_path, capsys):
    path = make_config(tmp_path, solver={"damping": 0.7})
    code, out, err = run_cli(capsys, "check", "--profile", "0.4,0.4", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "damping" in err and "Traceback" not in err


def test_config_solver_settings_and_out(tmp_path, capsys):
    contract = tmp_path / "contract.json"
    contract.write_text(json.dumps(serialize.contract_to_dict(equal_split(2))))
    config_out, flag_out = tmp_path / "config_out.json", tmp_path / "flag_out.json"
    path = make_config(tmp_path, out=str(config_out),
                       solver={"starts": 1, "max_iterations": 1, "seed": 3})
    code, out, _ = run_cli(capsys, "solve", "--contract", str(contract), "--config", str(path))
    assert (code, out) == (4, "")  # one start, the origin, stopped after one sweep
    [eq] = json.loads(config_out.read_text())["equilibria"]
    assert (eq["iterations"], eq["converged"]) == (1, False)
    config_out.unlink()
    code, out, _ = run_cli(capsys, "solve", "--contract", str(contract), "--config", str(path),
                           "--out", str(flag_out))
    assert (code, out) == (4, "")
    assert json.loads(flag_out.read_text())["equilibria"] == [eq]
    assert not config_out.exists()


def test_inadmissible_costs_rejected(tmp_path, capsys):
    path = make_config(tmp_path, budget=3.0)
    code, _, err = run_cli(capsys, "check", "--profile", "0.4,0.4", "--config", str(path))
    assert code == 2
    assert "admissibility" in err


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "two-agent", "--c1", "2", "--c2", "2", "--w", "1",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["lambda_star"] == pytest.approx(0.5)


def test_byte_identical_output_for_identical_invocation(tmp_path, capsys):
    # solve draws random starts; without --seed they come from seed 0. Had
    # they been unseeded, two runs would often print the same text, and
    # eight runs would not.
    contract = tmp_path / "contract.json"
    contract.write_text(json.dumps(serialize.contract_to_dict(equal_split(4))))
    for argv in (["synthesize", "--profile", "0.35,0.2", "--costs", "power:2:2,power:3:2",
                  "--seed", "7"],
                 ["solve", "--contract", str(contract),
                  "--costs", "power:5:2,power:6:2,power:7:2,power:8:2"]):
        runs = [run_cli(capsys, *argv) for _ in range(8)]
        assert {code for code, _, _ in runs} == {0}
        assert len({out for _, out, _ in runs}) == 1


# ---------------------------------------------------------------------------
# document round-trips
# ---------------------------------------------------------------------------

def test_contract_document_roundtrip():
    f = piece_rate((0.3, 0.2), CostModel.power([2, 2]), unconstrained=True)
    doc = serialize.contract_to_dict(f)
    g = serialize.contract_from_dict(json.loads(json.dumps(doc)))
    assert g.allclose(f, tol=0)
    assert g.unconstrained == f.unconstrained


def test_luce_spec_document_roundtrip():
    spec = LuceSpec(((1,), (0, 2)), (0.3, 1.0, 0.7))
    doc = serialize.luce_spec_to_dict(spec)
    assert doc["partition"] == [[2], [1, 3]]
    back = serialize.luce_spec_from_dict(json.loads(json.dumps(doc)))
    assert back == spec


def test_rounded_floats_are_stable():
    assert serialize.round_floats({"x": 0.1 + 0.2}) == {"x": 0.3}
    assert serialize.fmt_float(1 / 3) == "0.333333333333"
