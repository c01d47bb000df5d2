"""Importing the package loads neither scipy nor jsonschema; only the calls that need them do."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import contractgames
from contractgames import CostModel, Objective, optimize_principal

# The directory holding the package these tests import, so the fresh
# interpreter imports the same copy.
SRC = str(Path(contractgames.__file__).resolve().parents[1])

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})

def heavy():
    return sorted({{m.split(".")[0] for m in sys.modules}} & {{"scipy", "jsonschema"}})

import contractgames, contractgames.cli
loaded = {{"import": heavy()}}
with contextlib.redirect_stdout(io.StringIO()):
    contractgames.cli.run(["check", "--profile", "0.4,0.4", "--costs", "power:2:2,power:2:2"])
    contractgames.cli.run(["two-agent", "--c1", "2", "--c2", "3", "--w", "1.5"])
loaded["check, two-agent"] = heavy()
opt = contractgames.optimize_principal(
    contractgames.Objective.linear([3, 1]), contractgames.CostModel.power([2, 2]), seed=0)
loaded["optimize_principal"] = heavy()
print(json.dumps({{"loaded": loaded, "partition": opt.spec.partition, "value": opt.value}}))
"""


def test_scipy_and_jsonschema_load_only_when_needed():
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(src=SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["loaded"] == {
        "import": [],
        "check, two-agent": [],
        "optimize_principal": ["scipy"],
    }
    usual = optimize_principal(Objective.linear([3, 1]), CostModel.power([2, 2]), seed=0)
    assert doc["partition"] == [list(block) for block in usual.spec.partition]
    assert doc["value"] == pytest.approx(usual.value, abs=1e-12)
