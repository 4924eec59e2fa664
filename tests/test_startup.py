"""What a fresh CLI process imports: check-point and basis load neither
dataclasses (and with it inspect) nor the drivers module; only verify
loads drivers.  Membership in sys.modules is the contract, not a time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ramwedge.drivers")

# -S keeps site hooks of the host interpreter out of sys.modules
CHILD = """
import json, sys
from ramwedge import cli
status = cli.main(sys.argv[1:])
print(json.dumps([status, {m: m in sys.modules for m in %r}]))
""" % (HEAVY,)


def loaded(argv, cwd) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-S", "-c", CHILD, *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    status, modules = json.loads(run.stdout.splitlines()[-1])
    assert status == 0
    return modules


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 3, "p": 13, "signature": [2, 1],
                                "ring": {"kind": "field"},
                                "X": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}))
    return path


def test_check_point_and_basis_load_no_dataclasses_and_no_drivers(tmp_path, point_file):
    for argv in (["check-point", "--input", str(point_file), "--out", "cp"],
                 ["basis", "kl", "--n", "3", "--out", "b"]):
        assert loaded(argv, tmp_path) == dict.fromkeys(HEAVY, False), argv


def test_verify_loads_drivers(tmp_path):
    modules = loaded(["verify", "sign-lemma", "--n", "3", "--out", "v"], tmp_path)
    assert modules["ramwedge.drivers"] and not modules["dataclasses"]
