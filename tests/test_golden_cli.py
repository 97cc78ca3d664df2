"""Golden CLI diff: every command's stdout bytes and exit code must match the
capture in tests/golden/cli.json.

Each case runs ``cli.main`` in-process on its argv, after running the argv
lists in its ``setup`` field (output ignored).  ``{tmp}`` in an argv stands
for a fresh temporary directory and is written back as ``{tmp}`` in stdout,
so captures do not depend on where they were taken.  The two ``audit``
cases share one real run of the suites: every suite is a fixed,
exhaustive check, so ``run_audit`` is deterministic, and each case still
formats and compares the real results.

After an intended change of CLI output, rewrite the capture with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import functools
import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from crosscap import audit, cli

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

_MESH_OFF = ["build-mobius", "--p", "2", "--q", "3", "--theta-steps", "32",
             "--chord-steps", "4", "--out", "{tmp}/band.off"]

CASES = [
    {"argv": ["classify", "--knot", "torus(4,3)"]},
    {"argv": ["classify", "--knot", "cable(4,3; torus(2,3))", "--format", "json"]},
    {"argv": ["invariants", "--knot", "torus(5,7)"]},
    {"argv": ["invariants", "--knot", "external(6_1; hyperbolic=yes)",
              "--format", "json"]},
    {"argv": ["gaps", "--k-max", "10"]},
    {"argv": ["gaps", "--k-max", "4", "--format", "json"]},
    {"argv": _MESH_OFF},
    {"argv": _MESH_OFF[:-1] + ["{tmp}/band.off", "--format", "json"]},
    {"argv": _MESH_OFF[:-1] + ["{tmp}/band.obj"]},
    {"argv": _MESH_OFF[:-1] + ["{tmp}/band.obj", "--format", "json"]},
    {"argv": ["build-mobius", "--p", "1", "--q", "3", "--theta-steps", "16",
              "--chord-steps", "3", "--out", "{tmp}/band.mesh", "--format", "obj",
              "--tol", "0.5"]},
    {"setup": [_MESH_OFF],
     "argv": ["verify-mesh", "--p", "2", "--q", "3", "--out", "{tmp}/band.off"]},
    {"setup": [_MESH_OFF[:-1] + ["{tmp}/band.obj"]],
     "argv": ["verify-mesh", "--p", "2", "--q", "3", "--out", "{tmp}/band.obj",
              "--format", "json"]},
    {"argv": ["obstruction", "--p", "3", "--q", "5"]},
    {"argv": ["obstruction", "--p", "2", "--q", "3", "--format", "json"]},
    {"argv": ["homology", "--n", "3"]},
    {"argv": ["homology", "--n", "4", "--format", "json"]},
    {"argv": ["twist", "--chi", "-4", "--n", "2"]},
    {"argv": ["twist", "--chi", "-10", "--n", "3", "--format", "json"]},
    {"argv": ["audit"]},
    {"argv": ["audit", "--format", "json"]},
    {"argv": ["classify"]},
    {"argv": ["classify", "--knot", "torus(4,6)"]},
    {"setup": [_MESH_OFF],
     "argv": ["verify-mesh", "--p", "2", "--q", "5", "--out", "{tmp}/band.off"]},
]


def _case_id(case: dict) -> str:
    return " ".join(case["argv"]).replace("{tmp}/", "")


def replay(case: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        def argv(raw):
            return [a.replace("{tmp}", tmp) for a in raw]

        for setup in case.get("setup", []):
            with redirect_stdout(StringIO()):
                cli.main(argv(setup))
        out = StringIO()
        with redirect_stdout(out):
            code = cli.main(argv(case["argv"]))
        return {"exit": code, "stdout": out.getvalue().replace(tmp, "{tmp}")}


@pytest.fixture(scope="module")
def golden():
    return {_case_id(entry): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.fixture(scope="module")
def run_audit_once():
    return functools.cache(audit.run_audit)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_output_matches_golden(case, golden, run_audit_once, capsys,
                                   monkeypatch):
    monkeypatch.setattr(audit, "run_audit", run_audit_once)
    expected = golden[_case_id(case)]
    got = replay(case)
    capsys.readouterr()
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]


def test_golden_holds_exactly_the_cases():
    # A case dropped from CASES must not leave an orphan capture behind.
    captured = [_case_id(entry) for entry in json.loads(GOLDEN.read_text())]
    assert captured == [_case_id(case) for case in CASES]


def test_golden_covers_every_command():
    commands = {case["argv"][0] for case in CASES}
    assert commands == set(cli._COMMANDS)
    assert {0, 1, 2} <= {entry["exit"] for entry in json.loads(GOLDEN.read_text())}


if __name__ == "__main__":
    captured = [dict(case, **replay(case)) for case in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(captured, indent=1) + "\n")
