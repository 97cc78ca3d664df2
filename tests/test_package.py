"""Package surface: the lazily served mesh names, and which commands load numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscap

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter, so no other test has imported numpy yet.  Prints
# one JSON list: the step, its exit code (None for an import) and whether
# numpy was loaded after it.
_PROBE = """
import contextlib, io, json, sys, tempfile

steps = []
import crosscap
steps.append(["import crosscap", None, "numpy" in sys.modules])
from crosscap import cli
steps.append(["import crosscap.cli", None, "numpy" in sys.modules])

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])

run(["classify", "--knot", "cable(4,3; torus(2,3))"])
run(["gaps", "--k-max", "6", "--format", "json"])
run(["obstruction", "--p", "3", "--q", "5"])
run(["homology", "--n", "4"])
run(["twist", "--chi", "-4", "--n", "2"])
run(["classify"])
with tempfile.TemporaryDirectory() as tmp:
    run(["build-mobius", "--p", "2", "--q", "3", "--theta-steps", "32",
         "--chord-steps", "4", "--out", tmp + "/band.off"])
print(json.dumps(steps))
"""


def test_only_mesh_commands_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    *light, (build, build_code, build_numpy) = steps
    assert [code for _, code, _ in light] == [None, None, 0, 0, 0, 0, 0, 1]
    assert [name for name, _, numpy in light if numpy] == []
    # The mesh command does load it, so the checks above cannot pass vacuously.
    assert build.startswith("build-mobius")
    assert (build_code, build_numpy) == (0, True)


def test_every_public_name_resolves():
    for name in crosscap.__all__:
        assert getattr(crosscap, name) is not None, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from crosscap import *", namespace)
    assert set(crosscap.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(crosscap.__all__) <= set(dir(crosscap))


def test_mesh_names_are_the_mobius_objects():
    from crosscap import mobius

    assert crosscap.build_mobius is mobius.build_mobius
    assert crosscap.MeshVerificationReport is mobius.MeshVerificationReport


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        crosscap.no_such_name
