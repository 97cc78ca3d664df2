"""Package surface: the lazily served names, and what each command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscap

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter on the JSON list of argv lists in sys.argv[1],
# so no other test has imported numpy or a crosscap submodule yet.  Prints
# one JSON list: per step, its name, its exit code (None for an import),
# whether numpy was loaded after it, which crosscap submodules were, and
# whether dataclasses was.
_PROBE = """
import contextlib, io, json, sys, tempfile

steps = []

def record(name, code):
    loaded = sorted(m for m in sys.modules if m.startswith("crosscap."))
    steps.append([name, code, "numpy" in sys.modules, loaded,
                  "dataclasses" in sys.modules])

import crosscap
record("import crosscap", None)
from crosscap import cli
record("import crosscap.cli", None)

with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[1]):
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        record(" ".join(argv), code)
print(json.dumps(steps))
"""


def _run_fresh(*args):
    """stdout of a fresh interpreter run on ``args``, with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _probe(*commands):
    return json.loads(_run_fresh("-c", _PROBE, json.dumps(commands)))


def test_only_mesh_commands_load_numpy():
    steps = _probe(
        ["classify", "--knot", "cable(4,3; torus(2,3))"],
        ["gaps", "--k-max", "6", "--format", "json"],
        ["obstruction", "--p", "3", "--q", "5"],
        ["homology", "--n", "4"],
        ["twist", "--chi", "-4", "--n", "2"],
        ["classify"],
        ["build-mobius", "--p", "2", "--q", "3", "--theta-steps", "32",
         "--chord-steps", "4", "--out", "{tmp}/band.off"],
    )
    *light, (build, build_code, build_numpy, _, _) = steps
    assert [code for _, code, _, _, _ in light] == [None, None, 0, 0, 0, 0, 0, 1]
    assert [name for name, _, numpy, _, _ in light if numpy] == []
    # The mesh command does load it, so the checks above cannot pass vacuously.
    assert build.startswith("build-mobius")
    assert (build_code, build_numpy) == (0, True)


@pytest.mark.parametrize("argv, modules", [
    (["classify", "--knot", "torus(4,3)"], ["invariants", "knots"]),
    (["gaps", "--k-max", "4"], ["invariants", "knots"]),
    (["obstruction", "--p", "3", "--q", "5"], ["words"]),
    (["homology", "--n", "4"], ["homology"]),
    (["twist", "--chi", "-4", "--n", "2"], ["homology"]),
], ids=["classify", "gaps", "obstruction", "homology", "twist"])
def test_each_command_loads_only_its_modules(argv, modules):
    # A package or CLI that imports every submodule up front prints the same
    # output; only this shows that a command loads just what it runs.
    steps = _probe(argv)
    assert [loaded for _, _, _, loaded, _ in steps] == [
        [],
        ["crosscap.cli"],
        sorted(["crosscap.cli", *(f"crosscap.{m}" for m in modules)]),
    ]
    assert steps[-1][1] == 0


def test_obstruction_loads_no_dataclasses():
    # dataclasses (with inspect) costs about 9 ms of start-up; ``obstruction``
    # needs neither.  ``classify`` does load it, so the probe can see it.
    steps = _probe(
        ["obstruction", "--p", "3", "--q", "5", "--format", "json"],
        ["classify", "--knot", "torus(4,3)"],
    )
    assert [(code, dataclasses) for _, code, _, _, dataclasses in steps] == [
        (None, False), (None, False), (0, False), (0, True),
    ]


def test_submodules_load_on_first_read():
    # Before the package went lazy, ``import crosscap`` bound every
    # submodule, so ``crosscap.knots.parse_knot`` worked with no other import.
    out = _run_fresh("-c", (
        "import sys, crosscap\n"
        "before = sorted(m for m in sys.modules if m.startswith('crosscap.'))\n"
        "print(before, crosscap.format_knot(crosscap.knots.parse_knot('torus(2,3)')),"
        " crosscap.words.transitive_strand_counts(4) == {1, 2},"
        " crosscap.mobius is sys.modules['crosscap.mobius'])"
    ))
    assert out.split() == ["[]", "torus(2,3)", "True", "True"]


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
