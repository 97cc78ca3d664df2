"""CLI surface: output shapes, JSON round-trips, file writing, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crosscap import cli

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env(**extra):
    """This environment plus ``extra``, with the checkout's src on the path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--knot", "torus(4,3)")
        assert code == 0
        assert "gamma_I: 1" in out
        assert "prime: yes" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "--knot", "torus(4,3)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_i"]["value"] == 1
        assert json.dumps(payload, indent=2) == out.rstrip("\n")

    def test_invariants_alias(self, capsys):
        code, out, _ = run(capsys, "invariants", "--knot", "unknot")
        assert code == 0
        assert "gamma_I: 0" in out

    def test_invalid_knot_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--knot", "torus(4,6)")
        assert code == 2
        assert "gcd" in err

    @pytest.mark.parametrize("knot", ["cable(2,1; torus(1,5))", "cable(3,2; torus(1,5))"])
    def test_cable_over_trivial_torus_exits_2(self, capsys, knot):
        code, out, err = run(capsys, "classify", "--knot", knot)
        assert code == 2
        assert out == ""
        assert err == "crosscap: knot.companion: companion must be knotted\n"

    def test_grammar_error_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--knot", "torus(4")
        assert code == 2
        assert err

    def test_deep_cable_exits_2(self, capsys):
        deep = "cable(2,3; " * 400 + "torus(2,3)" + ")" * 400
        code, out, err = run(capsys, "classify", "--knot", deep)
        assert code == 2
        assert out == ""
        assert "cables nest deeper than 100" in err

    def test_cable_at_nesting_limit(self, capsys):
        limit = "cable(2,3; " * 100 + "torus(2,3)" + ")" * 100
        code, out, _ = run(capsys, "classify", "--knot", limit, "--format", "json")
        assert code == 0
        assert json.loads(out)["gamma_i"]["value"] == 1


class TestGaps:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "gaps", "--k-max", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert lines[-1].split() == ["5", "1", "5", "4", "4", "3"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gaps", "--k-max", "5", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 4
        assert rows[-1]["gamma_3"]["value"] == 5
        assert rows[-1]["gamma_4"]["value"] == 4
        assert json.dumps(rows, indent=2) == out.rstrip("\n")

    def test_json_written_in_blocks_matches_dumps(self, capsys):
        # 299 rows are about 27,000 encoder chunks: several blocks.
        code, out, _ = run(capsys, "gaps", "--k-max", "300", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_bad_k_exits_2(self, capsys):
        code, _, err = run(capsys, "gaps", "--k-max", "1")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_2(self, capsys, monkeypatch, fmt):
        stream = io.StringIO()
        stream.close()
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["gaps", "--k-max", "5", "--format", fmt]) == 2
        assert "closed file" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_stdout_closed_at_startup_drops_output(self, fmt):
        # With fd 1 closed before the interpreter starts, sys.stdout is None.
        proc = subprocess.run(
            [sys.executable, "-m", "crosscap.cli", "gaps", "--k-max", "5",
             "--format", fmt],
            preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, env=_src_env(),
            text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestMeshCommands:
    def test_build_and_verify_off(self, capsys, tmp_path):
        target = tmp_path / "band.off"
        code, out, _ = run(
            capsys, "build-mobius", "--p", "2", "--q", "3",
            "--theta-steps", "24", "--chord-steps", "3", "--out", str(target),
        )
        assert code == 0
        assert "boundary_class: (4, 3)" in out
        text = target.read_text()
        assert text.startswith("OFF\n144 192 0\n")

        code, out, _ = run(
            capsys, "verify-mesh", "--p", "2", "--q", "3", "--out", str(target)
        )
        assert code == 0
        assert "euler_characteristic: 0" in out
        assert "orientable: no" in out
        assert out.splitlines()[-1] == "certified: yes"

    def test_build_obj(self, capsys, tmp_path):
        target = tmp_path / "band.obj"
        code, out, _ = run(
            capsys, "build-mobius", "--p", "1", "--q", "3",
            "--theta-steps", "16", "--chord-steps", "3", "--out", str(target),
        )
        assert code == 0
        assert target.read_text().startswith("v ")

        code, out, _ = run(
            capsys, "verify-mesh", "--p", "1", "--q", "3", "--out", str(target),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["boundary_class"] == [2, 3]

    def test_build_json_report(self, capsys, tmp_path):
        target = tmp_path / "band.off"
        code, out, _ = run(
            capsys, "build-mobius", "--p", "1", "--q", "3",
            "--theta-steps", "16", "--chord-steps", "3", "--out", str(target),
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["euler_characteristic"] == 0
        assert payload["orientable"] is False

    def test_gcd_violation_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "build-mobius", "--p", "2", "--q", "4",
            "--out", str(tmp_path / "x.off"),
        )
        assert code == 2

    @pytest.mark.parametrize("argv, budget, message", [
        (("--q", "4"), None, "gcd(2p, q) must be 1, got gcd(4, 4) != 1"),
        (("--q", "0"), None, "q must be nonzero"),
        (("--p", "0"), None, "p must be >= 1, got 0"),
        (("--theta-steps", "7"), None, "theta_steps must be >= 8, got 7"),
        (("--chord-steps", "1"), None, "chord_steps must be >= 2, got 1"),
        (("--q", "5", "--theta-steps", "32"), None,
         "theta_steps=32 cannot separate adjacent boundary points; "
         "need at least 4*p*|q| = 40"),
        # Under the floor and over the budget: the budget is checked first.
        (("--q", "5", "--theta-steps", "32"), "100",
         "mesh would have 896 triangles, over the budget 100"),
    ])
    def test_invalid_sweep_exits_2_with_its_rule(
        self, capsys, tmp_path, monkeypatch, argv, budget, message
    ):
        if budget is not None:
            monkeypatch.setenv("CROSSCAP_MAX_MESH", budget)
        target = tmp_path / "x.off"
        # argparse keeps the last value of a repeated option.
        code, out, err = run(
            capsys, "build-mobius", "--p", "2", "--q", "3", *argv, "--out", str(target)
        )
        assert (code, out, err) == (2, "", f"crosscap: {message}\n")
        assert not target.exists()

    def test_verify_against_wrong_q_exits_2(self, capsys, tmp_path):
        target = tmp_path / "band.off"
        run(
            capsys, "build-mobius", "--p", "2", "--q", "3",
            "--theta-steps", "24", "--chord-steps", "3", "--out", str(target),
        )
        code, _, err = run(
            capsys, "verify-mesh", "--p", "2", "--q", "5", "--out", str(target)
        )
        assert code == 2

    def test_verify_with_p_zero_exits_2(self, capsys, tmp_path):
        target = tmp_path / "band.off"
        run(
            capsys, "build-mobius", "--p", "1", "--q", "3",
            "--theta-steps", "16", "--chord-steps", "3", "--out", str(target),
        )
        code, out, err = run(
            capsys, "verify-mesh", "--p", "0", "--q", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert "p must be >= 1" in err

    def test_short_off_header_exits_2(self, capsys, tmp_path):
        target = tmp_path / "short.off"
        target.write_text("OFF\n3\n")
        code, _, err = run(
            capsys, "verify-mesh", "--p", "1", "--q", "3", "--out", str(target)
        )
        assert code == 2
        assert "vertex and face counts" in err

    def test_off_body_longer_than_header_exits_2(self, capsys, tmp_path):
        target = tmp_path / "x.off"
        run(
            capsys, "build-mobius", "--p", "2", "--q", "3", "--theta-steps", "64",
            "--out", str(target),
        )
        with target.open("a") as handle:
            handle.write("3 0 5 9\n1 2 3\n")
        code, out, err = run(
            capsys, "verify-mesh", "--p", "2", "--q", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err == "crosscap: OFF body longer than its header counts\n"

    @pytest.mark.parametrize("name", ["band.off", "band.obj"])
    def test_mesh_file_over_budget_exits_2(self, capsys, tmp_path, monkeypatch, name):
        target = tmp_path / name
        code, _, _ = run(
            capsys, "build-mobius", "--p", "1", "--q", "3",
            "--theta-steps", "16", "--chord-steps", "3", "--out", str(target),
        )
        assert code == 0  # 64 triangles
        monkeypatch.setenv("CROSSCAP_MAX_MESH", "10")
        code, out, err = run(
            capsys, "verify-mesh", "--p", "1", "--q", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert "64 triangles, over the budget 10" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tolerance_exits_2(self, capsys, tmp_path, tol):
        code, out, err = run(
            capsys, "build-mobius", "--p", "1", "--q", "3", "--theta-steps", "16",
            "--out", str(tmp_path / "band.off"), "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "tol must be positive and finite" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_rejected_tolerance_writes_no_file(self, capsys, tmp_path, tol):
        target = tmp_path / "band.off"
        code, out, err = run(
            capsys, "build-mobius", "--p", "1", "--q", "3", "--theta-steps", "16",
            "--out", str(target), "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "tol must be positive and finite" in err
        assert not target.exists()

    def test_uncertified_build_exits_3_and_writes_no_file(self, capsys, tmp_path):
        # The double points sit ~1e-2 from the core, far outside this --tol.
        target = tmp_path / "band.off"
        code, out, err = run(
            capsys, "build-mobius", "--p", "2", "--q", "3", "--theta-steps", "64",
            "--out", str(target), "--tol", "1e-30",
        )
        assert code == 3
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 7 and lines[0] == "euler_characteristic: 0"
        assert lines[-1] == ("certified: no (max_offcore_selfintersection_distance "
                             "9.736e-03 > tolerance 1.000e-30)")
        assert not target.exists()

    def test_uncertified_verify_exits_3(self, capsys, tmp_path):
        target = tmp_path / "band.off"
        code, _, _ = run(
            capsys, "build-mobius", "--p", "2", "--q", "3", "--theta-steps", "64",
            "--out", str(target),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify-mesh", "--p", "2", "--q", "3", "--out", str(target),
            "--tol", "1e-30", "--format", "json",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["certified"] is False
        assert payload["failed_checks"] == ["max_offcore_selfintersection_distance"]
        assert payload["tolerance"] == 1e-30

    def test_scan_over_row_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        # 6,400 triangles, inside the budget, but about 1.95M hit rows.
        monkeypatch.setenv("CROSSCAP_MAX_MESH", "6400")
        target = tmp_path / "big.off"
        code, out, err = run(
            capsys, "build-mobius", "--p", "20", "--q", "1", "--theta-steps", "80",
            "--chord-steps", "3", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert "hit rows, over the budget 64000" in err
        assert not target.exists()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify-mesh", "--p", "2", "--q", "3",
            "--out", str(tmp_path / "absent.off"),
        )
        assert code == 2


def _run_limited(limit_mb, *argv, cwd):
    """A fresh ``crosscap`` run whose address space is capped at limit_mb.

    One BLAS thread keeps numpy's own address space small and the same on
    every host."""
    limit = limit_mb * 2**20
    return subprocess.run(
        [sys.executable, "-c",
         "import resource, sys\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
         "from crosscap.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n",
         *argv],
        cwd=cwd, env=_src_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
        text=True, timeout=300,
    )


class TestMemoryLimits:
    def test_out_of_memory_exits_2(self, tmp_path):
        # 2.0M triangles, inside the budget, in a 300 MB address space.
        proc = _run_limited(
            300, "build-mobius", "--p", "1", "--q", "1", "--theta-steps", "100000",
            "--chord-steps", "11", "--out", "huge.off", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("crosscap: out of memory: ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "huge.off").exists()

    def test_scan_stops_at_row_budget_before_memory_runs_out(self, tmp_path):
        # 160,000 triangles whose scan would keep about 250M hit rows (~6 GB);
        # it stops at the 20M-row default budget, well inside 1.5 GB.
        proc = _run_limited(
            1536, "build-mobius", "--p", "100", "--q", "1", "--theta-steps", "400",
            "--chord-steps", "3", "--out", "big.off", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "hit rows, over the budget 20000000" in proc.stderr
        assert not (tmp_path / "big.off").exists()


class TestSmallCommands:
    def test_obstruction_yes(self, capsys):
        code, out, _ = run(capsys, "obstruction", "--p", "3", "--q", "5")
        assert code == 0
        assert "yes" in out

    def test_obstruction_json(self, capsys):
        code, out, _ = run(
            capsys, "obstruction", "--p", "4", "--q", "3", "--format", "json"
        )
        assert json.loads(out)["obstructed"] is False

    def test_homology(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["surgery_slope"] == 30
        assert payload["gap"] == 3

    def test_twist(self, capsys):
        code, out, _ = run(capsys, "twist", "--chi", "-4", "--n", "2")
        assert code == 0
        assert out.strip().endswith("8")

    def test_twist_with_huge_chi(self, capsys):
        code, out, _ = run(
            capsys, "twist", "--chi", "-100000000", "--n", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["minimal_even_twists"] == 200000000

    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--knot", "torus(4,3)", "--format", "off"),
        ("gaps", "--k-max", "4", "--format", "obj"),
        ("verify-mesh", "--p", "1", "--q", "3", "--out", "band.off", "--format", "obj"),
        ("obstruction", "--p", "3", "--q", "5", "--format", "off"),
        ("homology", "--n", "3", "--format", "obj"),
        ("twist", "--chi", "-4", "--n", "2", "--format", "off"),
        ("audit", "--format", "obj"),
    ],
    ids=lambda argv: argv[0],
)
def test_mesh_file_format_only_on_build_mobius(capsys, argv):
    # A mesh-file format means nothing where no mesh file is written: a
    # usage error, before any file is read.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "invalid choice" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(("classify",), "--knot", id="classify"),
        pytest.param(("gaps",), "--k-max", id="gaps"),
        pytest.param(("build-mobius", "--p", "1", "--q", "3"), "--out", id="build-mobius"),
        pytest.param(("verify-mesh", "--q", "3", "--out", "band.off"), "--p", id="verify-mesh"),
        pytest.param(("obstruction", "--p", "3"), "--q", id="obstruction"),
        pytest.param(("homology",), "--n", id="homology"),
        pytest.param(("twist", "--n", "2"), "--chi", id="twist"),
    ],
)
def test_missing_required_flag_exits_1(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert flag in err.split()


class TestAudit:
    def test_audit_passes(self, capsys):
        code, out, _ = run(capsys, "audit")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok") for line in lines[:-1])
        assert "property suites passed" in lines[-1]

    def test_audit_takes_no_seed(self, capsys):
        code, out, err = run(capsys, "audit", "--seed", "0")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed 0" in err

    def test_audit_failure_exits_3(self, capsys, monkeypatch):
        from crosscap import audit

        monkeypatch.setattr(
            audit,
            "run_audit",
            lambda: [audit.CheckResult("forced failure", False, "boom")],
        )
        code, out, _ = run(capsys, "audit")
        assert code == 3
        assert "FAIL forced failure" in out

    def test_wrong_obstruction_rule_fails_the_z2_suite(self, capsys, monkeypatch):
        from crosscap import words

        # Wrong whenever p is odd and q even; (3, 2) is the first such pair.
        monkeypatch.setattr(words, "square_conjugate_obstruction",
                            lambda p, q: p % 2 == 1)
        code, out, _ = run(capsys, "audit")
        assert code == 3
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL words: Hom(<x, y | x^p = y^q>, Z/2)")
        assert failed[0].endswith("fails at (p, q) = (3, 2)")

    def test_normalization_slip_on_one_pair_fails_the_knot_suite(
        self, capsys, monkeypatch
    ):
        from crosscap import knots

        right = knots.normalize_torus
        slip = knots.TorusParams(29, 17)
        monkeypatch.setattr(knots, "normalize_torus",
                            lambda t: t if t == slip else right(t))
        code, out, _ = run(capsys, "audit")
        assert code == 3
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL knots: normalization")
        # (-29, -17) is the first pair in row order to mirror onto the slip.
        assert failed[0].endswith("normalization asymmetric on (-29, -17)")

    def test_audit_json_failure_exits_3(self, capsys, monkeypatch):
        from crosscap import audit

        monkeypatch.setattr(
            audit,
            "run_audit",
            lambda: [audit.CheckResult("fine", True),
                     audit.CheckResult("forced failure", False, "boom")],
        )
        code, out, _ = run(capsys, "audit", "--format", "json")
        assert code == 3
        assert json.loads(out) == {
            "suites": [
                {"name": "fine", "ok": True, "detail": ""},
                {"name": "forced failure", "ok": False, "detail": "boom"},
            ],
            "passed": 1,
            "failed": 1,
        }
