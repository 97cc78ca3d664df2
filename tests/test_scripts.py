"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_gallery_certifies_every_band(tmp_path):
    out_dir = tmp_path / "meshes"
    proc = run_script(
        "build_mobius_gallery.py", "--out-dir", str(out_dir), "--theta-steps", "64"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cases = [(1, 3), (1, 5), (2, 3), (2, 5), (3, 5)]
    assert len(lines) == 8 * len(cases)  # one build-mobius report per band
    for i, (p, q) in enumerate(cases):
        path = out_dir / f"mobius_p{p}_q{q}.off"
        report = lines[8 * i:8 * i + 8]
        assert report[0].startswith("wrote ")
        assert report[0].endswith(f" lines to {path}")
        assert report[1:6] == [
            "euler_characteristic: 0",
            "boundary_components: 1",
            "orientable: no",
            f"boundary_class: ({2 * p}, {q})",
            f"core_multiplicity: {p}",
        ]
        assert path.read_text().startswith(f"OFF\n{64 * p * 8} {2 * 64 * p * 7} 0\n")
        offcore, tol = report[6].split(": ")[1].split(" (tolerance ")
        assert float(offcore) <= float(tol.rstrip(")"))
        assert report[7] == "certified: yes"


def test_gap_table(tmp_path):
    proc = run_script("reproduce_gap_table.py", "--k-max", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "  k  gamma_I  gamma_3  gamma_4  gap_3I  gap_4I",
        "  2        1        2        1       1       0",
        "  3        1        3        2       2       1",
        "  4        1        4        3       3       2",
    ]
