"""Tests of the benchmark's own oracle, generators and span arithmetic.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the root of
the checkout.  They import no crosscap code: the oracle must stand alone.
"""

import json

import cases
import oracle
import spans

GOOD_REPORT = {
    "euler_characteristic": 0,
    "boundary_component_count": 1,
    "orientable": False,
    "boundary_class": [6, 5],
    "max_offcore_selfintersection_distance": 0.003,
    "core_multiplicity": 3,
}


def test_certificate_accepts_the_band_and_ignores_added_keys():
    report = dict(GOOD_REPORT, certified=True, failed_checks=[])
    assert oracle.certificate_problems(report, 3, 5, max_edge=0.1) == []


def test_certificate_flags_a_wrong_euler_characteristic():
    report = dict(GOOD_REPORT, euler_characteristic=1)
    problems = oracle.certificate_problems(report, 3, 5, max_edge=0.1)
    assert len(problems) == 1 and "euler_characteristic" in problems[0]


def test_certificate_flags_each_expected_value():
    wrong = {
        "boundary_component_count": 2,
        "orientable": True,
        "boundary_class": [6, -5],
        "core_multiplicity": 2,
        "max_offcore_selfintersection_distance": 0.31,
    }
    for key, value in wrong.items():
        problems = oracle.certificate_problems(dict(GOOD_REPORT, **{key: value}),
                                               3, 5, max_edge=0.1)
        assert problems and key in problems[0], key


def test_certificate_wants_a_boolean_orientability():
    report = dict(GOOD_REPORT, orientable=0)
    assert oracle.certificate_problems(report, 3, 5, max_edge=0.1)


def test_certificate_flags_a_missing_field():
    report = {k: v for k, v in GOOD_REPORT.items() if k != "core_multiplicity"}
    assert oracle.certificate_problems(report, 3, 5, max_edge=0.1)


def _twist_scan(chi, n):
    p = 0
    while True:
        genus = (n - 1) * (2 * n - 1) * (1 + p)
        if 1 - 2 * genus < chi and (p + 2 * n) // 2 > 1 - chi:
            return p
        p += 2


def test_twist_closed_form_matches_the_scan():
    for n in range(2, 12):
        for chi in range(1, -200, -1):
            assert oracle.expected_twist(chi, n) == _twist_scan(chi, n), (chi, n)


def _cmd(kind, data=(), expect_exit=0):
    return cases.Command(kind, (kind,), expect_exit, data)


def test_command_flags_a_wrong_exit_code():
    cmd = _cmd("invalid", expect_exit=2)
    assert oracle.command_problems(cmd, 2, "") == []
    assert oracle.command_problems(cmd, 1, "") == ["exit code 1, expected 2"]
    assert oracle.command_problems(_cmd("homology", (4,)), 3, "{}")


def test_classify_oracle_on_torus_knots():
    cmd = _cmd("classify", ("torus", 4, -3))
    payload = {"gamma_i": {"kind": "known", "value": 1, "provenance": "x"},
               "g_3": {"kind": "known", "value": 3, "provenance": "y"},
               "added": "ignored"}
    assert oracle.command_problems(cmd, 0, json.dumps(payload)) == []
    payload["g_3"]["value"] = 2
    assert oracle.command_problems(cmd, 0, json.dumps(payload))
    odd = _cmd("classify", ("torus", 3, 5))
    bound = {"gamma_i": {"kind": "lower_bound", "value": 2},
             "g_3": {"kind": "known", "value": 4}}
    assert oracle.command_problems(odd, 0, json.dumps(bound)) == []


def test_gap_rows():
    rows = [{"gamma_i": {"kind": "known", "value": 1},
             "gamma_3": {"kind": "known", "value": k},
             "gamma_4": {"kind": "known", "value": k - 1},
             "gap_3i": k - 1, "gap_4i": k - 2} for k in range(2, 6)]
    cmd = _cmd("gaps", (5,))
    assert oracle.command_problems(cmd, 0, json.dumps(rows)) == []
    rows[2]["gamma_4"]["value"] = 4
    assert oracle.command_problems(cmd, 0, json.dumps(rows))
    assert oracle.command_problems(cmd, 0, json.dumps(rows[:3]))


def test_obstruction_and_homology_closed_forms():
    assert oracle.command_problems(_cmd("obstruction", (3, -5)), 0,
                                   '{"obstructed": true}') == []
    assert oracle.command_problems(_cmd("obstruction", (4, 3)), 0,
                                   '{"obstructed": true}')
    good = {"n": 4, "surgery_slope": 56, "chi_immersed": 1,
            "chi_embedded_component_max": -3, "gap": 4}
    assert oracle.command_problems(_cmd("homology", (4,)), 0, json.dumps(good)) == []
    assert oracle.command_problems(_cmd("homology", (4,)), 0,
                                   json.dumps(dict(good, gap=3)))


def test_audit_output():
    cmd = _cmd("audit")
    ok = "ok   a\nok   b\n2/2 property suites passed\n"
    assert oracle.command_problems(cmd, 0, ok) == []
    bad = "ok   a\nFAIL b: broke\n1/2 property suites passed\n"
    assert oracle.command_problems(cmd, 0, bad)


def test_generators_repeat_and_stay_inside_the_guard_rails():
    for seed in range(40):
        assert cases.band_dense_cases(seed) == cases.band_dense_cases(seed)
        session = cases.cli_session_commands(seed, "band")
        assert session == cases.cli_session_commands(seed, "band")
        assert 28 <= len(session) <= 34
        for case in cases.band_dense_cases(seed) + cases.band_sparse_cases(seed):
            assert case.triangles <= cases.DEFAULT_MAX_TRIANGLES
            assert 2 * case.p * (case.chord_steps - 1) <= 152
        for cmd in session:
            text = " ".join(cmd.argv)
            assert text.count("cable(") <= cases.MAX_CABLE_NESTING
            if cmd.kind == "twist":
                assert -cases.MAX_TWIST_CHI <= cmd.data[0] <= 1
        kinds = [c.kind for c in session]
        assert kinds[-1] == "audit"
        assert kinds.index("verify-mesh") == kinds.index("build-mobius") + 1


def test_self_times_subtract_direct_children():
    recorded = [
        ["mobius.verify", 0.0, 10.0, -1, 0],
        ["mobius.euler", 1.0, 3.0, 0, 0],
        ["mobius.winding", 4.0, 8.0, 0, 0],
        ["mobius.boundary_cycles", 5.0, 6.0, 2, 0],
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 3.0, 1.0]
    sums = spans.sum_by_case(recorded)[0]
    assert sums["mobius.verify"] == 4.0 and sums["mobius.verify@total"] == 10.0


def test_tracer_wraps_by_name_and_reports_missing_stages(monkeypatch):
    import sys
    import types

    package = types.ModuleType("fakecc")
    mobius = types.ModuleType("fakecc.mobius")

    def build_mobius(n):
        return [n]

    def verify_mesh(mesh):
        return len(mobius.build_mobius(mesh[0]))  # a module-global lookup

    mobius.build_mobius = build_mobius
    mobius.verify_mesh = verify_mesh
    monkeypatch.setitem(sys.modules, "fakecc", package)
    monkeypatch.setitem(sys.modules, "fakecc.mobius", mobius)

    tracer = spans.Tracer()
    tracer.install(package="fakecc")
    assert "mobius.is_orientable" in tracer.not_measured
    assert spans.stage_missing("mobius.orientable", tracer.not_measured)
    assert not spans.stage_missing("mobius.build", tracer.not_measured)
    assert mobius.verify_mesh([3]) == 1
    tracer.uninstall()
    assert mobius.build_mobius is build_mobius and mobius.verify_mesh is verify_mesh

    names = [s[0] for s in tracer.spans]
    assert names == ["mobius.verify", "mobius.build"]
    assert tracer.spans[1][3] == 0  # build nests under verify
    assert tracer.calls["mobius.build_mobius"] == 1
    assert tracer.results["mobius.build_mobius"] == [None]  # observer saw a list
