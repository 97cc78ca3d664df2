"""Invariant values on the pinned families, and the tri-state value model."""

import json
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosscap import invariants, knots
from crosscap.invariants import InvariantReport, InvariantValue, ValueKind
from crosscap.knots import UNKNOT, CableKnot, ExternalKnot, PropertyFlags, TorusKnot, TorusParams


def torus(a, b):
    return TorusKnot(TorusParams(a, b))


TREFOIL = torus(2, 3)


class TestInvariantValue:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            InvariantValue.known(-1, "x")

    def test_provenance_required(self):
        with pytest.raises(ValueError):
            InvariantValue.known(1, "")

    def test_unknown_carries_no_number(self):
        with pytest.raises(ValueError):
            InvariantValue(ValueKind.UNKNOWN, 3, "")


class TestGammaI:
    def test_even_torus(self):
        v = invariants.gamma_I(torus(4, 3))
        assert v.is_known and v.value == 1

    def test_even_cable(self):
        v = invariants.gamma_I(CableKnot(TorusParams(4, 3), TREFOIL))
        assert v.is_known and v.value == 1

    def test_odd_odd_torus(self):
        v = invariants.gamma_I(torus(3, 5))
        assert v.kind is ValueKind.LOWER_BOUND and v.value == 2

    def test_odd_cable(self):
        v = invariants.gamma_I(CableKnot(TorusParams(5, 4), TREFOIL))
        assert v.kind is ValueKind.LOWER_BOUND and v.value == 2

    def test_cable_over_external_companion(self):
        companion = ExternalKnot("6_1", PropertyFlags(hyperbolic=True))
        v = invariants.gamma_I(CableKnot(TorusParams(4, 3), companion))
        assert v.is_known and v.value == 1

    def test_iterated_cable(self):
        inner = CableKnot(TorusParams(4, 3), TREFOIL)
        v = invariants.gamma_I(CableKnot(TorusParams(6, 5), inner))
        assert v.is_known and v.value == 1

    def test_hyperbolic_external(self):
        k = ExternalKnot("6_1", PropertyFlags(hyperbolic=True))
        v = invariants.gamma_I(k)
        assert v.kind is ValueKind.LOWER_BOUND and v.value == 2

    def test_unknot(self):
        v = invariants.gamma_I(UNKNOT)
        assert v.is_known and v.value == 0

    def test_unflagged_external(self):
        assert invariants.gamma_I(ExternalKnot("granny")).kind is ValueKind.UNKNOWN

    def test_invalid_propagates(self):
        class Foreign(knots.KnotPresentation):
            pass

        with pytest.raises(knots.InvalidPresentationError):
            invariants.gamma_I(torus(4, 6))
        with pytest.raises(knots.InvalidPresentationError, match="unrecognized"):
            invariants.invariant_report(Foreign())

    @given(
        a=st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0),
        b=st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0),
    )
    def test_normalization_equivalence(self, a, b):
        if gcd(abs(a), abs(b)) != 1:
            return
        base = invariants.gamma_I(torus(a, b))
        assert invariants.gamma_I(torus(b, a)) == base
        assert invariants.gamma_I(torus(-a, -b)) == base


class TestClosedForms:
    @pytest.mark.parametrize(
        "params, genus",
        [((3, 4), 3), ((2, 3), 1), ((1, 9), 0)],
    )
    def test_seifert_genus(self, params, genus):
        v = invariants.seifert_genus_torus(TorusParams(*params))
        assert v.is_known and v.value == genus

    @pytest.mark.parametrize(
        "params, value",
        [((3, 4), 2), ((3, 10), 3), ((5, 6), 3), ((7, 8), 4)],
    )
    def test_gamma3_known(self, params, value):
        v = invariants.gamma3_torus(TorusParams(*params))
        assert v.is_known and v.value == value

    @pytest.mark.parametrize("params", [(5, 7), (2, 3), (3, 7), (4, 11)])
    def test_gamma3_unknown(self, params):
        assert invariants.gamma3_torus(TorusParams(*params)).kind is ValueKind.UNKNOWN

    def test_gamma3_unknot(self):
        v = invariants.gamma3_torus(TorusParams(1, 5))
        assert v.is_known and v.value == 0

    @pytest.mark.parametrize(
        "params, value",
        [((3, 4), 1), ((7, 8), 3)],
    )
    def test_gamma4_known(self, params, value):
        v = invariants.gamma4_torus(TorusParams(*params))
        assert v.is_known and v.value == value

    @pytest.mark.parametrize("params", [(3, 7), (2, 3), (5, 7)])
    def test_gamma4_unknown(self, params):
        assert invariants.gamma4_torus(TorusParams(*params)).kind is ValueKind.UNKNOWN


class TestPrimality:
    def test_examples(self):
        assert invariants.primality(torus(4, 3)) is True
        assert invariants.primality(CableKnot(TorusParams(6, 5), TREFOIL)) is True
        assert invariants.primality(ExternalKnot("granny")) is None
        assert invariants.primality(UNKNOT) is None
        assert invariants.primality(torus(1, 7)) is None


class TestReports:
    def test_gap_table_first_row(self):
        rows = invariants.gap_table(2)
        assert len(rows) == 1
        row = rows[0]
        assert row.gamma_i.value == 1
        assert row.gamma_3.value == 2
        assert row.gamma_4.value == 1
        assert (row.gap_3i, row.gap_4i) == (1, 0)

    def test_gap_table_last_row(self):
        row = invariants.gap_table(5)[-1]
        assert row.gamma_3.value == 5
        assert row.gamma_4.value == 4
        assert (row.gap_3i, row.gap_4i) == (4, 3)

    def test_gap_table_rejects_small_k(self):
        with pytest.raises(ValueError):
            invariants.gap_table(1)

    def test_gap_table_accepts_the_cap(self, monkeypatch):
        # A stand-in report keeps the 100,000-row table cheap; the cap is
        # what is under test.
        monkeypatch.setattr(invariants, "invariant_report", lambda knot: knot)
        rows = invariants.gap_table(invariants.MAX_GAP_K)
        assert len(rows) == invariants.MAX_GAP_K - 1
        assert rows[-1] == torus(2 * invariants.MAX_GAP_K, 2 * invariants.MAX_GAP_K - 1)

    def test_gap_table_rejects_above_the_cap(self):
        cap = invariants.MAX_GAP_K  # read before any table can be built
        with pytest.raises(ValueError, match=f"k_max <= {cap}"):
            invariants.gap_table(cap + 1)

    def test_slice_external_gets_gamma4_zero(self):
        k = ExternalKnot("6_1", PropertyFlags(hyperbolic=True, slice=True))
        report = invariants.invariant_report(k)
        assert report.gamma_4.is_known and report.gamma_4.value == 0
        assert report.gamma_i.kind is ValueKind.LOWER_BOUND
        assert report.gap_4i is None

    def test_unknot_report(self):
        report = invariants.invariant_report(UNKNOT)
        for v in (report.gamma_i, report.gamma_3, report.gamma_4, report.g_3):
            assert v.is_known and v.value == 0
        assert (report.gap_3i, report.gap_4i) == (0, 0)

    def test_cable_report(self):
        report = invariants.invariant_report(CableKnot(TorusParams(4, 3), TREFOIL))
        assert report.gamma_i.value == 1
        assert report.gamma_3.kind is ValueKind.UNKNOWN
        assert report.prime is True

    def test_report_consistency_enforced(self):
        one = InvariantValue.known(1, "x")
        zero = InvariantValue.known(0, "x")
        with pytest.raises(ValueError):
            InvariantReport(
                knot=torus(4, 3),
                gamma_i=one,
                gamma_3=zero,
                gamma_4=zero,
                g_3=zero,
                prime=True,
            )

    def test_json_round_trip(self):
        report = invariants.invariant_report(torus(4, 3))
        text = json.dumps(report.to_dict(), indent=2)
        back = json.loads(text)
        assert back == report.to_dict()
        assert knots.parse_knot(back["knot"]) == report.knot
