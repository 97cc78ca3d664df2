"""Presentation validation, normalization, and the text grammar."""

from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crosscap import knots
from crosscap.knots import (
    UNKNOT,
    CableKnot,
    ExternalKnot,
    KnotGrammarError,
    PropertyFlags,
    TorusKnot,
    TorusParams,
)

nonzero_ints = st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0)
torus_params = st.builds(TorusParams, nonzero_ints, nonzero_ints)
tri_state = st.sampled_from((None, True, False))


def torus(a, b):
    return TorusKnot(TorusParams(a, b))


def cable_over(patterns, companion):
    for params in patterns:
        companion = CableKnot(params, companion)
    return companion


# Presentations need not be valid to round-trip.  Each extension wraps up to
# six cables, so with five levels the cables nest up to 30 deep.
presentations = st.recursive(
    st.one_of(
        st.just(UNKNOT),
        st.builds(TorusKnot, torus_params),
        st.builds(
            ExternalKnot,
            st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True),
            st.builds(PropertyFlags, tri_state, tri_state),
        ),
    ),
    lambda inner: st.builds(
        cable_over, st.lists(torus_params, min_size=1, max_size=6), inner
    ),
    max_leaves=30,
)


class TestValidate:
    def test_coprime_torus_ok(self):
        assert knots.validate(torus(3, 5)).ok

    def test_gcd_violation(self):
        result = knots.validate(torus(4, 6))
        assert not result.ok
        assert "gcd != 1" in result.first.message

    def test_cable_over_unknot(self):
        result = knots.validate(CableKnot(TorusParams(4, 3), UNKNOT))
        assert not result.ok
        assert "companion must be knotted" in result.first.message
        assert result.first.location == "knot.companion"

    def test_cable_winding_too_small(self):
        result = knots.validate(CableKnot(TorusParams(1, 3), torus(2, 3)))
        assert not result.ok
        assert "|winding| >= 2" in result.first.message

    def test_zero_entry(self):
        assert not knots.validate(torus(0, 5)).ok

    def test_nested_violation_located(self):
        inner = CableKnot(TorusParams(4, 3), UNKNOT)
        outer = CableKnot(TorusParams(6, 5), inner)
        result = knots.validate(outer)
        assert result.first.location == "knot.companion.companion"

    @given(a=nonzero_ints, b=nonzero_ints)
    def test_fuzz_gcd_detection(self, a, b):
        ok = knots.validate(torus(a, b)).ok
        assert ok == (gcd(abs(a), abs(b)) == 1)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ((3, 4), (3, 4)),
            ((-5, -3), (3, 5)),
            ((7, 2), (2, 7)),
        ],
    )
    def test_canonical_form(self, raw, expected):
        assert knots.normalize_torus(TorusParams(*raw)) == TorusParams(*expected)

    @pytest.mark.parametrize("raw", [(1, 7), (-1, 3), (9, 1), (1, 1)])
    def test_unknot_marker(self, raw):
        assert knots.normalize_torus(TorusParams(*raw)) is None

    @given(a=nonzero_ints, b=nonzero_ints)
    def test_idempotent_and_symmetric(self, a, b):
        if gcd(abs(a), abs(b)) != 1:
            return
        norm = knots.normalize_torus(TorusParams(a, b))
        assert knots.normalize_torus(norm) == norm
        assert knots.normalize_torus(TorusParams(b, a)) == norm
        assert knots.normalize_torus(TorusParams(-a, -b)) == norm
        if norm is not None:
            assert 2 <= norm.winding <= norm.meridional


class TestPredicates:
    def test_trivial_cases(self):
        assert knots.is_trivial(UNKNOT)
        assert knots.is_trivial(torus(2, 1))
        assert not knots.is_trivial(torus(4, 3))
        assert not knots.is_trivial(CableKnot(TorusParams(4, 3), torus(2, 3)))
        assert not knots.is_trivial(ExternalKnot("6_1"))

    def test_winding_parity(self):
        assert knots.winding_is_even(torus(4, 3)) is True
        assert knots.winding_is_even(torus(3, 5)) is False
        assert knots.winding_is_even(
            CableKnot(TorusParams(6, 5), torus(2, 3))
        ) is True
        assert knots.winding_is_even(
            CableKnot(TorusParams(5, 6), torus(2, 3))
        ) is False
        assert knots.winding_is_even(UNKNOT) is None
        assert knots.winding_is_even(torus(1, 7)) is None

    def test_winding_parity_rejects_external(self):
        with pytest.raises(knots.InvalidPresentationError):
            knots.winding_is_even(ExternalKnot("6_1"))

    def test_predicates_require_validity(self):
        with pytest.raises(knots.InvalidPresentationError):
            knots.is_trivial(torus(4, 6))


class TestGrammar:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("unknot", UNKNOT),
            ("torus(3,5)", torus(3, 5)),
            ("torus( -5 , -3 )", torus(-5, -3)),
            ("cable(4,3; torus(2,3))", CableKnot(TorusParams(4, 3), torus(2, 3))),
            (
                "external(6_1; hyperbolic=yes, slice=yes)",
                ExternalKnot("6_1", PropertyFlags(hyperbolic=True, slice=True)),
            ),
            ("external(granny)", ExternalKnot("granny")),
            ("EXTERNAL(k; hyperbolic=no)", ExternalKnot("k", PropertyFlags(hyperbolic=False))),
        ],
    )
    def test_parse(self, text, expected):
        assert knots.parse_knot(text) == expected

    def test_whitespace_insensitive(self):
        a = knots.parse_knot("cable(6,5;cable(4,3;torus(2,3)))")
        b = knots.parse_knot("  cable ( 6 , 5 ;  cable( 4, 3 ; torus( 2, 3) ) ) ")
        assert a == b

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "torus(3)",
            "torus(3,)",
            "torus(a,b)",
            "cable(4,3)",
            "external(; hyperbolic=yes)",
            "external(k; chiral=yes)",
            "external(k; hyperbolic=maybe)",
            "torus(3,5) etc",
            "granny",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(KnotGrammarError):
            knots.parse_knot(bad)

    @pytest.mark.parametrize(
        "text",
        [
            "unknot",
            "torus(3,4)",
            "cable(4,3; torus(2,3))",
            "cable(6,5; cable(4,3; torus(2,3)))",
            "external(6_1; hyperbolic=yes, slice=yes)",
            "external(granny)",
        ],
    )
    def test_round_trip(self, text):
        k = knots.parse_knot(text)
        assert knots.parse_knot(knots.format_knot(k)) == k

    @given(k=presentations)
    @example(k=cable_over([TorusParams(-4, 3)] * 30, ExternalKnot("k.1-a")))
    def test_round_trip_generated(self, k):
        assert knots.parse_knot(knots.format_knot(k)) == k
