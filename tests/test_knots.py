"""Presentations valid by construction, normalization, and the text grammar."""

from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crosscap import knots
from crosscap.knots import (
    UNKNOT,
    CableKnot,
    ExternalKnot,
    InvalidPresentationError,
    KnotGrammarError,
    PropertyFlags,
    TorusKnot,
    TorusParams,
)

nonzero_ints = st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0)
coprime_pairs = st.tuples(nonzero_ints, nonzero_ints).filter(lambda ab: gcd(*ab) == 1)
torus_params = coprime_pairs.map(lambda ab: TorusParams(*ab))
tri_state = st.sampled_from((None, True, False))


def torus(a, b):
    return TorusKnot(TorusParams(a, b))


def cable_over(patterns, companion):
    for params in patterns:
        companion = CableKnot(params, companion)
    return companion


# Only valid presentations can be built: cables wind at least twice around
# knotted companions.  Each extension wraps up to six cables, so with five
# levels the cables nest up to 30 deep.
knotted = st.one_of(
    st.builds(TorusKnot, torus_params).filter(lambda k: not knots.is_trivial(k)),
    st.builds(
        ExternalKnot,
        st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True),
        st.builds(PropertyFlags, tri_state, tri_state),
    ),
)
cable_params = torus_params.filter(lambda t: abs(t.winding) >= 2)
presentations = st.one_of(
    st.just(UNKNOT),
    st.builds(TorusKnot, torus_params),
    st.recursive(
        knotted,
        lambda inner: st.builds(
            cable_over, st.lists(cable_params, min_size=1, max_size=6), inner
        ),
        max_leaves=30,
    ),
)


class TestValidate:
    """Each constructor refuses what breaks its rules; parse_knot locates it."""

    def refusal(self, text):
        with pytest.raises(InvalidPresentationError) as info:
            knots.parse_knot(text)
        return str(info.value)

    def test_coprime_torus_ok(self):
        assert knots.parse_knot("torus(3,5)") == TorusKnot(TorusParams(3, 5))

    def test_gcd_violation(self):
        with pytest.raises(InvalidPresentationError, match="^gcd != 1$"):
            TorusParams(4, 6)
        assert self.refusal("torus(4,6)") == "knot: gcd != 1"
        assert self.refusal("cable(4,3; cable(4,6; torus(2,3)))") == (
            "knot.companion: gcd != 1"
        )

    def test_cable_over_unknot(self):
        for companion in (UNKNOT, torus(1, 5), torus(-7, 1)):
            with pytest.raises(InvalidPresentationError, match="must be knotted"):
                CableKnot(TorusParams(4, 3), companion)
        for text in (
            "cable(4,3; unknot)", "cable(2,1; torus(1,5))", "cable(3,2; torus(1,5))"
        ):
            assert self.refusal(text) == "knot.companion: companion must be knotted"

    def test_cable_winding_too_small(self):
        for winding in (1, -1):
            with pytest.raises(InvalidPresentationError, match=r"\|winding\| >= 2"):
                CableKnot(TorusParams(winding, 3), torus(2, 3))
        assert self.refusal("cable(1,3; torus(2,3))") == (
            "knot: cable winding must satisfy |winding| >= 2"
        )

    def test_zero_entry(self):
        for a, b in ((0, 5), (5, 0), (0, 0)):
            with pytest.raises(InvalidPresentationError, match="must be nonzero"):
                TorusParams(a, b)
        assert self.refusal("torus(0,5)") == (
            "knot: winding and meridional must be nonzero"
        )
        with pytest.raises(InvalidPresentationError, match="nonempty name"):
            ExternalKnot("")

    def test_nested_violation_located(self):
        assert self.refusal("cable(6,5; cable(4,3; unknot))") == (
            "knot.companion.companion: companion must be knotted"
        )
        # A cable's own rules are checked after its companion is built.
        assert self.refusal("cable(1,3; cable(4,3; unknot))") == (
            "knot.companion.companion: companion must be knotted"
        )
        # A part's text is read to its end before the part is built.
        with pytest.raises(KnotGrammarError):
            knots.parse_knot("torus(4,6")

    @given(a=nonzero_ints, b=nonzero_ints)
    def test_fuzz_gcd_detection(self, a, b):
        try:
            TorusParams(a, b)
        except InvalidPresentationError:
            refused = True
        else:
            refused = False
        assert refused == (gcd(abs(a), abs(b)) != 1)


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
        class Foreign(knots.KnotPresentation):
            pass

        for predicate in (knots.is_trivial, knots.winding_is_even):
            with pytest.raises(InvalidPresentationError, match="unrecognized .* Foreign"):
                predicate(Foreign())
        with pytest.raises(InvalidPresentationError, match="unrecognized .* Foreign"):
            CableKnot(TorusParams(4, 3), Foreign())


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
