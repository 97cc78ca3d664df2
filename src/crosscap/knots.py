"""Knot presentations: torus parameters, cables, and structural predicates.

A knot is presented either as the unknot, as a curve on the standard torus,
as a cable over a knotted companion, or as an externally named knot with
caller-asserted property flags.  Torus-style parameter pairs are always
``(winding, meridional)`` where the winding is the coefficient of the
longitude of the solid torus and the meridional entry is the coefficient of
the meridian.  All invariants computed downstream are mirror-invariant, so
normalization folds ``(a, b)``, ``(b, a)`` and ``(-a, -b)`` into one
canonical representative.

Presentations are valid by construction: each constructor raises
InvalidPresentationError on a broken rule.  ``is_trivial`` is the one
triviality rule, and a cable's companion must be knotted by it.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Optional, TypeVar

_T = TypeVar("_T")


class KnotGrammarError(ValueError):
    """Raised when a knot expression cannot be parsed."""


class InvalidPresentationError(ValueError):
    """Raised when a presentation would break a structural rule; ``part`` is
    ``".companion"`` when a cable's companion broke it, else ``""``."""

    def __init__(self, message: str, part: str = ""):
        super().__init__(message)
        self.part = part


class _Value:
    """Immutable value: fields in ``__slots__``, set once by ``__init__``.

    Equal only to an instance of the exact same type with equal fields, and
    hashed, printed, copied and pickled through the field tuple, as a
    frozen dataclass would be.  Hand-written rather than generated, so the
    light commands that build these values need not import ``dataclasses``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


_set = object.__setattr__  # how ``__init__`` fills the fields of a _Value


class TorusParams(_Value):
    """Coefficient pair (winding, meridional) of a curve on a torus.

    Both entries are nonzero and coprime; curves with a zero coefficient
    are handled by the unknot case.
    """

    __slots__ = ("winding", "meridional")
    winding: int
    meridional: int

    def __init__(self, winding: int, meridional: int) -> None:
        _set(self, "winding", winding)
        _set(self, "meridional", meridional)
        if winding == 0 or meridional == 0:
            raise InvalidPresentationError("winding and meridional must be nonzero")
        if gcd(winding, meridional) != 1:
            raise InvalidPresentationError("gcd != 1")

    def __str__(self) -> str:
        return f"({self.winding},{self.meridional})"


class PropertyFlags(_Value):
    """Caller-asserted facts about an external knot; None means unknown.

    Flags are never computed here: certifying hyperbolicity or sliceness is
    out of scope, so the toolkit simply trusts what it is told.
    """

    __slots__ = ("hyperbolic", "slice")
    hyperbolic: Optional[bool]
    slice: Optional[bool]

    def __init__(
        self, hyperbolic: Optional[bool] = None, slice: Optional[bool] = None
    ) -> None:
        _set(self, "hyperbolic", hyperbolic)
        _set(self, "slice", slice)

    def __str__(self) -> str:
        parts = []
        if self.hyperbolic is not None:
            parts.append(f"hyperbolic={'yes' if self.hyperbolic else 'no'}")
        if self.slice is not None:
            parts.append(f"slice={'yes' if self.slice else 'no'}")
        return ", ".join(parts)


class KnotPresentation(_Value):
    """Base class for the four presentation variants."""

    __slots__ = ()


class Unknot(KnotPresentation):
    __slots__ = ()

    def __str__(self) -> str:
        return "unknot"


class TorusKnot(KnotPresentation):
    __slots__ = ("params",)
    params: TorusParams

    def __init__(self, params: TorusParams) -> None:
        _set(self, "params", params)

    def __str__(self) -> str:
        return f"torus{self.params}"


class CableKnot(KnotPresentation):
    """Cable with the given (winding, meridional) pattern over a knotted core."""

    __slots__ = ("params", "companion")
    params: TorusParams
    companion: KnotPresentation

    def __init__(self, params: TorusParams, companion: KnotPresentation) -> None:
        _set(self, "params", params)
        _set(self, "companion", companion)
        if abs(params.winding) < 2:
            raise InvalidPresentationError("cable winding must satisfy |winding| >= 2")
        if is_trivial(companion):
            raise InvalidPresentationError("companion must be knotted", ".companion")

    def __str__(self) -> str:
        return (
            f"cable({self.params.winding},{self.params.meridional}; "
            f"{self.companion})"
        )


class ExternalKnot(KnotPresentation):
    """Opaque nontrivial knot known only by name and asserted flags."""

    __slots__ = ("name", "flags")
    name: str
    flags: PropertyFlags

    def __init__(self, name: str, flags: PropertyFlags = PropertyFlags()) -> None:
        _set(self, "name", name)
        _set(self, "flags", flags)
        if not name:
            raise InvalidPresentationError("external knot needs a nonempty name")

    def __str__(self) -> str:
        flag_text = str(self.flags)
        if flag_text:
            return f"external({self.name}; {flag_text})"
        return f"external({self.name})"


UNKNOT = Unknot()


def normalize_torus(t: Optional[TorusParams]) -> Optional[TorusParams]:
    """Canonical torus form: both entries positive, smaller first.

    ``(a, b)``, ``(b, a)`` and ``(-a, -b)`` all map to the same pair.  When
    either entry has absolute value <= 1 the curve is unknotted and the
    canonical unknot marker ``None`` is returned; ``None`` normalizes to
    itself so the map is idempotent.
    """
    if t is None:
        return None
    a, b = abs(t.winding), abs(t.meridional)
    if a > b:
        a, b = b, a
    if a <= 1:
        return None
    return TorusParams(a, b)


def is_trivial(k: KnotPresentation) -> bool:
    """True iff the presentation denotes the unknot.

    Torus presentations are trivial exactly when normalization yields the
    unknot marker.  Cables (over knotted companions) and, by contract,
    external names are nontrivial; any other type is refused.
    """
    if isinstance(k, TorusKnot):
        return normalize_torus(k.params) is None
    if isinstance(k, (Unknot, CableKnot, ExternalKnot)):
        return isinstance(k, Unknot)
    raise InvalidPresentationError(f"unrecognized presentation {type(k).__name__}")


def winding_is_even(k: KnotPresentation) -> Optional[bool]:
    """Parity of the winding for the torus/cable classification.

    For a torus presentation this asks whether either parameter is even
    (the two entries swap roles under the standard torus symmetry, and
    normalization keeps both parities); for a cable it is the parity of the
    cable winding.  Returns None for trivial presentations, where the
    classification does not apply.
    """
    if isinstance(k, ExternalKnot):
        raise InvalidPresentationError("winding parity is undefined for external knots")
    if is_trivial(k):
        return None
    if isinstance(k, TorusKnot):
        return k.params.winding % 2 == 0 or k.params.meridional % 2 == 0
    return k.params.winding % 2 == 0  # a cable: is_trivial refused other types


# --- text grammar -----------------------------------------------------------
#
#   unknot
#   torus(a,b)
#   cable(a,b; <knot>)
#   external(name)  |  external(name; hyperbolic=yes/no, slice=yes/no)
#
# Whitespace is insignificant everywhere; integers are signed decimals.
# Cables nest at most MAX_CABLE_DEPTH deep, well inside the recursion limit
# of the code that formats and evaluates a presentation.  Each part is built
# once its text is read (a cable after its companion), and a refused one is
# located as ``knot`` followed by ``.companion`` once per enclosing cable.

MAX_CABLE_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> KnotGrammarError:
        return KnotGrammarError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-."
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() and self.text[self.pos] in "+-":
            self.pos += 1
        # isdecimal, not isdigit: int() refuses digits such as '²'.
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        token = self.text[start:self.pos]
        if not token or token in "+-":
            raise self.error("expected an integer")
        return int(token)

    def build(self, depth: int, make: Callable[..., _T], *args: object) -> _T:
        """``make(*args)``, with a refusal located ``depth`` cables down."""
        try:
            return make(*args)
        except InvalidPresentationError as exc:
            location = "knot" + ".companion" * depth + exc.part
            raise InvalidPresentationError(f"{location}: {exc}") from None

    def params(self, depth: int, end: str) -> TorusParams:
        """``(a,b`` and the ``end`` character that follows it."""
        self.expect("(")
        a = self.integer()
        self.expect(",")
        b = self.integer()
        self.expect(end)
        return self.build(depth, TorusParams, a, b)

    def knot(self, depth: int = 0) -> KnotPresentation:
        """One presentation inside ``depth`` enclosing cables."""
        head = self.word().lower()
        if head == "unknot":
            return UNKNOT
        if head == "torus":
            return TorusKnot(self.params(depth, ")"))
        if head == "cable":
            if depth == MAX_CABLE_DEPTH:
                raise self.error(f"cables nest deeper than {MAX_CABLE_DEPTH}")
            params = self.params(depth, ";")
            companion = self.knot(depth + 1)
            self.expect(")")
            return self.build(depth, CableKnot, params, companion)
        if head == "external":
            self.expect("(")
            name = self.word()
            flags = PropertyFlags()
            if self.peek() == ";":
                self.pos += 1
                flags = self.flag_list()
            self.expect(")")
            return ExternalKnot(name, flags)
        raise self.error(f"unknown presentation {head!r}")

    def flag_list(self) -> PropertyFlags:
        values: dict[str, bool] = {}
        while True:
            key = self.word().lower()
            if key not in ("hyperbolic", "slice"):
                raise self.error(f"unknown flag {key!r}")
            if key in values:
                raise self.error(f"repeated flag {key!r}")
            self.expect("=")
            val = self.word().lower()
            if val not in ("yes", "no"):
                raise self.error(f"flag value must be yes or no, got {val!r}")
            values[key] = val == "yes"
            if self.peek() != ",":
                break
            self.pos += 1
        return PropertyFlags(
            hyperbolic=values.get("hyperbolic"), slice=values.get("slice")
        )


def parse_knot(text: str) -> KnotPresentation:
    """Parse the compact knot grammar used by the CLI."""
    parser = _Parser(text)
    k = parser.knot()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return k


def format_knot(k: KnotPresentation) -> str:
    """Canonical text form; ``parse_knot(format_knot(k)) == k``."""
    return str(k)
