"""Seeded inputs for the three workloads.

Everything the program sees is generated here from ``--seed``; the same seed
gives the same case list.  The generators stay clear of inputs that are
known to hang, recurse without bound or exhaust memory (``twist`` with a
huge negative chi, deeply nested cables, broad-phase blow-ups at large
p*chord_steps): those are correctness and scaling defects, not load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

# The library's default CROSSCAP_MAX_MESH; every generated mesh stays below it.
DEFAULT_MAX_TRIANGLES = 2_000_000
MAX_CABLE_NESTING = 4
MAX_TWIST_CHI = 10_000
MAX_GAPS_K = 50


@dataclass(frozen=True)
class BandCase:
    p: int
    q: int
    theta_steps: int
    chord_steps: int
    fmt: str = ""  # "off" or "obj" when the case goes through a mesh file

    @property
    def key(self) -> str:
        tail = f"/{self.fmt}" if self.fmt else ""
        return f"p{self.p}q{self.q}t{self.theta_steps}c{self.chord_steps}{tail}"

    @property
    def vertices(self) -> int:
        return self.theta_steps * self.p * self.chord_steps

    @property
    def triangles(self) -> int:
        return 2 * self.theta_steps * self.p * (self.chord_steps - 1)

    @property
    def edges(self) -> int:
        # Per slice and chord: chord_steps-1 edges along the chord,
        # chord_steps slice-to-slice edges and chord_steps-1 quad diagonals.
        return self.theta_steps * self.p * (3 * self.chord_steps - 2)


def _check_band(case: BandCase) -> BandCase:
    if gcd(2 * case.p, abs(case.q)) != 1:
        raise ValueError(f"generated q={case.q} is not coprime to 2p={2 * case.p}")
    if case.theta_steps < 4 * case.p * abs(case.q):
        raise ValueError(f"generated case {case.key} is under-resolved")
    if case.triangles > DEFAULT_MAX_TRIANGLES:
        raise ValueError(f"generated case {case.key} exceeds the default mesh budget")
    return case


def _coprime_q(rng: random.Random, p: int, q_max: int) -> int:
    choices = [q for q in range(-q_max, q_max + 1)
               if q != 0 and gcd(2 * p, abs(q)) == 1]
    return rng.choice(choices)


# band_dense: about 150 strip rows per sector (2p*(chord_steps-1)), so the
# sector-pair broad phase sees ~1.5*150^2 candidates per sector whatever p.
DENSE_THETA_STEPS = 512
DENSE_CHORD_STEPS = {3: 26, 4: 20, 5: 16}


def band_dense_cases(seed: int) -> list[BandCase]:
    """One case per p in {3, 4, 5}, in seeded order, q coprime to 2p."""
    rng = random.Random(seed)
    ps = sorted(DENSE_CHORD_STEPS)
    rng.shuffle(ps)
    return [
        _check_band(BandCase(p, _coprime_q(rng, p, 11), DENSE_THETA_STEPS,
                             DENSE_CHORD_STEPS[p]))
        for p in ps
    ]


# band_sparse_file: p = 1 bands are embedded, so no candidate pair survives
# the strip-distance filter and the time goes to topology and mesh I/O.
SPARSE_THETA_STEPS = 4096
SPARSE_CHORD_STEPS = 12


def band_sparse_cases(seed: int) -> list[BandCase]:
    """Two p = 1 bands with odd |q| <= 7; OFF on even seeds, OBJ on odd."""
    rng = random.Random(seed)
    fmt = "off" if seed % 2 == 0 else "obj"
    qs = rng.sample([q for q in range(-7, 8) if q % 2], 2)
    return [
        _check_band(BandCase(1, q, SPARSE_THETA_STEPS, SPARSE_CHORD_STEPS, fmt))
        for q in qs
    ]


# --- cli_session --------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the oracle needs to judge it."""

    kind: str           # classify, gaps, obstruction, homology, twist,
                        # build-mobius, verify-mesh, invalid, audit
    argv: tuple[str, ...]
    expect_exit: int
    data: tuple = ()    # generator-side facts for the oracle, e.g. (p, q)


def _torus(rng: random.Random) -> tuple[int, int]:
    while True:
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if a and b and gcd(abs(a), abs(b)) == 1:
            return a, b


def _knotted_torus(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = _torus(rng)
        if min(abs(a), abs(b)) >= 2:
            return a, b


def _cable_expr(rng: random.Random, depth: int) -> tuple[str, int]:
    """A cable nested ``depth`` times over a torus companion; returns the
    expression and the outermost winding."""
    a, b = _knotted_torus(rng)
    expr = f"torus({a},{b})"
    winding = 0
    for _ in range(depth):
        winding = rng.randint(2, 12)
        meridional = rng.choice([m for m in range(-15, 16)
                                 if m and gcd(winding, abs(m)) == 1])
        expr = f"cable({winding},{meridional}; {expr})"
    return expr, winding


_EXTERNAL_NAMES = ("6_1", "8_20", "9_46", "granny", "square", "k12n_242", "conway")


def _external_expr(rng: random.Random) -> tuple[str, tuple]:
    name = rng.choice(_EXTERNAL_NAMES)
    hyperbolic = rng.choice((None, True, False))
    slice_ = rng.choice((None, True, False))
    flags = []
    if hyperbolic is not None:
        flags.append(f"hyperbolic={'yes' if hyperbolic else 'no'}")
    if slice_ is not None:
        flags.append(f"slice={'yes' if slice_ else 'no'}")
    expr = f"external({name}; {', '.join(flags)})" if flags else f"external({name})"
    return expr, (hyperbolic, slice_)


_INVALID = (
    (("classify", "--knot", "torus(4,6)"), 2),
    (("classify", "--knot", "torus(3,"), 2),
    (("classify",), 1),
    (("gaps", "--k-max", "1"), 2),
    (("obstruction", "--p", "3", "--q", "9"), 2),
    (("homology", "--n", "1"), 2),
    (("twist", "--chi", "3", "--n", "2"), 2),
    (("frobnicate",), 1),
)

SESSION_THETA_STEPS = 256


def cli_session_commands(seed: int, mesh_path: str) -> list[Command]:
    """About 30 commands in seeded order, as one user types them.

    ``mesh_path`` (without extension) is where build-mobius writes and
    verify-mesh reads; the extension picks OFF or OBJ by seed.
    """
    rng = random.Random(seed)
    cmds: list[Command] = []
    js = ("--format", "json")

    for _ in range(7):
        a, b = _torus(rng)
        cmds.append(Command("classify", ("classify", "--knot", f"torus({a},{b})") + js,
                            0, ("torus", a, b)))
    cmds.append(Command("classify", ("classify", "--knot", "unknot") + js, 0, ("unknot",)))
    for depth in range(1, MAX_CABLE_NESTING + 1):
        expr, winding = _cable_expr(rng, depth)
        cmds.append(Command("classify", ("classify", "--knot", expr) + js,
                            0, ("cable", winding)))
    for _ in range(2):
        expr, flags = _external_expr(rng)
        cmds.append(Command("classify", ("classify", "--knot", expr) + js,
                            0, ("external",) + flags))
    for _ in range(3):
        k = rng.randint(2, MAX_GAPS_K)
        cmds.append(Command("gaps", ("gaps", "--k-max", str(k)) + js, 0, (k,)))
    for _ in range(3):
        p, q = _knotted_torus(rng)
        cmds.append(Command("obstruction",
                            ("obstruction", "--p", str(p), "--q", str(q)) + js, 0, (p, q)))
    for _ in range(3):
        n = rng.randint(2, 1000)
        cmds.append(Command("homology", ("homology", "--n", str(n)) + js, 0, (n,)))
    for _ in range(3):
        chi = rng.randint(-MAX_TWIST_CHI, 1)
        n = rng.randint(2, 20)
        cmds.append(Command("twist", ("twist", "--chi", str(chi), "--n", str(n)) + js,
                            0, (chi, n)))
    for argv, code in rng.sample(_INVALID, 3):
        cmds.append(Command("invalid", argv, code))
    rng.shuffle(cmds)

    # The mesh pair keeps its order (verify reads what build wrote); audit
    # runs last, as a user checks the install after a session.
    p = rng.choice((1, 2, 3))
    q = _coprime_q(rng, p, 7)
    _check_band(BandCase(p, q, SESSION_THETA_STEPS, 8))
    path = f"{mesh_path}.{'off' if seed % 2 == 0 else 'obj'}"
    build = ("build-mobius", "--p", str(p), "--q", str(q),
             "--theta-steps", str(SESSION_THETA_STEPS), "--out", path) + js
    verify = ("verify-mesh", "--p", str(p), "--q", str(q), "--out", path) + js
    at = rng.randrange(len(cmds) + 1)
    cmds[at:at] = [Command("build-mobius", build, 0, (p, q, path)),
                   Command("verify-mesh", verify, 0, (p, q, path))]
    cmds.append(Command("audit", ("audit",), 0))
    return cmds
