"""Seifert fibered spaces, negative continued fractions, and plumbing trees.

A Seifert space Y(e; r_1, ..., r_k) over the sphere is encoded by an integer
central framing and nonzero rational leg parameters; its Euler number is
e(Y) = e - sum 1/r_i. canonical_plumbing first moves integers into the
central weight (Neumann-Raymond normal form): with s = 1/r and m = ceil(s),
the center becomes e - m and the leg becomes 1/(s - m) < -1, or drops when
s = m. Neither e(Y) nor |H_1| changes. When e(Y) < 0 the space then bounds
a star-shaped negative definite plumbing: the central vertex carries the
shifted weight and leg i becomes a chain whose weights are the negative
continued fraction expansion of its normalized parameter. A plumbing may
have at most MAX_GRAM_RANK vertices: the expansion stops, and FormatError
(exit code 1) is raised, as soon as a space would need more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    ExpressionParseError,
    FormatError,
    NotNegativeDefiniteError,
    NotRationalHomologySphereError,
    ToolkitError,
    ZeroLegFramingError,
)
from .lattice import MAX_GRAM_RANK, E8_EDGES, IntegralLattice, validate_lattice
from .linalg import integer_entries, require_rational


@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants (central framing, leg parameters) over the sphere."""

    central: int
    legs: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.central) is not int:
            raise FormatError(f"central framing {self.central!r} is not an int")
        legs = tuple(Fraction(require_rational(r, f"leg {i + 1}")) for i, r in enumerate(self.legs))
        object.__setattr__(self, "legs", legs)
        for i, r in enumerate(self.legs):
            if r == 0:
                raise ZeroLegFramingError(f"leg {i + 1} has framing 0")
        if self.euler_number == 0:
            raise NotRationalHomologySphereError(
                "Euler number vanishes, first homology is infinite"
            )

    @cached_property
    def euler_number(self) -> Fraction:
        return Fraction(self.central) - sum(1 / r for r in self.legs)


def reverse_orientation(data: SeifertData) -> SeifertData:
    """The same space with reversed orientation."""
    return SeifertData(-data.central, tuple(-r for r in data.legs))


def h1_order(data: SeifertData) -> int:
    """Order of the first homology group."""
    scale = 1
    for r in data.legs:
        scale *= abs(r.numerator)
    order = scale * abs(data.euler_number)
    if order.denominator != 1:
        raise ToolkitError(f"first homology order {order} is not an integer")
    return int(order)


@dataclass(frozen=True)
class NcfExpansion:
    """Negative continued fraction a_1 - 1/(a_2 - 1/(...))."""

    coefficients: tuple[int, ...]

    def evaluate(self) -> Fraction:
        value = Fraction(self.coefficients[-1])
        for a in reversed(self.coefficients[:-1]):
            value = a - 1 / value
        return value


def neg_continued_fraction(value: Fraction) -> NcfExpansion:
    """Expand a rational into its negative continued fraction.

    Each step takes the floor, so every tail lies in (-inf, -1) and all
    coefficients beyond a value below -1 are at most -2. A value that is not
    an int or Fraction raises FormatError.
    """
    return NcfExpansion(tuple(_ncf_coefficients(require_rational(value, "value"))))


def _ncf_coefficients(value):
    """The coefficients of neg_continued_fraction(value), one at a time."""
    remainder = Fraction(value)
    while True:
        a = remainder.numerator // remainder.denominator
        yield a
        if remainder == a:
            return
        remainder = -1 / (remainder - a)


@dataclass(frozen=True)
class PlumbingTree:
    """Weighted tree; vertices carry integer framings, edges are unordered.

    Weights are held to the one integer rule (NotIntegerError otherwise) and
    stored as ints.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", integer_entries(self.weights))
        n = len(self.weights)
        if n == 0:
            raise ValueError("a plumbing tree needs at least one vertex")
        if len(self.edges) != n - 1:
            raise ValueError(f"{len(self.edges)} edges cannot form a tree on {n} vertices")
        seen = set()
        for i, j in self.edges:
            if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid edge ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
        reached = {0}
        frontier = [0]
        adjacency = self.adjacency
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) != n:
            raise ValueError("edge set is disconnected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neighbors = [[] for _ in self.weights]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    @property
    def rank(self) -> int:
        return len(self.weights)

    @cached_property
    def lattice(self) -> IntegralLattice:
        """The intersection lattice, built and validated once per tree."""
        return gram(self)


def gram(tree: PlumbingTree) -> IntegralLattice:
    """Intersection lattice of the plumbed 4-manifold."""
    n = tree.rank
    entries = [[0] * n for _ in range(n)]
    for i, w in enumerate(tree.weights):
        entries[i][i] = w
    for i, j in tree.edges:
        entries[i][j] = 1
        entries[j][i] = 1
    return validate_lattice(entries)


def bad_vertex_indices(tree: PlumbingTree) -> tuple[int, ...]:
    """Vertices whose framing exceeds the negative of their valence."""
    return tuple(v for v, ns in enumerate(tree.adjacency) if tree.weights[v] > -len(ns))


def canonical_plumbing(data: SeifertData) -> PlumbingTree:
    """Star-shaped plumbing of a Seifert space with its legs normalized.

    Each normalized leg is a chain of weights <= -2, and the Schur
    complement at the center is e(Y), so the star is negative definite
    exactly when e(Y) < 0: e(Y) > 0 raises NotNegativeDefiniteError before
    anything is built. The tree determinant realizes |H_1|. Raises
    FormatError once the tree would pass MAX_GRAM_RANK vertices.
    """
    euler = data.euler_number
    if euler > 0:
        raise NotNegativeDefiniteError(
            f"e(Y) = {euler} > 0: the canonical plumbing is not negative definite"
        )
    weights = [data.central]
    edges = []
    for r in data.legs:
        s = 1 / r
        m = math.ceil(s)
        weights[0] -= m
        if s == m:
            continue
        previous = 0
        for w in _ncf_coefficients(1 / (s - m)):
            if len(weights) == MAX_GRAM_RANK:
                raise FormatError(
                    f"the plumbing of this Seifert space has more than {MAX_GRAM_RANK} vertices"
                )
            weights.append(w)
            edges.append((previous, len(weights) - 1))
            previous = len(weights) - 1
    tree = PlumbingTree(tuple(weights), tuple(edges))
    if abs(tree.lattice.determinant) != h1_order(data):
        raise ToolkitError(
            f"plumbing determinant {tree.lattice.determinant} does not match |H_1| = {h1_order(data)}"
        )
    return tree


def negative_e8_tree() -> PlumbingTree:
    """The plumbing tree of -2 framings along the E8 graph."""
    return PlumbingTree((-2,) * 8, tuple(E8_EDGES))


@dataclass(frozen=True)
class PoincareAtom:
    """The Poincare homology sphere, possibly orientation-reversed."""

    orientation: int = 1

    def __post_init__(self):
        if type(self.orientation) is not int or self.orientation not in (1, -1):
            raise FormatError(f"Poincare sphere orientation {self.orientation} is not +-1")


@dataclass(frozen=True)
class ExpressionTerm:
    """A summand taken count >= 1 times."""

    count: int
    atom: PoincareAtom | SeifertData

    def __post_init__(self):
        if type(self.count) is not int or self.count < 1:
            raise FormatError(f"multiplicity {self.count} is not a positive int")


@dataclass(frozen=True)
class ConnectedSum:
    terms: tuple[ExpressionTerm, ...]


# ASCII only: str.isdigit() also accepts superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")


class _Parser:
    """Recursive descent over  expr := term ('+' term)*  with
    term := [count '*'] atom  and  atom := 'P' | '-' atom | 'Y(int; rat, ...)'.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExpressionParseError:
        return ExpressionParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected digits")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ExpressionParseError("number has too many digits", start) from None

    def integer(self) -> int:
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self.digits()

    def rational(self) -> Fraction:
        numerator = self.integer()
        self.skip_ws()
        if self.peek() != "/":
            return Fraction(numerator)
        self.pos += 1
        self.skip_ws()
        denominator = self.digits()
        if denominator == 0:
            raise self.error("zero denominator")
        return Fraction(numerator, denominator)

    def atom(self) -> PoincareAtom | SeifertData:
        self.skip_ws()
        flip = False
        while self.peek() == "-":  # a loop: the count of signs is unbounded
            flip = not flip
            self.pos += 1
            self.skip_ws()
        ch = self.peek()
        if ch == "P":
            self.pos += 1
            return PoincareAtom(-1 if flip else 1)
        if ch == "Y":
            self.pos += 1
            self.expect("(")
            central = self.integer()
            self.expect(";")
            legs = [self.rational()]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                legs.append(self.rational())
                self.skip_ws()
            self.expect(")")
            data = SeifertData(central, tuple(legs))
            return reverse_orientation(data) if flip else data
        raise self.error("expected 'P', '-', or 'Y('")

    def term(self) -> ExpressionTerm:
        self.skip_ws()
        count = 1
        if self.peek() in _DIGITS:
            count = self.digits()
            if count == 0:
                raise self.error("multiplicity must be positive")
            self.expect("*")
        return ExpressionTerm(count, self.atom())

    def expression(self) -> ConnectedSum:
        terms = [self.term()]
        self.skip_ws()
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.term())
            self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return ConnectedSum(tuple(terms))


def parse_expression(text: str) -> ConnectedSum:
    """Parse a connected sum expression such as '3*P + Y(2; 15/13, 17/3, 23/22)'."""
    return _Parser(text).expression()

