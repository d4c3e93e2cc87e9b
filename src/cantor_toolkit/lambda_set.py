"""Geometric construction of the parameter set: admissible words, basic
intervals and depth-n covers.

The parameter set of a point x is a Cantor set inside the hull
[x/(m-1+x), 1/m].  Codings of its members are exactly the digit streams
lexicographically >= the greedy stream of x.  That stream never ends in a
constant (m-1) tail, so a length-n word is admissible iff n reaches the
first defect and the word, as a tuple, is >= the greedy n-prefix; the
associated basic interval collects the parameters whose coding starts with
the word.  Enumeration grows those tuples level by level instead of
scanning all m^n words.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rat import Q, to_alphabet, to_int, to_point, to_rational
from .coding import GreedyExpansion
from .errors import DomainError, NotAdmissibleError
from .exact_arith import Bracket, Code, _grid, _hull, resolve_tol, separate_brackets


@dataclass(frozen=True)
class BasicInterval:
    """Closed parameter interval [p, q] of codings starting with `word`.

    The left endpoint solves the (m-1)-tail completion, the right the
    0-tail completion; both are certified brackets.  On the greedy spine of
    a point whose expansion has not terminated, the 0-tail completion has
    no root and the right endpoint is the exact hull maximum 1/m.
    """

    word: tuple[int, ...]
    left: Bracket
    right: Bracket

    @property
    def width_lo(self) -> Q:
        return self.right.lo - self.left.hi

    @property
    def width_hi(self) -> Q:
        return self.right.hi - self.left.lo


@dataclass(frozen=True)
class CoverLevel:
    """All depth-n basic intervals of one parameter set, plus their gaps.

    `gaps[i]` holds the certified endpoint brackets (right of interval i,
    left of interval i+1); the open interval strictly between the two
    bracket enclosures contains no parameter of the set.
    """

    x: Q
    m: int
    depth: int
    intervals: tuple[BasicInterval, ...]
    gaps: tuple[tuple[Bracket, Bracket], ...]
    hull: tuple[Q, Q]


def hull_of(x, m: int) -> tuple[Q, Q]:
    """Exact convex hull [x/(m-1+x), 1/m] of the parameter set."""
    return _hull(to_point(x, "x"), to_alphabet(m))


def _word_tuple(m: int, word) -> tuple[int, ...]:
    """`word` as a tuple of ints in 0..m-1, checked by `Code` (so floats
    and strings raise DomainError instead of being truncated)."""
    return Code(m, tuple(word)).prefix


def is_admissible(x, m: int, word) -> bool:
    """A word can begin a coding iff it is >= the greedy prefix of its
    length; words shorter than the first defect are excluded as degenerate
    (their interval is the whole hull)."""
    ge = GreedyExpansion(x, m)
    word = _word_tuple(m, word)
    return len(word) >= ge.first_defect and word >= ge.prefix(len(word))


def admissible_words(x, m: int, n: int) -> list[tuple[int, ...]]:
    """All admissible words of length n, lexicographically ascending."""
    n = to_int(n, "n")
    if n < 1:
        raise DomainError("n must be >= 1")
    ge = GreedyExpansion(x, m)
    return _admissible(ge, n) if n >= ge.first_defect else []


def _admissible(ge: GreedyExpansion, n: int) -> list[tuple[int, ...]]:
    """The length-n words >= the greedy n-prefix, ascending.

    The first word of each level is the greedy prefix itself; only its
    children are cut below the next greedy digit, every other word keeps
    all m.
    """
    m = ge.m
    level = [()]
    for i in range(1, n + 1):
        spine, rest = level[0], level[1:]
        level = [spine + (d,) for d in range(ge.digit(i), m)]
        level += [w + (d,) for w in rest for d in range(m)]
    return level


def basic_interval(x, m: int, word, tol=None) -> BasicInterval:
    """The basic interval of an admissible word (NotAdmissibleError otherwise):
    its ends solve the word's max-tail and zero-tail completions."""
    word = _word_tuple(m, word)
    if not is_admissible(x, m, word):
        raise NotAdmissibleError(
            "word %r cannot begin a coding of %s over m=%d" % ("".join(map(str, word)), x, m)
        )
    grid = _grid(to_point(x, "x"), to_alphabet(m), resolve_tol(tol))
    return BasicInterval(word, *grid.endpoints(word))


def cover(x, m: int, depth: int, tol=None) -> CoverLevel:
    """The depth-n cover of the parameter set: disjoint sorted intervals + gaps.

    Rebuilt on each call from cached roots; callers that reuse a level keep
    the returned CoverLevel.
    """
    x = to_rational(x)
    tol = resolve_tol(tol)
    depth = to_int(depth, "depth")
    ge = GreedyExpansion(x, m)
    m = ge.m
    ell = ge.first_defect
    if depth < ell:
        raise DomainError(
            "cover depth %d is below the first defect level %d" % (depth, ell)
        )
    grid = _grid(x, m, tol)
    # ascending parameter order is descending word order
    intervals = [BasicInterval(w, *grid.endpoints(w)) for w in reversed(_admissible(ge, depth))]
    intervals, gaps = _separate_adjacent(intervals)
    return CoverLevel(
        x=x,
        m=m,
        depth=depth,
        intervals=tuple(intervals),
        gaps=tuple(gaps),
        hull=grid.hull,
    )


def cover_sequence(x, m: int, depth: int, tol=None) -> list[CoverLevel]:
    """Covers for every level from the first defect through `depth`."""
    x = to_rational(x)
    depth = to_int(depth, "depth")
    ell = GreedyExpansion(x, m).first_defect
    # below the first defect the one level asked for is `cover`'s refusal
    return [cover(x, m, n, tol) for n in range(min(ell, depth), depth + 1)]


def _separate_adjacent(intervals):
    """Refine endpoints until consecutive intervals are strictly disjoint,
    so every reported gap is certified nonempty."""
    out = list(intervals)
    gaps = []
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        ra, lb = separate_brackets(a.right, b.left)
        if ra is not a.right:
            out[i] = BasicInterval(a.word, a.left, ra)
        if lb is not b.left:
            out[i + 1] = BasicInterval(b.word, lb, b.right)
        gaps.append((ra, lb))
    return out, gaps
