"""Interaction-quality criteria between a query vector and an associator.

Three equivalent views of the same idea, each cheaper than the last:

* :func:`quality_arith`  -- normalized rational score in [0,1] on ternary
  vectors: mean of a coordinate-match ratio and two membership ratios
  (higher is better, 1 means equal). :func:`arith_keys` orders rows by
  it with one exact int per row, so a table is ranked without Fractions:
  n - e for a row with e >= 1 empty coordinates, else
  n + 2^(n-xa+cx) + 2^(n-xm+cx) from the x counts of A, m and their
  meet (derived in its docstring). :func:`code_keys` computes them on
  rows held as 2n-bit codes. The table search (:mod:`lamp.assoc`) ranks
  rows without keys, by their counts: e, then, where e = 0, the smaller
  and the larger of xa - cx and xm - cx, which the keys order alike.
* :func:`criterion_arith` -- integer sum of a Hamming term and two
  non-membership counts on binary vectors (lower is better, 0 means
  equal).
* :func:`quality_index` -- the quality index k = popcount(m XOR a), one
  XOR and one population count. :func:`criterion_vector` is its
  explained form: three logic vectors whose OR marks every coordinate of
  degraded interaction, compacted with ``sls`` into a comparable index.
  On binary vectors that OR is exactly m XOR a (acceptance criterion 4).

:func:`decide` is the paper's selection between two compacted quality
vectors, an and/xor/or-fold with no comparison arithmetic; the grid
machine's built-in query runs it, and :func:`choose_best` wraps it for
:class:`BitVector` inputs. On binary rows :func:`arith_keys` orders the
rows exactly as the fold does, by k; the table search counts k for
every row at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitvec import BitVector, sls, vand, vnot, vor, vxor
from .errors import LengthMismatch, NotCompacted
from .ternary import TernaryVector, low_bits, card_x, empty_coord_count, intersect


@dataclass(frozen=True)
class QualityScoreNorm:
    """Normalized score: value = (d + mu_m_in_a + mu_a_in_m) / 3, exact."""

    value: Fraction
    d: Fraction
    mu_m_in_a: Fraction
    mu_a_in_m: Fraction


@dataclass(frozen=True)
class QualityScoreInt:
    """Integer score: value = d_card + both non-membership counts."""

    value: int
    d_card: int
    nonmembership_m_in_a: int
    nonmembership_a_in_m: int


@dataclass(frozen=True)
class QualityVector:
    """The vector form: component vectors, their OR, and its compaction."""

    d_vec: BitVector
    mu_m_in_a_vec: BitVector
    mu_a_in_m_vec: BitVector
    q_vec: BitVector
    q_compacted: BitVector


@dataclass(frozen=True)
class QualityIndex:
    """Ones count k of the compacted quality vector over width n.

    Smaller k means better interaction; k == 0 means the vectors match.
    """

    k: int
    n: int


def quality_arith(m: TernaryVector, a: TernaryVector) -> QualityScoreNorm:
    """Normalized interaction quality of two ternary vectors.

    d is the fraction of coordinates whose meet is nonempty. Each
    membership ratio is the share of one cube's points covered by the
    intersection cube, a power of two; an empty intersection has no
    common points, so both memberships drop to 0.
    """
    if m.n != a.n:
        raise LengthMismatch(f"widths differ: {m.n} vs {a.n}")
    empty = empty_coord_count(m, a)
    if empty:
        return _score_norm(m.n, empty, 0, 0)
    cx = card_x(intersect(m, a).to_ternary())
    return _score_norm(m.n, 0, card_x(a) - cx, card_x(m) - cx)


def _score_norm(n: int, e: int, da: int, dm: int) -> QualityScoreNorm:
    """The score of a row with e empty coordinates of n; when e = 0, the
    meet covers 2^-da of the row's points and 2^-dm of the query's."""
    d = Fraction(n - e, n)
    if e:
        mu_m_in_a = mu_a_in_m = Fraction(0)
    else:
        mu_m_in_a = Fraction(1, 2**da)
        mu_a_in_m = Fraction(1, 2**dm)
    return QualityScoreNorm((d + mu_m_in_a + mu_a_in_m) / 3, d, mu_m_in_a, mu_a_in_m)


def arith_keys(m: TernaryVector, rows) -> list[int]:
    """One int per row, ordered and tied exactly as ``quality_arith(m, a).value``.

    With e the row's empty coordinates, Q = (d + mu_m_in_a + mu_a_in_m)/3:

    * e >= 1: both memberships are 0 and Q = (n - e)/3n < 1/3, so the
      key is n - e, in 0..n-1;
    * e = 0: with cx, xa and xm the x counts of m AND a, of a and of m,
      Q = (1 + 2^-(xa-cx) + 2^-(xm-cx))/3 > 1/3. The key is
      n + 2^(n-xa+cx) + 2^(n-xm+cx), that is n plus the two memberships
      scaled by 2^n: at least n + 2, so it beats every row with e >= 1.

    The keys are :func:`code_keys` of the rows' 2n-bit codes.
    """
    for a in rows:
        if a.n != m.n:
            raise LengthMismatch(f"widths differ: {m.n} vs {a.n}")
    return code_keys(m, [a.enc.value for a in rows])


def code_keys(m: TernaryVector, codes: list[int]) -> list[int]:
    """:func:`arith_keys` of rows given as n-symbol codes.

    Every count is a popcount of a mask over the codes, the meet's read
    off ``m & a``: its 00 pairs are the empty coordinates, and the 11
    pairs of any code are its x symbols.
    """
    n = m.n
    mv = m.enc.value
    low = low_bits(n)
    xm = (mv & mv >> 1 & low).bit_count()
    keys = []
    for av in codes:
        meet = mv & av
        e = (~(meet | meet >> 1) & low).bit_count()
        if e:
            keys.append(n - e)
        else:
            cx = (meet & meet >> 1 & low).bit_count()
            xa = (av & av >> 1 & low).bit_count()
            keys.append(n + (1 << n - xa + cx) + (1 << n - xm + cx))
    return keys


def criterion_arith(m: BitVector, a: BitVector) -> QualityScoreInt:
    """Integer interaction criterion on binary vectors, 0 iff equal."""
    common = vand(m, a).ones_count()
    d_card = vxor(m, a).ones_count()
    non_m_in_a = a.ones_count() - common
    non_a_in_m = m.ones_count() - common
    return QualityScoreInt(
        d_card + non_m_in_a + non_a_in_m, d_card, non_m_in_a, non_a_in_m
    )


def criterion_vector(m: BitVector, a: BitVector) -> QualityVector:
    """Pure-logic criterion: every part is a vector, never a number.

    The membership vectors mask each input with the complement of the
    shared conjunction, so a 1 marks a coordinate where that input
    sticks out of the overlap.
    """
    shared = vand(m, a)
    d_vec = vxor(m, a)
    mu_m_in_a_vec = vand(a, vnot(shared))
    mu_a_in_m_vec = vand(m, vnot(shared))
    q_vec = vor(d_vec, vor(mu_m_in_a_vec, mu_a_in_m_vec))
    return QualityVector(d_vec, mu_m_in_a_vec, mu_a_in_m_vec, q_vec, sls(q_vec))


def quality_index(m: BitVector, a: BitVector) -> QualityIndex:
    """k = popcount(m XOR a) over width n; smaller k is better.

    The ones of :func:`criterion_vector`'s quality vector are exactly the
    ones of m XOR a (acceptance criterion 4), so k is counted directly.
    """
    return QualityIndex(vxor(m, a).ones_count(), m.n)


def decide(q1: int, q2: int) -> int:
    """orf((q1 AND q2) XOR q1) on compacted quality vectors held as ints.

    Zero exactly when q1's ones are a subset of q2's, i.e. q1 is at
    least as good; one when q2 is strictly better.
    """
    return 1 if (q1 & q2) ^ q1 else 0


def choose_best(q1: BitVector, q2: BitVector) -> tuple[BitVector, int]:
    """Pick the better of two compacted quality vectors.

    Returns (winner, flag) with flag = :func:`decide`; equal inputs keep
    q1. Inputs must already be prefix vectors.
    """
    if q1.n != q2.n:
        raise LengthMismatch(f"widths differ: {q1.n} vs {q2.n}")
    for name, q in (("q1", q1), ("q2", q2)):
        if not q.is_prefix():
            raise NotCompacted(f"{name} = {q.to01()} is not a compacted vector")
    flag = decide(q1.value, q2.value)
    return (q1 if flag == 0 else q2), flag
