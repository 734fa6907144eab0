"""Continued fractions, convergents, and Ostrowski numeration.

Conventions used throughout the package:

* expansions are written x = [a0; a1, a2, ...] with a_l >= 1 for l >= 1;
* finite expansions are kept in the canonical shorter form (last quotient > 1),
  which is what the Euclidean algorithm produces;
* convergents p_l/q_l follow q_{l+1} = a_{l+1} q_l + q_{l-1} with the seed
  rows (p_{-1}, q_{-1}) = (1, 0) and (p_0, q_0) = (a0, 1);
* theta_l = q_l x - p_l, so sign(theta_l) = (-1)^l and |theta_l| = ||q_l x||
  for l >= 1 (at l = 0 the identity needs a_1 >= 2).

Irrational targets are handled through exact rational truncations: a table of
depth D computes every real quantity from the truncation [a0; a1..a_{D+G}]
with G = GUARD_DEPTH, so all stored values are exact rationals of a
well-defined object and the three-term recursions hold exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import PrecondError

GUARD_DEPTH = 8


def _euclid_digits(num: int, den: int) -> tuple[int, list[int]]:
    """Partial quotients of num/den (den > 0) by the Euclidean algorithm."""
    a0, num = divmod(num, den)
    digits = []
    p, q = den, num
    while q:
        a, rem = divmod(p, q)
        digits.append(a)
        p, q = q, rem
    return a0, digits


class CFExpansion:
    """A continued-fraction expansion, finite or infinite.

    A finite expansion stores its digits; an infinite one stores a 1-indexed
    digit rule ell -> a_ell, whether eventually periodic (built by
    _periodic) or not (the e-2 preset). Instances are immutable.
    """

    def __init__(
        self,
        a0: int,
        digits: Sequence[int] | None = None,
        *,
        digit_fn: Callable[[int], int] | None = None,
    ):
        self.a0 = int(a0)
        self._digits: tuple[int, ...] | None = None
        self._fn = digit_fn
        if digit_fn is not None:
            if digits is not None:
                raise PrecondError("give exactly one digit source")
        else:
            self._digits = tuple(int(d) for d in (digits or ()))
            if any(d < 1 for d in self._digits):
                raise PrecondError("partial quotients must be >= 1")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_partial_quotients(
        cls, a0: int, digits: Sequence[int], canonical: bool = False
    ) -> "CFExpansion":
        """Finite expansion from literal digits; optionally canonicalize."""
        digits = list(digits)
        if canonical:
            while digits and digits[-1] == 1:
                digits.pop()
                if digits:
                    digits[-1] += 1
                else:
                    a0 += 1
        return cls(a0, digits)

    @classmethod
    def _from_checked(cls, a0: int, digits: tuple[int, ...]) -> "CFExpansion":
        """Finite expansion from digits already known to be ints >= 1."""
        cf = cls.__new__(cls)
        cf.a0, cf._digits, cf._fn = a0, digits, None
        return cf

    @classmethod
    def preset(cls, name: str) -> "CFExpansion":
        try:
            return _PRESETS[name]()
        except KeyError:
            raise PrecondError(f"unknown preset {name!r}") from None

    # -- basic queries --------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._digits is not None

    @property
    def L(self) -> int | None:
        """Number of partial quotients after a0, or None if infinite."""
        return len(self._digits) if self._digits is not None else None

    def partial(self, ell: int) -> int:
        """a_ell for ell >= 1."""
        if ell < 1:
            raise PrecondError("partial quotients are 1-indexed")
        if self._digits is not None:
            if ell > len(self._digits):
                raise PrecondError(f"expansion has only {len(self._digits)} quotients")
            return self._digits[ell - 1]
        a = int(self._fn(ell))
        if a < 1:
            raise PrecondError(f"digit rule produced a_{ell} = {a} < 1")
        return a

    def partials(self, upto: int) -> list[int]:
        if self._digits is not None and 0 <= upto <= len(self._digits):
            return list(self._digits[:upto])
        return [self.partial(ell) for ell in range(1, upto + 1)]

    def value(self) -> Fraction:
        """Exact value; finite expansions only."""
        if self._digits is None:
            raise PrecondError("value() requires a finite expansion")
        return self.truncation(len(self._digits))

    def truncation(self, depth: int) -> Fraction:
        """Exact value of [a0; a1..a_depth]."""
        x = Fraction(0)
        for a in reversed(self.partials(depth)):
            x = Fraction(1, a + x)
        return self.a0 + x

    def tail(self) -> "CFExpansion":
        """The shifted expansion [0; a2, a3, ...], the fractional part of 1/x for
        x = [0; a1, a2, ...]; requires a0 = 0, L >= 1."""
        if self.a0 != 0:
            raise PrecondError("tail() requires a0 = 0")
        if self._digits is not None:
            if not self._digits:
                raise PrecondError("tail() of an integer")
            return CFExpansion(0, self._digits[1:])
        fn = self._fn
        return CFExpansion(0, digit_fn=lambda ell: fn(ell + 1))

    def __repr__(self) -> str:
        if self._digits is not None:
            body = ",".join(str(d) for d in self._digits)
            return f"[{self.a0};{body}]" if body else f"[{self.a0}]"
        head = ",".join(str(d) for d in self.partials(6))
        return f"[{self.a0};{head},...]"


def _e_minus_2_digit(ell: int) -> int:
    # pattern 1, 2, 1, 1, 4, 1, 1, 6, ... : a_l = 2(l+1)/3 when l = 2 mod 3
    return 2 * (ell + 1) // 3 if ell % 3 == 2 else 1


def _periodic(pre: Sequence[int], period: Sequence[int]) -> CFExpansion:
    """[0; pre, period, period, ...] as a digit rule."""
    pre, period = tuple(pre), tuple(period)
    if not period:
        raise PrecondError("empty period")
    n, m = len(pre), len(period)
    return CFExpansion(
        0, digit_fn=lambda ell: pre[ell - 1] if ell <= n else period[(ell - 1 - n) % m]
    )


_PRESETS: dict[str, Callable[[], CFExpansion]] = {
    "golden": lambda: _periodic((), (1,)),
    "sqrt2inv": lambda: _periodic((1,), (2,)),
    "e-2": lambda: CFExpansion(0, digit_fn=_e_minus_2_digit),
}

_CF_LITERAL = re.compile(r"^cf:(?P<digits>[\d,]*?)(~period:(?P<period>[\d,]+))?$")


def cf_expand(r: Fraction | int) -> CFExpansion:
    """Canonical expansion of a rational (Euclidean algorithm)."""
    r = Fraction(r)
    a0, digits = _euclid_digits(r.numerator, r.denominator)
    return CFExpansion._from_checked(a0, tuple(digits))


def parse_alpha(text: str) -> CFExpansion:
    """Parse "p/q", an integer, a decimal, "cf:a1,a2,...", "cf:...~period:...",
    or a named preset into an expansion."""
    text = text.strip()
    if text in _PRESETS:
        return CFExpansion.preset(text)
    m = _CF_LITERAL.match(text)
    if m:
        digits = [int(d) for d in m.group("digits").split(",") if d]
        if not digits and not m.group("period"):
            raise PrecondError(f"empty cf literal {text!r}")
        if any(d < 1 for d in digits):
            raise PrecondError("cf literal digits must be >= 1")
        if m.group("period"):
            period = [int(d) for d in m.group("period").split(",") if d]
            if any(d < 1 for d in period):
                raise PrecondError("cf period digits must be >= 1")
            return _periodic(digits, period)
        return CFExpansion.from_partial_quotients(0, digits, canonical=True)
    try:
        return cf_expand(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise PrecondError(f"cannot parse {text!r} as a rational or preset") from None


class ConvergentTable:
    """Convergents p_l/q_l, exact theta_l, and digit access for one target.

    Immutable after construction. For an infinite expansion the table is the
    exact table of the truncation at depth + GUARD_DEPTH; for a finite
    expansion it is exact for the value itself and depth may not exceed L.
    """

    def __init__(self, cf: CFExpansion, depth: int):
        if depth < 0:
            raise PrecondError("depth must be >= 0")
        if cf.is_finite and depth > cf.L:
            raise PrecondError(f"depth {depth} exceeds finite length L={cf.L}")
        self.cf = cf
        self.depth = depth

        # the exact reference value: the rational itself, or the truncation
        # at depth + GUARD_DEPTH for an infinite expansion
        ref_depth = cf.L if cf.is_finite else depth + GUARD_DEPTH
        digits = cf.partials(ref_depth)
        # rows l = -1 .. ref_depth, stored with offset +1
        p = [1, cf.a0]
        q = [0, 1]
        for a in digits:
            p.append(a * p[-1] + p[-2])
            q.append(a * q[-1] + q[-2])
        self._a = digits
        self._p = p
        self._q = q
        self.alpha_exact = Fraction(p[ref_depth + 1], q[ref_depth + 1])

        num, den = self.alpha_exact.numerator, self.alpha_exact.denominator
        self._theta = [
            Fraction(q[l + 1] * num - p[l + 1] * den, den) for l in range(-1, depth + 1)
        ]

    # -- row access (ell >= -1 everywhere) ------------------------------------

    def partial(self, ell: int) -> int:
        """a_ell, delegated to the expansion (cached rows preferred)."""
        if 1 <= ell <= len(self._a):
            return self._a[ell - 1]
        return self.cf.partial(ell)

    def p(self, ell: int) -> int:
        if not -1 <= ell <= self.depth:
            raise PrecondError(f"row {ell} outside table")
        return self._p[ell + 1]

    def q(self, ell: int) -> int:
        if not -1 <= ell <= self.depth:
            raise PrecondError(f"row {ell} outside table")
        return self._q[ell + 1]

    def theta(self, ell: int) -> Fraction:
        """q_ell * alpha - p_ell, exact (alpha = truncation for infinite cf)."""
        if not -1 <= ell <= self.depth:
            raise PrecondError(f"row {ell} outside table")
        return self._theta[ell + 1]

    def dist(self, ell: int) -> Fraction:
        """|theta_ell|; equals ||q_ell alpha|| for ell >= 1."""
        return abs(self.theta(ell))

    def __repr__(self) -> str:
        return f"ConvergentTable({self.cf!r}, depth={self.depth})"


def convergents(cf: CFExpansion, upto: int) -> ConvergentTable:
    """Build the convergent table for rows 0..upto."""
    return ConvergentTable(cf, upto)


class OstrowskiRep:
    """Digit vector (b_0, ..., b_{K-1}) of N = sum b_l q_l for one table."""

    __slots__ = ("digits", "table", "_value")

    def __init__(self, digits: Sequence[int], table: ConvergentTable):
        self.digits = tuple(int(b) for b in digits)
        self.table = table
        self._validate()
        self._value = sum(b * table.q(l) for l, b in enumerate(self.digits))

    def _validate(self) -> None:
        K = len(self.digits)
        if K > self.table.depth:
            raise PrecondError("digit vector longer than table depth")
        for l, b in enumerate(self.digits):
            if b < 0:
                raise PrecondError(f"negative digit b_{l}")
            amax = self.table.partial(l + 1)
            if l == 0:
                if b > amax - 1:
                    raise PrecondError(f"b_0 = {b} must be < a_1 = {amax}")
            elif b > amax:
                raise PrecondError(f"b_{l} = {b} exceeds a_{l + 1} = {amax}")
            if b > 0 and l + 1 < K:
                up = self.digits[l + 1]
                if l + 2 <= self.table.depth and up == self.table.partial(l + 2):
                    raise PrecondError(
                        f"b_{l} must vanish because b_{l + 1} = a_{l + 2}"
                    )

    def value(self) -> int:
        return self._value

    def digit(self, ell: int) -> int:
        """b_ell, with zeros beyond the stored vector."""
        return self.digits[ell] if 0 <= ell < len(self.digits) else 0

    def __repr__(self) -> str:
        return f"OstrowskiRep({self.digits})"


def ostrowski_encode(N: int, table: ConvergentTable) -> OstrowskiRep:
    """Greedy digits of N with respect to the table; requires 0 <= N < q_depth."""
    if table.depth < 1:
        raise PrecondError("table depth must be >= 1 to encode")
    if not 0 <= N < table.q(table.depth):
        raise PrecondError(f"N = {N} outside [0, q_{table.depth})")
    digits = [0] * table.depth
    rem = N
    for l in range(table.depth - 1, -1, -1):
        digits[l], rem = divmod(rem, table.q(l))
    return OstrowskiRep(digits, table)


def ostrowski_digits(table: ConvergentTable, n: int) -> np.ndarray:
    """Greedy digits of every N < n at once: row l of the (depth, n) result is b_l(N).

    Column N equals ostrowski_encode(N, table).digits; requires
    0 <= n <= min(q_depth, 2^31).  The digits are int32, half the memory of
    int64, and levels with q_l >= n hold only zeros.
    """
    if table.depth < 1:
        raise PrecondError("table depth must be >= 1 to encode")
    if not 0 <= n <= min(table.q(table.depth), 2**31):
        raise PrecondError(f"n = {n} outside [0, min(q_{table.depth}, 2^31)]")
    digits = np.zeros((table.depth, n), dtype=np.int32)
    rem = np.arange(n, dtype=np.int32)
    for l in range(table.depth - 1, -1, -1):
        if table.q(l) < n:
            np.divmod(rem, table.q(l), out=(digits[l], rem))
    return digits


def interval_Ik(cf: CFExpansion, k: int) -> tuple[Fraction, Fraction]:
    """Endpoints of I_{k+1}: the reals whose expansion starts [0; a1..a_{k+1}].

    Returns (lo, hi) with lo < hi; the endpoints are p_{k+1}/q_{k+1} and
    (p_{k+1} + p_k)/(q_{k+1} + q_k).
    """
    if cf.a0 != 0:
        raise PrecondError("interval_Ik requires a0 = 0")
    t = ConvergentTable(cf, k + 1)
    e1 = Fraction(t.p(k + 1), t.q(k + 1))
    e2 = Fraction(t.p(k + 1) + t.p(k), t.q(k + 1) + t.q(k))
    return (e1, e2) if e1 < e2 else (e2, e1)


def rationals_in_interval(lo: Fraction, hi: Fraction, qmax: int) -> Iterator[Fraction]:
    """Reduced fractions in [lo, hi] with denominator <= qmax, ascending.

    Stern-Brocot descent over the tree on (0/1, 1/1); requires
    0 <= lo < hi <= 1. Subtrees whose span misses [lo, hi] are pruned, so the
    cost is (boundary path) + (emitted points).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise PrecondError("need 0 <= lo < hi <= 1")
    if qmax < 1:
        raise PrecondError("qmax must be >= 1")
    lon, lod = lo.numerator, lo.denominator
    hin, hid = hi.numerator, hi.denominator
    if lon == 0:
        yield lo
    # in-order traversal, explicit stack; nodes are (a, b, c, d, emit_phase)
    stack = [(0, 1, 1, 1, False)]
    while stack:
        a, b, c, d, emit = stack.pop()
        if emit:
            m_num, m_den = a + c, b + d
            if lon * m_den <= m_num * lod and m_num * hid <= hin * m_den:
                yield Fraction(m_num, m_den)
            continue
        m_num, m_den = a + c, b + d
        if m_den > qmax:
            continue
        # subtree spans the open interval (a/b, c/d)
        if a * hid >= hin * b or c * lod <= lon * d:
            continue
        stack.append((m_num, m_den, c, d, False))
        stack.append((a, b, c, d, True))
        stack.append((a, b, m_num, m_den, False))
    if hin == hid:
        yield hi
