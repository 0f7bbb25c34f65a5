"""Exact arithmetic over Q and over one real quadratic extension Q(sqrt(d)).

Every coordinate, speed and duration in this package is a :class:`Scalar`,
a value ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed square-free
``d`` shared per :class:`FieldContext`.  All operations are exact: equality
is structural equality of canonical ``(a, b)`` pairs, ordering is decided by
integer sign tests, and no floating point is ever consulted.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]
ScalarLike = Union["Scalar", int, Fraction]


_ZERO = Fraction(0)


class FieldError(ValueError):
    """Mixing scalars from incompatible quadratic extensions."""


class ScalarSyntaxError(ValueError):
    """Malformed scalar literal."""


def square_free_split(n: int) -> tuple[int, int]:
    """Split n >= 0 as n = f*f*r with r square-free; returns (f, r)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return 1, n
    f, r, p = 1, n, 2
    while p * p <= r:
        while r % (p * p) == 0:
            r //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return f, r


@dataclass(frozen=True)
class FieldContext:
    """Selects the extension Q(sqrt(d)).  d is normalized square-free;
    d = 0 (or any perfect square) collapses to plain rationals."""

    d: int = 0

    def __post_init__(self) -> None:
        f, r = square_free_split(self.d)
        object.__setattr__(self, "d", 0 if r <= 1 else r)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def scalar(self, a: RationalLike, b: RationalLike = 0) -> Scalar:
        a, b = Fraction(a), Fraction(b)
        if self.d == 0 and b != 0:
            raise FieldError("irrational part in a rational field context")
        return Scalar(a, b, self.d)

    def zero(self) -> Scalar:
        return Scalar(Fraction(0), Fraction(0), self.d)

    def one(self) -> Scalar:
        return Scalar(Fraction(1), Fraction(0), self.d)

    def sqrt_term(self, coefficient: RationalLike, radicand: int) -> Scalar:
        """coefficient * sqrt(radicand), folding square factors.

        The square-free part of ``radicand`` must match this context (or be
        0/1, which is rational); anything else is a mixed radical.
        """
        f, r = square_free_split(radicand)
        c = Fraction(coefficient)
        if r <= 1:
            return self.scalar(c * f * r)
        if r != self.d:
            raise FieldError(f"sqrt({radicand}) does not live in Q(sqrt({self.d}))")
        return Scalar(Fraction(0), c * f, self.d)

    def parse(self, text: str) -> Scalar:
        return parse_scalar(text, self)


RATIONALS = FieldContext(0)

_RAT_TXT = r"[+-]?\d+(?:/\d+)?"
_RE_RAT = re.compile(rf"^(?P<a>{_RAT_TXT})$")
_RE_SQRT = re.compile(rf"^(?P<b>{_RAT_TXT})\*sqrt\((?P<d>\d+)\)$")
_RE_FULL = re.compile(
    rf"^(?P<a>{_RAT_TXT})(?P<b>[+-]\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)$"
)


def _int(digits: str) -> int:
    """int(digits), also past CPython's cap on int <-> str conversion (4300
    digits by default): longer integers are read through decimal, which has
    no such cap."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _rational_text(q: Fraction) -> str:
    """str(q), also past that cap, through decimal."""
    try:
        return str(q)
    except ValueError:
        n = str(Decimal(q.numerator))
        return n if q.denominator == 1 else f"{n}/{Decimal(q.denominator)}"


def _parse_rational(text: str) -> Fraction:
    """p or p/q, digits already checked by the caller's pattern."""
    num, _, den = text.partition("/")
    try:
        return Fraction(_int(num), _int(den or "1"))
    except ZeroDivisionError:
        raise ScalarSyntaxError(f"division by zero in {text!r}") from None


def parse_scalar(text: str, ctx: FieldContext = RATIONALS) -> Scalar:
    """Parse ``p``, ``p/q`` or ``a+b*sqrt(d)`` (also ``a-b*sqrt(d)``,
    ``b*sqrt(d)``).  Bit-exact inverse of :func:`format_scalar`."""
    s = text.replace(" ", "")
    if not s:
        raise ScalarSyntaxError("empty scalar")
    m = _RE_FULL.match(s)
    if m:
        a = _parse_rational(m.group("a"))
        term = ctx.sqrt_term(_parse_rational(m.group("b")), int(m.group("d")))
        return ctx.scalar(a) + term
    m = _RE_SQRT.match(s)
    if m:
        return ctx.sqrt_term(_parse_rational(m.group("b")), int(m.group("d")))
    m = _RE_RAT.match(s)
    if m:
        return ctx.scalar(_parse_rational(m.group("a")))
    raise ScalarSyntaxError(f"malformed scalar: {text!r}")


def format_scalar(x: Scalar) -> str:
    if x.b == 0:
        return _rational_text(x.a)
    if x.a == 0:
        return f"{_rational_text(x.b)}*sqrt({x.d})"
    sign = "+" if x.b > 0 else "-"
    return f"{_rational_text(x.a)}{sign}{_rational_text(abs(x.b))}*sqrt({x.d})"


def _sign_parts(an: int, ad: int, bn: int, bd: int, d: int) -> int:
    """Exact sign of an/ad + (bn/bd)*sqrt(d) for positive ad and bd, decided
    on integers: when the parts differ in sign, compare an^2*bd^2 with
    bn^2*ad^2*d."""
    sa = (an > 0) - (an < 0)
    sb = (bn > 0) - (bn < 0)
    if not sb:
        return sa
    if not sa or sa == sb:
        return sb
    t = an * an * bd * bd - bn * bn * ad * ad * d
    return sa * ((t > 0) - (t < 0))


class Scalar:
    """Immutable exact value a + b*sqrt(d); totally ordered and hashable.

    Pure rationals (b = 0, d = 0) coerce silently into any extension, so a
    rational time can offset a Q(sqrt(5)) position; two genuinely irrational
    scalars from different extensions refuse to mix.  When both operands are
    rational (b = 0) an operation costs one ``Fraction`` operation, and order
    is decided on integer numerators and denominators without allocating.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int) -> None:
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_D(self, d)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- coercion ---------------------------------------------------------

    def _field(self, other: Scalar) -> int:
        """The d of a result combining self with the scalar other."""
        if other.d == self.d or not other.b:
            return self.d
        if not self.b:
            return other.d
        raise FieldError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")

    def _pair(self, other: ScalarLike) -> tuple[Scalar, int]:
        if type(other) is Scalar and other.d == self.d:
            return other, self.d
        if isinstance(other, numbers.Rational):
            return Scalar(Fraction(other), _ZERO, self.d), self.d
        if not isinstance(other, Scalar):
            return NotImplemented, 0
        return other, self._field(other)

    # -- field operations -------------------------------------------------

    def __add__(self, other: ScalarLike) -> Scalar:
        if type(other) is Scalar and not self.b and not other.b:
            return Scalar(self.a + other.a, _ZERO, self.d)
        o, d = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> Scalar:
        if type(other) is Scalar and not self.b and not other.b:
            return Scalar(self.a - other.a, _ZERO, self.d)
        o, d = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other: ScalarLike) -> Scalar:
        return (-self) + other

    def __neg__(self) -> Scalar:
        b = self.b
        return Scalar(-self.a, -b if b else _ZERO, self.d)

    def __mul__(self, other: ScalarLike) -> Scalar:
        if type(other) is Scalar and not self.b and not other.b:
            return Scalar(self.a * other.a, _ZERO, self.d)
        o, d = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> Scalar:
        if type(other) is Scalar and not self.b and not other.b:
            try:
                return Scalar(self.a / other.a, _ZERO, self.d)
            except ZeroDivisionError:
                raise ZeroDivisionError("scalar division by zero") from None
        o, d = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * d
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(
            (self.a * o.a - self.b * o.b * d) / norm,
            (self.b * o.a - self.a * o.b) / norm,
            d,
        )

    def __rtruediv__(self, other: ScalarLike) -> Scalar:
        o, _ = self._pair(other)
        return o / self

    # -- order ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided on integers (see _sign_parts)."""
        a, b = self.a, self.b
        return _sign_parts(a.numerator, a.denominator, b.numerator, b.denominator, self.d)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Scalar:
            if isinstance(other, numbers.Rational):
                return not self.b and self.a == other
            if not isinstance(other, Scalar):
                return NotImplemented
        if not self.b and not other.b:
            return self.a == other.a
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other: ScalarLike) -> int:
        """Sign of self - other, computed on integers without allocating."""
        a, b = self.a, self.b
        if type(other) is Scalar:
            oa, ob = other.a, other.b
            if not b and not ob:
                x, y = a.numerator * oa.denominator, oa.numerator * a.denominator
                return (x > y) - (x < y)
            d = self._field(other)
        elif isinstance(other, numbers.Rational):
            oa, ob, d = other, _ZERO, self.d
        else:
            return NotImplemented
        ad, oad, bd, obd = a.denominator, oa.denominator, b.denominator, ob.denominator
        return _sign_parts(
            a.numerator * oad - oa.numerator * ad, ad * oad,
            b.numerator * obd - ob.numerator * bd, bd * obd, d,
        )

    def __lt__(self, other: ScalarLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: ScalarLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: ScalarLike) -> bool:
        return self._cmp(other) >= 0

    # -- integer bracketing -----------------------------------------------

    def floor(self) -> int:
        """Largest integer <= value, found without floating point."""
        a, b = self.a, self.b
        if b == 0:
            return a.numerator // a.denominator
        # value * ad*bd = an*bd + bn*ad*sqrt(d), and sqrt(d) is irrational, so
        # |bn*ad*sqrt(d)| lies strictly between r and r + 1
        r = math.isqrt(b.numerator ** 2 * a.denominator ** 2 * self.d)
        num, den = a.numerator * b.denominator, a.denominator * b.denominator
        return (num + r) // den if b > 0 else (num - r - 1) // den

    # -- misc ---------------------------------------------------------------

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)})"


# The slot setters: __init__ writes through them, past the immutability guard.
_SET_A, _SET_B, _SET_D = Scalar.a.__set__, Scalar.b.__set__, Scalar.d.__set__


def as_scalar(value: ScalarLike, ctx: FieldContext) -> Scalar:
    if isinstance(value, Scalar):
        if value.d == ctx.d or value.b == 0:
            return Scalar(value.a, value.b, ctx.d) if value.b == 0 else value
        raise FieldError(f"scalar from sqrt({value.d}) used in Q(sqrt({ctx.d}))")
    return ctx.scalar(value)


def is_commensurate(x: Scalar, y: Scalar) -> bool:
    """True iff x/y is a plain rational.  Requires y != 0."""
    if y.sign() == 0:
        raise ZeroDivisionError("commensurability against zero")
    return (x / y).b == 0


class IncommensurateError(ValueError):
    """gcd requested for values with an irrational ratio."""


def rational_gcd(x: Scalar, y: Scalar) -> Scalar:
    """Greatest positive scalar dividing both x and y with integer quotients.

    Defined only for commensurate positive inputs: with x/y = p/q in lowest
    terms the answer is y/q (for rationals p1/q1, p2/q2 this is
    gcd(p1*q2, p2*q1)/(q1*q2)).
    """
    if x.sign() <= 0 or y.sign() <= 0:
        raise ValueError("gcd needs strictly positive inputs")
    ratio = x / y
    if ratio.b != 0:
        raise IncommensurateError("no common divisor: ratio is irrational")
    return y / ratio.a.denominator


def floor_div_mod(a: Scalar, b: Scalar) -> tuple[int, Scalar]:
    """Euclidean division: a = b*n + r with 0 <= r < b.  Requires b > 0."""
    if b.sign() <= 0:
        raise ValueError("divisor must be strictly positive")
    n = (a / b).floor()
    r = a - b * n
    return n, r


def euclid_trace(
    a: Scalar, b: Scalar, max_steps: int = 64
) -> list[tuple[Scalar, Scalar, int, Scalar]]:
    """Successive (a_n, b_n, q_n, r_n) of the subtractive gcd recursion,
    stopping at a zero remainder or after max_steps.

    This is the reference, non-geometric recursion; the signal-machine runs
    are checked against it.
    """
    if not (a >= b and b.sign() > 0):
        raise ValueError("need a >= b > 0")
    steps: list[tuple[Scalar, Scalar, int, Scalar]] = []
    while len(steps) < max_steps:
        q, r = floor_div_mod(a, b)
        steps.append((a, b, q, r))
        if r.sign() == 0:
            break
        a, b = b, r
    return steps
