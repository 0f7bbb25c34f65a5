"""Exact arithmetic over Q and over one real quadratic extension Q(sqrt(d)).

Every coordinate, speed and duration in this package is a :class:`Scalar`,
a value ``(p + q*sqrt(d))/n`` held as integers in lowest terms with a fixed
square-free ``d`` shared per :class:`FieldContext`.  All operations are
exact: each operator is one integer formula reduced by one gcd, equality
compares the reduced integers, ordering is decided by integer sign tests,
and no floating point is ever consulted.  Two fused kernels, `affine` and
`scaled_difference`, each compute a chain of two operators with one final
reduction and give the chain's very integers.  The scheduler passes them
`den_lcm`, a number divisible by every prime its denominators can have,
with which a reduction that would divide by 1 is proved so by a gcd on
small integers.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]
ScalarLike = Union["Scalar", int, Fraction]


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


def _ratio(x: RationalLike) -> tuple[int, int]:
    """x as (numerator, denominator); a float would enter already rounded."""
    if isinstance(x, str):
        x = Fraction(x)
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"scalar parts are int, Fraction or str, not {type(x).__name__}")
    return x.numerator, x.denominator


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
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        if self.d == 0 and bn != 0:
            raise FieldError("irrational part in a rational field context")
        return _scalar(an * bd, bn * ad, ad * bd, self.d)

    def zero(self) -> Scalar:
        return _scalar(0, 0, 1, self.d, 1)

    def one(self) -> Scalar:
        return _scalar(1, 0, 1, self.d, 1)

    def sqrt_term(self, coefficient: RationalLike, radicand: int) -> Scalar:
        """coefficient * sqrt(radicand), folding square factors.

        The square-free part of ``radicand`` must match this context (or be
        0/1, which is rational); anything else is a mixed radical.
        """
        f, r = square_free_split(radicand)
        if r <= 1:
            return self.scalar(coefficient) * (f * r)
        if r != self.d:
            raise FieldError(f"sqrt({radicand}) does not live in Q(sqrt({self.d}))")
        return self.scalar(0, coefficient) * f

    def parse(self, text: str) -> Scalar:
        return parse_scalar(text, self)


RATIONALS = FieldContext(0)

_RAT_TXT = r"[+-]?\d+(?:/\d+)?"
_RE_RAT = re.compile(rf"^(?P<a>{_RAT_TXT})$")
_RE_SQRT = re.compile(rf"^(?P<b>{_RAT_TXT})\*sqrt\((?P<d>\d+)\)$")
_RE_FULL = re.compile(rf"^(?P<a>{_RAT_TXT})(?P<b>[+-]\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)$")
_RE_SPLIT_DIGITS = re.compile(r"\d\s+\d")


def _int(digits: str) -> int:
    """int(digits), also past CPython's cap on int <-> str conversion (4300
    digits by default): longer integers are read through decimal."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _rational_text(num: int, den: int) -> str:
    """num/den, given in lowest terms, as ``p`` or ``p/q``, also past that
    cap, through decimal."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def _parse_rational(text: str) -> Fraction:
    """p or p/q, digits already checked by the caller's pattern."""
    num, _, den = text.partition("/")
    try:
        return Fraction(_int(num), _int(den or "1"))
    except ZeroDivisionError:
        raise ScalarSyntaxError(f"division by zero in {text!r}") from None


def parse_scalar(text: str, ctx: FieldContext = RATIONALS) -> Scalar:
    """Parse ``p``, ``p/q`` or ``a+b*sqrt(d)`` (also ``a-b*sqrt(d)``,
    ``b*sqrt(d)``), with spaces allowed around signs and operators but not
    between two digits.  Bit-exact inverse of :func:`format_scalar`."""
    if _RE_SPLIT_DIGITS.search(text):
        raise ScalarSyntaxError(f"malformed scalar: {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ScalarSyntaxError("empty scalar")
    m = _RE_FULL.match(s)
    if m:
        term = ctx.sqrt_term(_parse_rational(m.group("b")), int(m.group("d")))
        return ctx.scalar(_parse_rational(m.group("a"))) + term
    m = _RE_SQRT.match(s)
    if m:
        return ctx.sqrt_term(_parse_rational(m.group("b")), int(m.group("d")))
    m = _RE_RAT.match(s)
    if m:
        return ctx.scalar(_parse_rational(m.group("a")))
    raise ScalarSyntaxError(f"malformed scalar: {text!r}")


def format_scalar(x: Scalar) -> str:
    p, q, n = x.p, x.q, x.n
    if not q:
        return _rational_text(p, n)
    g, h = math.gcd(p, n), math.gcd(q, n)
    root = f"{_rational_text(q // h, n // h)}*sqrt({x.d})"
    return f"{_rational_text(p // g, n // g)}{'+' if q > 0 else ''}{root}" if p else root


def _sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d), decided on integers: when the terms
    differ in sign, compare p^2 with q^2*d."""
    sp = (p > 0) - (p < 0)
    if not q:
        return sp
    sq = 1 if q > 0 else -1
    if not sp or sp == sq:
        return sq
    t = p * p - q * q * d
    return sp * ((t > 0) - (t < 0))


def _rational_hash(p: int, n: int) -> int:
    """hash(Fraction(p, n)) for p/n in lowest terms, without building it."""
    if n == 1:
        return hash(p)
    m = sys.hash_info.modulus  # n has no inverse when it is a multiple of m
    h = hash(hash(abs(p)) * pow(n, -1, m)) if n % m else sys.hash_info.inf
    return h if p >= 0 else (-2 if h == 1 else -h)  # hash() is never -1


class Scalar:
    """Immutable exact value (p + q*sqrt(d))/n, built through a
    :class:`FieldContext`; totally ordered and hashable.  The integers are in
    lowest terms (n > 0, gcd(p, q, n) = 1, q = 0 when d = 0); ``a`` = p/n and
    ``b`` = q/n are the parts as Fractions.  The hash, that of the equal
    ``Fraction`` for a rational and of ``(a, b, d)`` otherwise, is computed
    on first use and kept.  Pure rationals coerce silently
    into any extension, so a rational time can offset a Q(sqrt(5)) position;
    irrational scalars from different extensions refuse to mix."""

    # p, q, n, d, and the hash, computed on first use
    __slots__ = ("p", "q", "n", "d", "_hash")

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, past the guard
        return _scalar, (self.p, self.q, self.n, self.d)

    a = property(lambda self: Fraction(self.p, self.n))
    b = property(lambda self: Fraction(self.q, self.n))

    # -- field operations -------------------------------------------------

    def __add__(self, other: ScalarLike) -> Scalar:
        o = _join(self, other)
        return NotImplemented if o is None else _sum(self, *o)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> Scalar:
        o = _join(self, other)
        return NotImplemented if o is None else _sum(self, -o[0], -o[1], o[2], o[3])

    def __rsub__(self, other: ScalarLike) -> Scalar:
        o = _join(self, other)
        return NotImplemented if o is None else _scalar(*o, 1) - self

    def __neg__(self) -> Scalar:
        return _scalar(-self.p, -self.q, self.n, self.d, 1)

    def __mul__(self, other: ScalarLike) -> Scalar:
        o = _join(self, other)
        return NotImplemented if o is None else _product(self, *o)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> Scalar:
        o = _join(self, other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        norm = p * p - q * q * d
        if not norm:
            raise ZeroDivisionError("scalar division by zero")
        inverse = _scalar(n * p, -n * q, norm, d)  # n*(p - q*sqrt(d))/norm
        return _product(self, inverse.p, inverse.q, inverse.n, d)

    def __rtruediv__(self, other: ScalarLike) -> Scalar:
        o = _join(self, other)
        return NotImplemented if o is None else _scalar(*o, 1) / self

    # -- order ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided on integers (see _sign)."""
        return _sign(self.p, self.q, self.d)

    def __eq__(self, other: object) -> bool:
        if type(other) is Scalar:
            return (self.p == other.p and self.q == other.q and self.n == other.n
                    and (not self.q or self.d == other.d))
        if isinstance(other, numbers.Rational):
            return not self.q and self.p == other.numerator and self.n == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.a, self.b, self.d)) if self.q else _rational_hash(self.p, self.n)
            _SET_HASH(self, h)
        return h

    def _cmp(self, other: ScalarLike) -> int:
        """Sign of self - other, computed on integers without building it.
        Another scalar is joined inline, by `_join`'s field rule."""
        if other is self:
            return 0
        if type(other) is Scalar:
            p, q, n = other.p, other.q, other.n
            d = self.d
            if other.d != d and q:
                d = _field(d, self.q, other.d, q)
        else:
            o = _join(self, other)
            if o is None:
                return NotImplemented
            p, q, n, d = o
        p, q = self.p * n - p * self.n, self.q * n - q * self.n
        return _sign(p, q, d) if q else (p > 0) - (p < 0)

    def __lt__(self, other: ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other: ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other: ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    # -- integer bracketing -----------------------------------------------

    def floor(self) -> int:
        """Largest integer <= value, found without floating point."""
        # sqrt(d) is irrational when q != 0, so |q*sqrt(d)| lies strictly
        # between r and r + 1, and no multiple of n lies between them
        r = math.isqrt(self.q * self.q * self.d)
        return (self.p + r) // self.n if self.q >= 0 else (self.p - r - 1) // self.n

    # -- misc ---------------------------------------------------------------

    def __float__(self) -> float:
        """The exact value rounded once, not the sum of its rounded parts."""
        # value * n = p + q*sqrt(d).  When q != 0 the norm p^2 - q^2*d is a
        # nonzero integer and |p - q*sqrt(d)| < 2^(k - 64), so
        # |p + q*sqrt(d)| * 2^k > 2^64: its floor keeps over 64 bits
        p, qqd = self.p, self.q * self.q * self.d
        k = max(p.bit_length(), qqd.bit_length() // 2 + 1) + 65
        r = math.isqrt(qqd << 2 * k)
        return ((p << k) + (r if self.q >= 0 else -r - 1)) / (self.n << k)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)})"


# The slot setters: _scalar and __hash__ write through them, past the
# immutability guard.
_SET_P, _SET_Q, _SET_N, _SET_D, _SET_HASH = (
    getattr(Scalar, k).__set__ for k in Scalar.__slots__
)
_NEW = object.__new__


def _scalar(p: int, q: int, n: int, d: int, m: int | None = None) -> Scalar:
    """The scalar (p + q*sqrt(d))/n for any n != 0, reduced by one gcd.  A caller
    that knows the common factor divides m (a divisor of n) passes it, so the
    gcd runs on m instead of n; m = 1 for parts already in lowest terms."""
    if n < 0:
        p, q, n = -p, -q, -n
    g = math.gcd(n if m is None else m, p, q)
    if g != 1:
        p, q, n = p // g, q // g, n // g
    s = _NEW(Scalar)
    _SET_P(s, p)
    _SET_Q(s, q)
    _SET_N(s, n)
    _SET_D(s, d)
    _SET_HASH(s, None)
    return s


def _sum(x: Scalar, p: int, q: int, n: int, d: int) -> Scalar:
    """x + (p + q*sqrt(d))/n.  Over the denominators' lcm, a common factor
    can only divide their gcd."""
    g = math.gcd(x.n, n)
    a, b = x.n // g, n // g
    return _scalar(x.p * b + p * a, x.q * b + q * a, a * n, d, g)


def _product(x: Scalar, p: int, q: int, n: int, d: int) -> Scalar:
    """x * (p + q*sqrt(d))/n, the latter in lowest terms.  Factors shared by a
    numerator and the other denominator cancel first; a common factor is then
    left only by two irrationals, as in (1 + sqrt(5))^2 = 2*(3 + sqrt(5))."""
    g, h = math.gcd(x.n, p, q), math.gcd(n, x.p, x.q)
    xp, xq, xn, p, q, n = x.p // h, x.q // h, x.n // g, p // g, q // g, n // h
    return _scalar(xp * p + xq * q * d, xp * q + xq * p, xn * n, d, xn * n if xq and q else 1)


def _join(x: Scalar, y: ScalarLike) -> tuple[int, int, int, int] | None:
    """y's parts (p, q, n) and the d of a result combining x with y: x's field
    unless only y is irrational.  None when y is not a rational or a scalar."""
    if type(y) is Scalar:
        if y.d == x.d or not y.q:
            return y.p, y.q, y.n, x.d
        return y.p, y.q, y.n, _field(x.d, x.q, y.d, y.q)
    if isinstance(y, numbers.Rational):
        return y.numerator, 0, y.denominator, x.d
    return None


def _field(d: int, q: int, e: int, other_q: int) -> int:
    """`_join`'s rule on bare parts: the d of a result combining a value of
    field d and irrational part q with one of field e and irrational part
    other_q."""
    if e == d or not other_q:
        return d
    if not q:
        return e
    raise FieldError(f"cannot mix sqrt({d}) with sqrt({e})")


# -- fused kernels -------------------------------------------------------------
#
# The scheduler's line formulas, each the integer steps of two operators run
# inline: the cancellations of `_product` and `_sum`, and one `_scalar` at
# the end.  A result has the very integers (p, q, n, d) of the operator chain
# it replaces; only the throwaway middle Scalar and the dispatch are gone.
#
# `den_lcm`, when nonzero, is divisible by every prime of the operands'
# denominators; the scheduler passes the lcm of its inputs' denominators,
# since sums and products only multiply denominators and divide factors out.
# A reduction by gcd(m, p, q), m a product of divisors of those
# denominators, has its primes among those of gcd(den_lcm, m), which are
# m's own; so gcd(gcd(den_lcm, m), p, q) == 1 exactly when gcd(m, p, q) == 1.
# When m is larger than den_lcm a kernel's sum tests that first and skips
# the reduction if it holds: a sm4 run at depth would otherwise prove a
# ~3000-bit power of 3 coprime to a ~3000-bit numerator at each event.
# The test is written inline, where it costs small operands one comparison.
# The reduction after a product of two irrationals is not guarded: where
# its m is larger than den_lcm (gcd-phi) it always finds a common factor,
# so the test would only add a gcd.


def affine(c: Scalar, v: Scalar, t: Scalar, den_lcm: int = 0) -> Scalar:
    """c + v*t, exactly as that chain of operators computes it.  den_lcm,
    when nonzero, is divisible by every prime of the operands'
    denominators (see above)."""
    p, q, n = t.p, t.q, t.n
    d = _field(v.d, v.q, t.d, q)
    # v*t, as _product
    g, h = math.gcd(v.n, p, q), math.gcd(n, v.p, v.q)
    vp, vq, vn = v.p // h, v.q // h, v.n // g
    p, q, n = p // g, q // g, n // h
    both = vq and q  # two irrationals may leave a common factor
    p, q, n = vp * p + vq * q * d, vp * q + vq * p, vn * n
    if both:
        g = math.gcd(n, p, q)
        if g != 1:
            p, q, n = p // g, q // g, n // g
    # c + v*t, as _sum
    d = _field(c.d, c.q, d, q)
    g = math.gcd(c.n, n)
    a, b = c.n // g, n // g
    p, q = c.p * b + p * a, c.q * b + q * a
    if den_lcm and g > den_lcm and math.gcd(math.gcd(den_lcm, g), p, q) == 1:
        g = 1
    return _scalar(p, q, a * n, d, g)


def scaled_difference(x: Scalar, y: Scalar, k: Scalar, den_lcm: int = 0) -> Scalar:
    """(x - y)*k, exactly as that chain of operators computes it.  den_lcm
    is as for `affine`."""
    d = _field(x.d, x.q, y.d, y.q)
    # x - y, as _sum
    g = math.gcd(x.n, y.n)
    a, b = x.n // g, y.n // g
    p, q, n = x.p * b - y.p * a, x.q * b - y.q * a, a * y.n
    if not (den_lcm and g > den_lcm and math.gcd(math.gcd(den_lcm, g), p, q) == 1):
        g = math.gcd(g, p, q)
        if g != 1:
            p, q, n = p // g, q // g, n // g
    # (x - y)*k, as _product
    kp, kq, kn = k.p, k.q, k.n
    d = _field(d, q, k.d, kq)
    g, h = math.gcd(n, kp, kq), math.gcd(kn, p, q)
    p, q, n, kp, kq, kn = p // h, q // h, n // g, kp // g, kq // g, kn // h
    return _scalar(p * kp + q * kq * d, p * kq + q * kp, n * kn, d, n * kn if q and kq else 1)


def as_scalar(value: ScalarLike, ctx: FieldContext) -> Scalar:
    if not isinstance(value, Scalar):
        return ctx.scalar(value)
    if value.q and value.d != ctx.d:
        raise FieldError(f"scalar from sqrt({value.d}) used in Q(sqrt({ctx.d}))")
    return value if value.d == ctx.d else _scalar(value.p, 0, value.n, ctx.d, 1)


def is_commensurate(x: Scalar, y: Scalar) -> bool:
    """True iff x/y is a plain rational.  Requires y != 0."""
    if y.sign() == 0:
        raise ZeroDivisionError("commensurability against zero")
    return not (x / y).q


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
    if ratio.q:
        raise IncommensurateError("no common divisor: ratio is irrational")
    return y / ratio.n


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
