import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmach.engine import RunLimits, run
from sigmach.presets import build_gcd_phi
from sigmach.scalars import (
    FieldContext,
    FieldError,
    IncommensurateError,
    ScalarSyntaxError,
    euclid_trace,
    floor_div_mod,
    format_scalar,
    is_commensurate,
    parse_scalar,
    rational_gcd,
    square_free_split,
)

Q = FieldContext(0)
Q5 = FieldContext(5)
PHI = Q5.scalar(Fraction(1, 2), Fraction(1, 2))


class TestFieldContext:
    def test_square_free_normalization(self):
        assert FieldContext(20).d == 5
        assert FieldContext(4).d == 0
        assert FieldContext(1).d == 0
        assert FieldContext(0).d == 0
        assert FieldContext(5).d == 5

    def test_square_free_split(self):
        assert square_free_split(20) == (2, 5)
        assert square_free_split(7) == (1, 7)
        assert square_free_split(36) == (6, 1)

    def test_rational_context_rejects_irrational_part(self):
        with pytest.raises(FieldError):
            Q.scalar(1, 1)

    def test_sqrt_term_folds_square_factors(self):
        assert Q5.sqrt_term(1, 20) == Q5.scalar(0, 2)
        assert Q5.sqrt_term(3, 9) == Q5.scalar(9)  # sqrt(9) = 3 is rational
        with pytest.raises(FieldError):
            Q5.sqrt_term(1, 2)


class TestArithmetic:
    def test_irrational_parts_cancel(self):
        x = Q5.scalar(1, 1)
        y = Q5.scalar(0, -1)
        assert (x + y) == Q5.scalar(1)

    def test_golden_ratio_squares_to_phi_plus_one(self):
        assert PHI * PHI == PHI + 1
        assert PHI * PHI == Q5.scalar(Fraction(3, 2), Fraction(1, 2))

    def test_rational_division(self):
        assert Q.scalar(Fraction(2, 3)) / Q.scalar(Fraction(1, 6)) == Q.scalar(4)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PHI / Q5.zero()

    def test_mixed_radicals_refuse(self):
        x = FieldContext(2).scalar(0, 1)
        with pytest.raises(FieldError):
            x + PHI

    def test_rational_coerces_across_fields(self):
        assert Q.scalar(2) + PHI == Q5.scalar(Fraction(5, 2), Fraction(1, 2))


class TestSign:
    def test_both_parts_positive(self):
        assert Q5.scalar(1, 1).sign() == +1

    def test_opposite_parts(self):
        # b*b*d = 5 beats a*a = 9 is false, so the rational part wins
        assert Q5.scalar(-3, 1).sign() == -1
        assert Q5.scalar(-2, 1).sign() == +1

    def test_zero(self):
        assert Q5.zero().sign() == 0
        assert Q.zero().sign() == 0

    def test_sign_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20260810)
        sq5 = sympy.sqrt(5)
        for _ in range(1000):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            want = int(sympy.sign(sympy.Rational(a) + sympy.Rational(b) * sq5))
            assert Q5.scalar(a, b).sign() == want


class TestTruth:
    def test_zero_is_falsy_in_every_field(self):
        for ctx in (FieldContext(0), FieldContext(5)):
            assert not ctx.zero()
            assert bool(ctx.zero()) is False
            assert ctx.one()
            assert ctx.scalar(Fraction(-1, 3))
        root5 = FieldContext(5).sqrt_term(1, 5)
        assert root5 and (1 - root5)
        assert not (root5 - root5)


class TestOrderingAndFloor:
    def test_total_order(self):
        assert Q5.scalar(0, 1) > Q5.scalar(2)  # sqrt(5) > 2
        assert Q5.scalar(0, 1) < Q5.scalar(Fraction(9, 4))
        assert sorted([PHI, Q5.zero(), Q5.scalar(1)]) == [Q5.zero(), Q5.scalar(1), PHI]

    def test_floor_rational(self):
        assert Q.scalar(Fraction(7, 2)).floor() == 3
        assert Q.scalar(Fraction(-7, 2)).floor() == -4
        assert Q.scalar(4).floor() == 4

    def test_floor_quadratic(self):
        assert PHI.floor() == 1
        assert (-PHI).floor() == -2
        assert (PHI * 10).floor() == 16
        assert Q5.scalar(0, 1).floor() == 2  # sqrt(5)

    def test_hash_consistent_with_eq(self):
        assert hash(Q5.scalar(3)) == hash(Q.scalar(3))
        assert Q5.scalar(3) == Q.scalar(3)


class TestFloat:
    def test_powers_of_the_conjugate_of_phi(self):
        # psi^n = F(n-1) + F(n)*psi with psi = (1 - sqrt 5)/2: parts near
        # 10^20 whose sum is near 10^-21
        fib = [0, 1]
        while len(fib) < 101:
            fib.append(fib[-1] + fib[-2])
        psi = (1 - math.sqrt(5)) / 2
        for n in range(1, 101):
            x = Q5.scalar(fib[n - 1] + Fraction(fib[n], 2), Fraction(-fib[n], 2))
            assert float(x) == pytest.approx(psi**n, rel=1e-12, abs=0)

    def test_deep_gcd_phi_coordinates(self):
        def reference(s):
            a, b = s.a, s.b
            parts = (a.numerator, a.denominator, b.numerator, b.denominator)
            digits = max(len(str(abs(n))) for n in parts)
            with localcontext() as ctx:
                ctx.prec = 2 * digits + 40
                exact = Decimal(a.numerator) / a.denominator
                exact += Decimal(b.numerator) / b.denominator * Decimal(s.d).sqrt()
                return float(exact)

        # near the accumulation point the parts exceed 10^68 while
        # positions fall below 10^-69 and times approach 3 + sqrt 5
        machine, config = build_gcd_phi()
        diagram = run(machine, config, RunLimits(max_events=2000))
        deep = [s for e in diagram.events[-100:] for s in (e.time, e.position)]
        assert max(abs(s.b) for s in deep) > 10**60
        for s in deep:
            assert float(s) == pytest.approx(reference(s), rel=1e-12, abs=0)

    def test_rational_scalars_convert_as_fractions(self):
        for f in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**400, 3**700)):
            assert float(Q.scalar(f)) == float(f)
            assert float(Q5.scalar(f)) == float(f)


class TestCommensurability:
    def test_rationals_always(self):
        assert is_commensurate(Q.scalar(Fraction(3, 2)), Q.scalar(Fraction(1, 2)))

    def test_phi_incommensurate_with_one(self):
        assert not is_commensurate(PHI, Q5.one())

    def test_phi_multiples(self):
        assert is_commensurate(PHI * 2, PHI)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            is_commensurate(PHI, Q5.zero())


class TestRationalGcd:
    def test_coprime_integers(self):
        assert rational_gcd(Q.scalar(8), Q.scalar(3)) == Q.scalar(1)

    def test_fractions(self):
        assert rational_gcd(Q.scalar(Fraction(3, 2)), Q.scalar(Fraction(1, 2))) == Q.scalar(Fraction(1, 2))

    def test_self(self):
        x = Q5.scalar(Fraction(5, 3), Fraction(2, 3))
        assert x * 100 > 0  # sanity: positive
        assert rational_gcd(x, x) == x

    def test_irrational_common_factor(self):
        sq5 = Q5.scalar(0, 1)
        assert rational_gcd(sq5 * 3, sq5) == sq5

    def test_incommensurate_rejected(self):
        with pytest.raises(IncommensurateError):
            rational_gcd(PHI, Q5.one())

    def test_quotients_are_coprime_integers(self):
        rng = random.Random(7)
        for _ in range(100):
            g = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            m, n = rng.randint(1, 30), rng.randint(1, 30)
            x, y = Q.scalar(g * m), Q.scalar(g * n)
            d = rational_gcd(x, y)
            qx, qy = x / d, y / d
            assert qx.b == 0 and qx.a.denominator == 1
            assert qy.b == 0 and qy.a.denominator == 1
            import math

            assert math.gcd(int(qx.a), int(qy.a)) == 1


class TestFloorDivMod:
    def test_integers(self):
        q, r = floor_div_mod(Q.scalar(11), Q.scalar(3))
        assert (q, r) == (3, Q.scalar(2))

    def test_phi(self):
        q, r = floor_div_mod(PHI, Q5.one())
        assert q == 1
        assert r == PHI - 1

    def test_exact_multiple(self):
        q, r = floor_div_mod(Q.scalar(6), Q.scalar(3))
        assert q == 2 and r.sign() == 0

    def test_remainder_range(self):
        rng = random.Random(3)
        for _ in range(60):
            a = Q5.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
                          Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            b = Q5.scalar(Fraction(rng.randint(1, 20), rng.randint(1, 6)))
            n, r = floor_div_mod(a, b)
            assert a == b * n + r
            assert r.sign() >= 0 and r < b

    def test_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            floor_div_mod(Q.scalar(1), Q.zero())


class TestEuclidTrace:
    def test_8_3(self):
        steps = euclid_trace(Q.scalar(8), Q.scalar(3))
        assert [(int(a.a), int(b.a), q) for a, b, q, _ in steps] == [
            (8, 3, 2),
            (3, 2, 1),
            (2, 1, 2),
        ]
        assert steps[-1][3].sign() == 0
        assert steps[-1][1] == rational_gcd(Q.scalar(8), Q.scalar(3))

    def test_one_step(self):
        steps = euclid_trace(Q.scalar(4), Q.scalar(2))
        assert len(steps) == 1
        assert steps[0][1] == Q.scalar(2)

    def test_phi_quotients_all_one(self):
        steps = euclid_trace(PHI, Q5.one(), max_steps=20)
        assert len(steps) == 20  # never terminates
        assert all(q == 1 for _, _, q, _ in steps)
        assert steps[0][3] == PHI - 1
        assert steps[1][3] == 2 - PHI

    def test_phi_halving(self):
        steps = euclid_trace(PHI, Q5.one(), max_steps=24)
        values = [a for a, _, _, _ in steps]
        for n in range(len(values) - 2):
            assert values[n + 2] < values[n] / 2

    def test_rational_inputs_terminate_at_gcd(self):
        rng = random.Random(11)
        for _ in range(80):
            b = Fraction(rng.randint(1, 40), rng.randint(1, 10))
            a = b + Fraction(rng.randint(0, 40), rng.randint(1, 10))
            steps = euclid_trace(Q.scalar(a), Q.scalar(b), max_steps=200)
            assert steps[-1][3].sign() == 0
            last_b = steps[-1][1]
            assert last_b == rational_gcd(Q.scalar(a), Q.scalar(b))


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,ctx",
        [
            ("3/2", Q),
            ("-7", Q),
            ("0", Q),
            ("1/2+1/2*sqrt(5)", Q5),
            ("1/2-1/2*sqrt(5)", Q5),
            ("-2+3/4*sqrt(5)", Q5),
            ("3*sqrt(5)", Q5),
            ("-1/3*sqrt(5)", Q5),
        ],
    )
    def test_round_trip(self, text, ctx):
        x = parse_scalar(text, ctx)
        assert parse_scalar(format_scalar(x), ctx) == x

    def test_phi_literal(self):
        assert parse_scalar("1/2+1/2*sqrt(5)", Q5) == PHI

    def test_format_is_canonical(self):
        assert format_scalar(Q.scalar(Fraction(4, 2))) == "2"
        assert format_scalar(PHI) == "1/2+1/2*sqrt(5)"
        assert format_scalar(Q5.scalar(0, -1)) == "-1*sqrt(5)"

    @pytest.mark.parametrize("ctx", [Q, Q5])
    def test_round_trip_past_the_int_str_digit_limit(self, ctx):
        # CPython refuses int <-> str past 4300 digits by default
        big = 10**4999 + 12345
        assert format_scalar(ctx.scalar(10**4999)) == "1" + "0" * 4999
        values = [ctx.scalar(-big), ctx.scalar(Fraction(big, 3 * big + 2))]
        if ctx.d:
            values += [ctx.scalar(Fraction(2, 7), big), ctx.scalar(big, Fraction(-1, big))]
        for x in values:
            text = format_scalar(x)
            assert len(text) > 5000
            assert parse_scalar(text, ctx) == x

    def test_division_by_zero_literal(self):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar("1/0", Q)

    def test_garbage(self):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar("1.5", Q)
        with pytest.raises(ScalarSyntaxError):
            parse_scalar("", Q)

    def test_mixed_radical_rejected(self):
        with pytest.raises(FieldError):
            parse_scalar("1+1*sqrt(2)", Q5)

    def test_square_radicand_folds(self):
        assert parse_scalar("1+2*sqrt(9)", Q) == Q.scalar(7)


rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
)


def scalars(ctx):
    return st.builds(lambda a, b: ctx.scalar(a, b if ctx.d else 0), rationals, rationals)


@given(scalars(Q5), scalars(Q5), scalars(Q5))
@settings(max_examples=200)
def test_field_axioms_quadratic(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Q5.zero()
    if x.sign() != 0:
        assert x * (Q5.one() / x) == Q5.one()


@given(scalars(Q), scalars(Q))
@settings(max_examples=200)
def test_subtraction_and_order_agree(x, y):
    diff = x - y
    assert (diff.sign() > 0) == (x > y)
    assert (diff.sign() == 0) == (x == y)


# -- the rational fast path against the plain quadratic-field formulas --------
#
# Each reference below is computed on the (a, b) Fractions alone, with the
# textbook formulas for Q(sqrt(d)); the scalar under test may take its
# one-Fraction path (both operands rational) or the general one.

small_rationals = st.fractions(max_denominator=50).filter(lambda f: abs(f) < 10**4)
big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**3000), max_value=2**3000),
    st.integers(min_value=2**2990, max_value=2**3000),
)
any_rationals = st.one_of(small_rationals, big_rationals)
q_scalars = st.builds(Q.scalar, any_rationals)
q5_rational_scalars = st.builds(Q5.scalar, any_rationals)
q5_irrational_scalars = st.builds(
    Q5.scalar, any_rationals, any_rationals.filter(lambda f: f != 0)
)
mixed_scalars = st.one_of(q_scalars, q5_rational_scalars, q5_irrational_scalars)


@given(st.sampled_from([2, 3, 5]), any_rationals, any_rationals)
@settings(max_examples=300)
def test_floor_brackets_value(d, a, b):
    ctx = FieldContext(d)
    x = ctx.scalar(a, b)
    n = x.floor()
    assert ctx.scalar(n) <= x and x < n + 1


def _ref_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d): the parts' common sign, else the sign of the
    part with the larger square."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    lhs, rhs = a * a, b * b * d
    return sa if lhs > rhs else (-sa if lhs < rhs else 0)


def _ref_d(x, y) -> int:
    """Field of x op y: the left operand's, unless only y is irrational."""
    return y.d if x.b == 0 and y.b != 0 else x.d


def _same(got, a: Fraction, b: Fraction, d: int) -> None:
    assert (got.a, got.b, got.d) == (a, b, d)
    assert type(got.a) is Fraction and type(got.b) is Fraction


@given(st.one_of(st.tuples(q_scalars, q_scalars), st.tuples(q5_rational_scalars, q5_rational_scalars),
                 st.tuples(q5_irrational_scalars, mixed_scalars), st.tuples(mixed_scalars, mixed_scalars)))
@settings(max_examples=200)
def test_field_operations_match_formulas(pair):
    x, y = pair
    d = _ref_d(x, y)
    _same(x + y, x.a + y.a, x.b + y.b, d)
    _same(x - y, x.a - y.a, x.b - y.b, d)
    _same(x * y, x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)
    norm = y.a * y.a - y.b * y.b * d
    if norm == 0:
        with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
            x / y
    else:
        _same(x / y, (x.a * y.a - x.b * y.b * d) / norm, (x.b * y.a - x.a * y.b) / norm, d)
    _same(-x, -x.a, -x.b, x.d)


@given(st.one_of(st.tuples(q_scalars, q_scalars), st.tuples(q5_rational_scalars, q_scalars),
                 st.tuples(q5_irrational_scalars, q5_irrational_scalars),
                 st.tuples(mixed_scalars, mixed_scalars)))
@settings(max_examples=200)
def test_order_equality_and_hash_match_formulas(pair):
    x, y = pair
    d = max(x.d, y.d)
    s = _ref_sign(x.a - y.a, x.b - y.b, d)
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == y) == (s == 0) == (x.a == y.a and x.b == y.b)
    assert x.sign() == _ref_sign(x.a, x.b, x.d)
    assert hash(x) == (hash(x.a) if x.b == 0 else hash((x.a, x.b, x.d)))
    if s == 0:
        assert hash(x) == hash(y)


@given(mixed_scalars, any_rationals)
@settings(max_examples=150)
def test_plain_rational_operands(x, f):
    _same(x + f, x.a + f, x.b, x.d)
    _same(f - x, f - x.a, -x.b, x.d)
    _same(x * f, x.a * f, x.b * f, x.d)
    s = _ref_sign(x.a - f, x.b, x.d)
    assert ((x < f), (x <= f), (x > f), (x >= f)) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == f) == (s == 0)


def test_rational_fast_path_keeps_the_left_field():
    q, q5, phi = Q.scalar(Fraction(3, 2)), Q5.scalar(Fraction(1, 3)), PHI
    for x, y, d in [(q, q5, 0), (q5, q, 5), (q, phi, 5), (phi, q, 5), (q5, phi, 5)]:
        for result in (x + y, x - y, x * y, x / y):
            assert result.d == d
    assert (-q).d == 0 and (-q5).d == 5


def test_rational_scalars_agree_with_python_numbers():
    assert Q.scalar(3) == 3
    assert 3 == Q.scalar(3)
    assert Q5.scalar(3) == Fraction(3)
    assert hash(Q.scalar(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(Q5.scalar(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert Q.scalar(Fraction(1, 3)) != PHI


@pytest.mark.parametrize("zero", [Q.zero(), Q5.zero(), Q.scalar(0) - Q.scalar(0)])
def test_division_by_a_rational_zero(zero):
    for x in (Q.scalar(Fraction(7, 3)), Q5.scalar(2), PHI):
        with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
            x / zero
    with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
        1 / zero


def test_mixed_radicals_refuse_to_compare():
    with pytest.raises(FieldError):
        FieldContext(2).scalar(0, 1) < PHI
    assert FieldContext(2).scalar(1) < PHI
