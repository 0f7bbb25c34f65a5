import copy
import math
import operator
import pickle
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmach.engine import RunLimits, run
from sigmach.model import SignalMachine
from sigmach.presets import build_gcd_phi
from sigmach.scalars import (
    FieldContext,
    FieldError,
    IncommensurateError,
    ScalarSyntaxError,
    affine,
    as_scalar,
    euclid_trace,
    floor_div_mod,
    format_scalar,
    is_commensurate,
    parse_scalar,
    rational_gcd,
    scaled_difference,
    square_free_split,
)
from sigmach.textio import event_log_lines

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

    def test_a_negative_radicand_has_no_split(self):
        with pytest.raises(ValueError, match="negative radicand"):
            square_free_split(-1)

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
        with pytest.raises(FieldError, match=re.escape("from sqrt(5) used in Q(sqrt(2))")):
            as_scalar(PHI, FieldContext(2))

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


class TestCopyAndPickle:
    VALUES = [
        Q.zero(), Q.scalar(Fraction(-7, 3)), Q.scalar(2**90 + 1, 0),
        Q5.zero(), Q5.scalar(4), PHI, Q5.scalar(Fraction(-3, 8), Fraction(5, 6)),
    ]

    @pytest.mark.parametrize("trip", [
        copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip_keeps_value_hash_and_field(self, trip):
        for s in self.VALUES:
            back = trip(s)
            assert back == s and hash(back) == hash(s)
            assert (back.p, back.q, back.n, back.d) == (s.p, s.q, s.n, s.d)
            with pytest.raises(AttributeError):
                back.p = 0

    def test_no_slot_can_be_assigned_or_deleted(self):
        for s in self.VALUES:
            want = hash(s)
            for name in ("p", "q", "n", "d", "_hash"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(s, name, 0)
                with pytest.raises(AttributeError, match="immutable"):
                    delattr(s, name)
            assert hash(s) == want

    def test_a_deep_copied_diagram_keeps_its_event_log(self):
        diagram = run(*build_gcd_phi(), RunLimits(max_events=300))
        assert event_log_lines(copy.deepcopy(diagram)) == event_log_lines(diagram)


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

    @pytest.mark.parametrize("x, y", [(0, 1), (1, 0), (-2, 4), (3, Fraction(-1, 2))])
    def test_non_positive_inputs_rejected(self, x, y):
        with pytest.raises(ValueError, match="strictly positive"):
            rational_gcd(Q.scalar(x), Q.scalar(y))

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

    @pytest.mark.parametrize("a, b", [(3, 8), (8, 0), (8, -3)])
    def test_operands_out_of_order_or_not_positive_are_refused(self, a, b):
        with pytest.raises(ValueError, match="need a >= b > 0"):
            euclid_trace(Q.scalar(a), Q.scalar(b))

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

    @pytest.mark.parametrize("text", ["1 2", "1 2/3", "1/2 3", " -1 0 ", "1\t2", "1+2*sqrt(1 0)"])
    def test_whitespace_between_digits_is_an_error(self, text):
        with pytest.raises(ScalarSyntaxError, match=f"^malformed scalar: {re.escape(repr(text))}$"):
            parse_scalar(text, Q)

    @pytest.mark.parametrize("text, want", [
        (" 12 ", "12"), ("1 / 2", "1/2"), ("- 3", "-3"), ("1 + 2*sqrt(5)", "1+2*sqrt(5)"),
        ("-1/2 - 1/2 * sqrt( 5 )", "-1/2-1/2*sqrt(5)"),
    ])
    def test_spaces_around_signs_and_operators_are_accepted(self, text, want):
        assert format_scalar(parse_scalar(text, Q5)) == want

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


# -- the integer representation against the plain quadratic-field formulas ---
#
# Each reference below is computed on the (a, b) Fractions alone, with the
# textbook formulas for Q(sqrt(d)); the scalar under test computes on its
# reduced integers (p, q, n).

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


def _parts(y) -> tuple[Fraction, Fraction, int]:
    """(a, b, d) of a scalar, or of an int or Fraction as a rational."""
    return (Fraction(y), Fraction(0), 0) if isinstance(y, (int, Fraction)) else (y.a, y.b, y.d)


@given(st.one_of(st.tuples(q_scalars, q_scalars), st.tuples(q5_rational_scalars, q_scalars),
                 st.tuples(q5_irrational_scalars, q5_irrational_scalars),
                 st.tuples(mixed_scalars, mixed_scalars),
                 mixed_scalars.map(lambda x: (x, x)),  # one object on both sides
                 st.tuples(mixed_scalars, st.integers(-50, 50)),
                 st.tuples(mixed_scalars, any_rationals)))
@settings(max_examples=300)
def test_order_equality_and_hash_match_formulas(pair):
    x, y = pair
    ya, yb, yd = _parts(y)
    s = _ref_sign(x.a - ya, x.b - yb, max(x.d, yd))
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == y) == (s == 0) == (x.a == ya and x.b == yb)
    assert x.sign() == _ref_sign(x.a, x.b, x.d)
    want = hash(x.a) if x.b == 0 else hash((x.a, x.b, x.d))
    assert hash(x) == want and hash(x) == want  # computed, then kept
    for trip in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        assert hash(trip(x)) == want
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


def test_rational_operands_keep_the_left_field():
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


def _canonical(x) -> None:
    """x's integers are in lowest terms and its views read them."""
    assert x.n > 0 and math.gcd(x.p, x.q, x.n) == 1
    assert x.q == 0 or x.d != 0
    assert type(x.p) is int and type(x.q) is int and type(x.n) is int
    assert (x.a, x.b) == (Fraction(x.p, x.n), Fraction(x.q, x.n))


@given(st.one_of(st.tuples(q_scalars, q_scalars), st.tuples(mixed_scalars, mixed_scalars)))
@settings(max_examples=200)
def test_every_result_is_in_lowest_terms(pair):
    x, y = pair
    for result in (x + y, x - y, x * y, -x, -y, parse_scalar(format_scalar(x), FieldContext(x.d))):
        _canonical(result)
    if y:
        _canonical(x / y)
    ctx = FieldContext(x.d)
    radicands = (4, 20) if ctx.d else (4,)
    for built in (ctx.scalar(x.a, x.b), ctx.scalar(str(x.a)), ctx.zero(), ctx.one(),
                  *(ctx.sqrt_term(x.a, r) for r in radicands)):
        _canonical(built)


def test_products_of_irrationals_reduce():
    # no integer > 1 divides 1 + sqrt 5, yet (1 + sqrt 5)^2 = 2*(3 + sqrt 5)
    root5 = Q5.scalar(1, 1)
    for x, parts in [(root5 * root5, (6, 2, 1)), (PHI * PHI, (3, 1, 2)),
                     (root5 / (root5 / 2), (2, 0, 1)), (PHI / PHI, (1, 0, 1))]:
        assert (x.p, x.q, x.n) == parts


def test_zero_has_one_representation():
    for zero in (Q.zero(), Q5.zero(), PHI - PHI, Q5.scalar(Fraction(3, 7)) * 0, Q.scalar("0/5")):
        assert (zero.p, zero.q, zero.n) == (0, 0, 1)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.lt, operator.le, operator.gt, operator.ge])
@pytest.mark.parametrize("other", [1.5, "x"])
def test_non_numbers_are_refused_by_python(op, other):
    for x in (Q.scalar(Fraction(3, 2)), PHI):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError) as caught:
                op(left, right)
            assert "NotImplementedType" not in str(caught.value)


def test_non_numbers_get_not_implemented():
    names = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__"]
    for name in names:
        for other in (1.5, "x", None):
            assert getattr(PHI, name)(other) is NotImplemented, name


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal("0.5"), None, 1j])
def test_floats_never_enter_a_scalar(value):
    for build in (lambda: Q.scalar(value), lambda: Q5.scalar(1, value), lambda: as_scalar(value, Q),
                  lambda: Q5.sqrt_term(value, 5)):
        with pytest.raises(TypeError, match="int, Fraction or str"):
            build()
    with pytest.raises(TypeError, match="int, Fraction or str"):
        SignalMachine.build([("a", value), ("b", 0)])


_MODULUS = sys.hash_info.modulus


@pytest.mark.parametrize("f", [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(-2), Fraction(7, 3), Fraction(-7, 3),
    Fraction(1, _MODULUS), Fraction(-5, 3 * _MODULUS), Fraction(_MODULUS + 2, _MODULUS),
    Fraction(10**3999 + 7), Fraction(-(10**3999 + 7), 3**8380), Fraction(_MODULUS * 10**3990, 7),
])
def test_rational_hash_is_the_fraction_hash(f):
    for ctx in (Q, Q5):
        assert hash(ctx.scalar(f)) == hash(f)


# -- the fused kernels against the operator chains they replace ---------------

KERNEL_FIELDS = [FieldContext(d) for d in (0, 2, 3, 5)]


def _field_scalars(ctx):
    """Scalars of ctx: zero, small integers (as speeds are), rationals and,
    beyond Q, irrationals, each up to about 3000 bits as sm4 reaches."""
    drawn = [st.just(ctx.zero()), st.builds(ctx.scalar, st.integers(-5, 5)),
             st.builds(ctx.scalar, any_rationals)]
    if ctx.d:
        drawn.append(st.builds(ctx.scalar, any_rationals, any_rationals.filter(bool)))
    return st.one_of(drawn)


# the primes of the smooth denominators below, whose product is a den_lcm
# that their kernels' divisors mostly exceed
SMOOTH_PRIMES = (2, 3, 5, 7)
SMOOTH_LCM = math.prod(SMOOTH_PRIMES)


def _smooth_scalars(ctx):
    """Scalars of ctx over denominators 2^i 3^j 5^k 7^l of up to about 2300
    bits, as the powers of 3 in sm4's, with numerators of up to 2000 bits."""
    numerators = st.integers(-(1 << 2000), 1 << 2000)
    denominators = st.tuples(*[st.integers(0, 300)] * 4).map(
        lambda e: math.prod(b**k for b, k in zip(SMOOTH_PRIMES, e)))
    return st.builds(lambda p, q, n: ctx.scalar(Fraction(p, n), Fraction(q, n)),
                     numerators, numerators if ctx.d else st.just(0), denominators)


# three operands of one field, each possibly a rational of Q, or of any fields,
# or of one field with smooth denominators
kernel_operands = st.one_of(
    st.sampled_from(KERNEL_FIELDS).flatmap(
        lambda ctx: st.tuples(*[st.one_of(_field_scalars(ctx), q_scalars)] * 3)),
    st.tuples(*[st.one_of([_field_scalars(ctx) for ctx in KERNEL_FIELDS])] * 3),
    st.sampled_from(KERNEL_FIELDS).flatmap(
        lambda ctx: st.tuples(*[_smooth_scalars(ctx)] * 3)),
)


def _den_lcms(*operands):
    """Values of den_lcm that every prime of the operands' denominators
    divides: their lcm, which no divisor of a kernel exceeds, and, when they
    are all smooth, SMOOTH_LCM, which the divisors mostly exceed."""
    lcm = math.lcm(*(x.n for x in operands))
    rest = lcm
    for b in SMOOTH_PRIMES:
        while rest % b == 0:
            rest //= b
    return [lcm, SMOOTH_LCM] if rest == 1 else [lcm]


def _outcome(compute):
    """The integers (p, q, n, d) of compute(), checked to be in lowest
    terms, or the message of the FieldError it raises."""
    try:
        x = compute()
    except FieldError as err:
        return str(err)
    _canonical(x)
    return x.p, x.q, x.n, x.d


@given(kernel_operands)
@example((Q5.zero(), PHI, PHI))  # phi^2 = 2*(3 + sqrt(5))/4: the product reduces
@example((Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(-1, 2)), Q.one()))  # so does 1/2 + 1/2
# with den_lcm = 210, sums over 3^40 that reduce (1 + 2) and do not (1 - 2)
@example((Q.scalar(Fraction(1, 3**40)), Q.scalar(2), Q.scalar(Fraction(1, 3**40))))
# a product over 2^61 that reduces by 2, and a sum over 2^60 that does not
@example((Q5.scalar(Fraction(1, 2**60), Fraction(1, 2**60)), PHI,
          Q5.scalar(Fraction(1, 2**60), Fraction(1, 2**60))))
# a difference over 7^30 that reduces by 7^30, to 0, then times 1/5^20
@example((Q5.scalar(Fraction(3, 7**30), 1), Q5.scalar(Fraction(3, 7**30), 1),
          Q.scalar(Fraction(1, 5**20))))
@settings(max_examples=300)
def test_kernels_give_the_integers_of_the_operator_chains(operands):
    """Each kernel gives the integers of its operator chain, also with any
    den_lcm that covers the primes of the operands' denominators."""
    x, y, z = operands
    chains = [(affine, (x, y, z), lambda: x + y * z),
              (affine, (x, -y, z), lambda: x - y * z),
              (scaled_difference, (x, y, z), lambda: (x - y) * z)]
    for kernel, args, chain in chains:
        want = _outcome(chain)
        assert _outcome(lambda: kernel(*args)) == want
        for den_lcm in _den_lcms(*args):
            assert _outcome(lambda: kernel(*args, den_lcm)) == want


def test_kernels_refuse_two_irrational_fields():
    root2, one_root3, one = FieldContext(2).scalar(0, 1), FieldContext(3).scalar(1, 1), Q.one()
    # the irrational pair meets in the product, or in the sum or difference
    for x, y, z in [(one, root2, one_root3), (root2, one, one_root3), (root2, one_root3, one)]:
        with pytest.raises(FieldError):
            affine(x, y, z)
        with pytest.raises(FieldError):
            scaled_difference(z, y, x)
    assert affine(root2, one_root3 - 1, Q.zero()) == root2
