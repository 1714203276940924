import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cherednik_kit.scalars import (
    AffineForm,
    FactoredScalar,
    ParameterPoint,
    PoleError,
    convert_parameters,
    parse_rational,
    pochhammer,
    proportional,
    random_point,
    render_affine,
)


def form(r, const=0, c0=0, d=None):
    return AffineForm(r, const=const, c0=c0, d=d or {})


class TestAffineForm:
    def test_d_index_reduction(self):
        assert AffineForm(3, d={1: 2}) == AffineForm(3, d={4: 2})
        assert AffineForm(3, d={1: 2}) == AffineForm(3, d={-2: 2})

    def test_duplicate_indices_accumulate(self):
        f = AffineForm(2, d={0: 1}) + AffineForm(2, d={2: -1})
        assert f.is_zero()

    def test_evaluate(self):
        p = ParameterPoint(2, Fraction(1, 2), [Fraction(1), Fraction(-1)])
        f = form(2, const=1, c0=-2, d={0: 1, 1: -1})
        assert f.evaluate(p) == 1 - 1 + 1 + 1

    def test_primitive(self):
        f = form(1, const=Fraction(2, 3), c0=Fraction(4, 3))
        prim, scale = f.primitive()
        assert prim == form(1, const=1, c0=2)
        assert scale == Fraction(2, 3)
        g = form(1, const=-1, c0=-2)
        prim2, scale2 = g.primitive()
        assert prim2 == prim and scale2 == -1

    def test_primitive_form_is_returned_as_is(self):
        f = form(2, const=1, c0=-2, d={1: 3})
        assert f.primitive()[0] is f and f.primitive()[1] == 1
        for g in (form(1, const=2, c0=2), form(1, const=-1, c0=1)):
            prim, scale = g.primitive()
            assert prim is not g and prim.scale(scale) == g

    def test_render(self):
        assert str(form(2, const=1, c0=2)) == "1 + 2*c0"
        assert str(form(2, const=1, d={0: 1, 1: -1})) == "1 + d0 - d1"
        assert str(form(2, c0=Fraction(-3, 2))) == "-3/2*c0"
        assert str(form(2)) == "0"


class TestFactoredScalar:
    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            FactoredScalar(1, 1, (form(1),))

    def test_normalize_cancellation(self):
        # construction cancels a factor shared by numerator and denominator
        a = form(1, const=1, c0=1)
        b = form(1, const=1, c0=2)
        s = FactoredScalar(1, 1, (a, b), (a,))
        assert s.den == () and s.num == (b,) and s.coefficient == 1
        assert s.factors == {b: 1}
        assert s.normalize() is s

    def test_normalize_proportional_factors(self):
        # proportional factors share one primitive form; scales fold into the coefficient
        s = FactoredScalar(1, 2, (form(1, const=2, c0=2),), (form(1, const=1, c0=1),))
        assert s.num == () and s.den == () and s.coefficient == 4
        assert s.factors == {}

    def test_normalize_idempotent_random(self, rng):
        # construction is canonical: primitive, non-constant keys with nonzero
        # multiplicities, and rebuilding from the views gives the same data
        for _ in range(100):
            r = rng.randint(1, 3)
            num = []
            den = []
            for _ in range(rng.randint(0, 4)):
                f = AffineForm(r, rng.randint(-3, 3), rng.randint(-3, 3),
                               {rng.randrange(r): rng.randint(-2, 2)})
                if f.is_zero():
                    continue
                (num if rng.random() < 0.5 else den).append(f)
            s = FactoredScalar(r, Fraction(rng.randint(1, 9), rng.randint(1, 9)), num, den)
            for f, m in s.factors.items():
                assert m != 0 and not f.is_constant() and f.primitive() == (f, 1)
            again = FactoredScalar(r, s.coefficient, s.num, s.den)
            assert again.coefficient == s.coefficient and again.factors == s.factors

    def test_normalize_preserves_evaluate(self, rng):
        # the canonical data evaluates to the raw product of the given factors
        for _ in range(50):
            r = rng.randint(1, 3)
            factors = [AffineForm(r, rng.randint(1, 4), rng.randint(-3, 3),
                                  {rng.randrange(r): rng.randint(-2, 2)})
                       for _ in range(3)]
            s = FactoredScalar(r, Fraction(3, 7), factors[:2], factors[2:])
            p = random_point(r, rng, bound=50)
            a, b, c = (f.evaluate(p) for f in factors)
            if c == 0:
                continue
            assert s.evaluate(p) == Fraction(3, 7) * a * b / c

    def test_cancelled_factor_is_not_a_pole(self):
        x = form(1, c0=1)
        s = FactoredScalar(1, 1, (x, form(1, const=1, c0=1)), (x,))
        assert s.evaluate(ParameterPoint(1, 0, [0])) == 1
        assert (FactoredScalar(1, 1, (x,)) / x).evaluate(ParameterPoint(1, 0, [0])) == 1

    def test_evaluate_distributes(self, rng):
        r = 2
        a = FactoredScalar(r, 2, (form(r, 1, 1),))
        b = FactoredScalar(r, 3, (form(r, 1, 0, {0: 1}),), (form(r, 5),))
        p = random_point(r, rng, bound=20)
        assert (a * b).evaluate(p) == a.evaluate(p) * b.evaluate(p)

    def test_pole_error_names_factor(self):
        s = FactoredScalar(1, 1, (), (form(1, c0=1),))
        p = ParameterPoint(1, 0, [0])
        with pytest.raises(PoleError) as err:
            s.evaluate(p)
        assert "c0" in str(err.value)

    def test_numerator_zero_is_zero(self):
        s = FactoredScalar(1, 1, (form(1, const=1, c0=2),))
        assert s.evaluate(ParameterPoint(1, Fraction(-1, 2), [0])) == 0


def _forms(r):
    small = st.integers(-3, 3)
    return st.builds(lambda k, a, d: AffineForm(r, k, a, d), small, small,
                     st.lists(small, min_size=r, max_size=r)).filter(lambda f: not f.is_zero())


def _points(r):
    q = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return st.builds(lambda c0, d: ParameterPoint(r, c0, d), q, st.lists(q, min_size=r, max_size=r))


@st.composite
def _scalar_ops(draw, r):
    """(r, coefficient, [(form, +1 or -1)]): a factored scalar as raw steps."""
    coef = draw(st.fractions(max_denominator=9).filter(bool))
    ops = draw(st.lists(st.tuples(_forms(r), st.sampled_from((1, -1))), max_size=8))
    return r, coef, ops


def _stepwise(r, coef, ops):
    s = FactoredScalar(r, coef)
    for f, sign in ops:
        s = s * f if sign > 0 else s / f
    return s


PROPERTY = settings(deadline=None, database=None, derandomize=True)


class TestFactoredScalarProperties:
    @PROPERTY
    @given(st.integers(1, 3).flatmap(_scalar_ops), st.randoms(use_true_random=False), st.integers(0, 8))
    def test_order_and_grouping_do_not_matter(self, data, rnd, cut):
        r, coef, ops = data
        whole = FactoredScalar(r, coef, [f for f, s in ops if s > 0],
                               [f for f, s in ops if s < 0])
        shuffled = list(ops)
        rnd.shuffle(shuffled)
        grouped = _stepwise(r, coef, shuffled[:cut]) * _stepwise(r, 1, shuffled[cut:])
        for other in (_stepwise(r, coef, ops), _stepwise(r, coef, shuffled), grouped,
                      grouped.reciprocal().reciprocal()):
            assert other == whole
            assert hash(other) == hash(whole) and str(other) == str(whole)

    @PROPERTY
    @given(st.data())
    def test_evaluate_is_multiplicative_away_from_poles(self, data):
        r = data.draw(st.integers(1, 3))
        a = _stepwise(*data.draw(_scalar_ops(r)))
        b = _stepwise(*data.draw(_scalar_ops(r)))
        p = data.draw(_points(r))
        assert (a / a).evaluate(p) == 1
        try:
            va, vb = a.evaluate(p), b.evaluate(p)
        except PoleError:
            return
        assert (a * b).evaluate(p) == va * vb
        if vb != 0:
            assert (a / b).evaluate(p) == va / vb


def _rational_forms(r):
    q = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    return st.builds(lambda k, a, d: AffineForm(r, k, a, d), q, q,
                     st.lists(q, min_size=r, max_size=r))


def reference_render(f: AffineForm) -> str:
    """The renderer over the Fraction coefficients, as `render_affine` was
    before forms kept integer numerators: the reference it must match."""
    parts: list[str] = []

    def emit(coef: Fraction, var: str | None):
        if coef == 0:
            return
        sign = "-" if coef < 0 else "+"
        mag = -coef if coef < 0 else coef
        if var is None:
            body = str(mag)
        elif mag == 1:
            body = var
        else:
            body = f"{mag}*{var}"
        parts.append((sign, body))

    emit(f.const, None)
    emit(f.c0, "c0")
    for l, a in enumerate(f.d):
        emit(a, f"d{l}")
    if not parts:
        return "0"
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ints take the constructor's integer path, Fractions the general one
_COEFFS = st.one_of(st.integers(-40, 40), st.fractions(min_value=-40, max_value=40, max_denominator=12))


def _coefficient_lists(r):
    """(const, c0, d) with arbitrary Fraction coefficients."""
    return st.tuples(_COEFFS, _COEFFS, st.lists(_COEFFS, min_size=r, max_size=r))


def _coefficients():
    """(r, const, c0, d), r <= 4."""
    return st.integers(1, 4).flatmap(lambda r: _coefficient_lists(r).map(lambda c: (r, *c)))


def _values(f):
    return (f.const, f.c0) + f.d


class TestAffineFormProperties:
    @PROPERTY
    @given(st.integers(1, 3).flatmap(_rational_forms))
    def test_primitive_round_trips(self, f):
        prim, scale = f.primitive()
        assert scale != 0 and prim.scale(scale) == f
        assert prim.primitive() == (prim, 1) and prim.primitive()[0] is prim
        assert prim.denominator == 1
        assert f.is_zero() or math.gcd(*prim.numerators) == 1

    @PROPERTY
    @given(_coefficients(), st.lists(st.integers(-2, 2), min_size=4, max_size=4))
    def test_construction_gives_back_the_coefficients(self, data, wraps):
        r, const, c0, d = data
        as_sequence = AffineForm(r, const, c0, d)
        # each index shifted by a multiple of r, and its value split in two
        # halves under two different keys that agree mod r
        split = {}
        for l, (a, j) in enumerate(zip(d, wraps)):
            split[l + j * r] = split.get(l + j * r, 0) + Fraction(a) / 2
            split[l - (j + 1) * r] = split.get(l - (j + 1) * r, 0) + Fraction(a) / 2
        for f in (as_sequence, AffineForm(r, const, c0, dict(enumerate(d))),
                  AffineForm(r, const, c0, split)):
            assert (f.const, f.c0, f.d) == (const, c0, tuple(d))
            assert all(type(v) is Fraction for v in _values(f))
            assert f == as_sequence and hash(f) == hash(as_sequence)
            assert f.denominator > 0
            assert math.gcd(f.denominator, *f.numerators) == 1
            assert all(Fraction(x, f.denominator) == v for x, v in zip(f.numerators, _values(f)))

    @PROPERTY
    @given(st.data())
    def test_arithmetic_agrees_with_coefficientwise_fractions(self, data):
        r = data.draw(st.integers(1, 4))
        f, g = (AffineForm(r, *data.draw(_coefficient_lists(r))) for _ in range(2))
        q = data.draw(_COEFFS)
        p = data.draw(_points(r))
        vf, vg = _values(f), _values(g)
        assert _values(f + g) == tuple(a + b for a, b in zip(vf, vg))
        assert _values(f - g) == tuple(a - b for a, b in zip(vf, vg))
        assert _values(-f) == tuple(-a for a in vf)
        assert _values(f.scale(q)) == _values(q * f) == tuple(a * q for a in vf)
        assert _values(f + q) == _values(q + f) == (vf[0] + q,) + vf[1:]
        assert _values(f - q) == (vf[0] - q,) + vf[1:]
        assert _values(q - f) == (q - vf[0],) + tuple(-a for a in vf[1:])
        assert f.evaluate(p) == vf[0] + vf[1] * p.c0 + sum(a * x for a, x in zip(vf[2:], p.d))
        assert f.is_zero() == (not any(vf)) and f.is_constant() == (not any(vf[1:]))

    @PROPERTY
    @given(_coefficients(), _COEFFS.filter(bool))
    def test_equal_values_have_equal_data_and_hash(self, data, q):
        r, const, c0, d = data
        f = AffineForm(r, const, c0, d)
        # the same values reached through other numerators and denominators
        others = [f.scale(q).scale(1 / Fraction(q)), (f + f).scale(Fraction(1, 2)),
                  (f - AffineForm(r, c0=q)) + AffineForm(r, c0=q),
                  AffineForm.from_numerators(r, [x * 6 for x in f.numerators], f.denominator * 6)]
        for g in others:
            assert g == f and hash(g) == hash(f) and g.key() == f.key()
            assert (g.numerators, g.denominator) == (f.numerators, f.denominator)
        different = f + AffineForm(r, d={0: q})
        assert different != f and different.key() != f.key()

    @PROPERTY
    @given(_coefficients())
    def test_render_matches_the_fraction_renderer(self, data):
        f = AffineForm(*data)
        assert render_affine(f) == str(f) == reference_render(f)
        prim, _ = f.primitive()
        assert render_affine(prim) == reference_render(prim)

    @PROPERTY
    @given(_coefficients(), _COEFFS.filter(bool))
    def test_kept_text_is_the_rendered_text(self, data, q):
        r, const, c0, d = data
        f = AffineForm(r, const, c0, d)
        built = [f, AffineForm(r, const, c0, dict(enumerate(d))),
                 AffineForm(r, *f.numerators[:2], list(f.numerators[2:])),
                 AffineForm.from_numerators(r, f.numerators, f.denominator),
                 f + AffineForm(r, c0=q), f - q, f.scale(q), f.primitive()[0]]
        for g in built:
            text = render_affine(g)
            assert str(g) == text       # the first str keeps it
            assert str(g) == repr(g) == f"{g}" == render_affine(g) == text


def _fraction_value(f: AffineForm, p: ParameterPoint) -> Fraction:
    """Reference: k + a c0 + sum_l b_l d_l, summed as Fractions."""
    return f.const + f.c0 * p.c0 + sum((b * x for b, x in zip(f.d, p.d)), Fraction(0))


def _fraction_product(s: FactoredScalar, p: ParameterPoint) -> Fraction:
    """Reference: the coefficient times one Fraction power per factor, as
    `FactoredScalar.evaluate` was before it multiplied integers."""
    value = s.coefficient
    for f, m in s.factors.items():
        v = _fraction_value(f, p)
        if v == 0 and m < 0:
            raise PoleError(f)
        value *= v ** m
    return value


def _former_module_point(p: ParameterPoint) -> tuple:
    """Reference: the integer point a StandardModule built for itself before
    ParameterPoint kept one, (L, L c0, L d_0, ..)."""
    params = (p.c0,) + p.d
    scale = math.lcm(*(x.denominator for x in params))
    return (scale,) + tuple(x.numerator * (scale // x.denominator) for x in params)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except PoleError as exc:
        return ("PoleError", str(exc))


class TestIntegerEvaluation:
    @PROPERTY
    @given(st.data())
    def test_affine_forms_match_the_fraction_sum(self, data):
        r = data.draw(st.integers(1, 4))
        f = AffineForm(r, *data.draw(_coefficient_lists(r)))
        p = data.draw(_points(r))
        assert f.evaluate(p) == _fraction_value(f, p)
        assert p.integer_form == _former_module_point(p)

    @PROPERTY
    @given(st.data())
    def test_factored_scalars_match_the_fraction_product(self, data):
        # a factor that vanishes at the point joins the numerator (value 0)
        # or the denominator (PoleError, with the reference's message)
        r = data.draw(st.integers(1, 3))
        _, coef, ops = data.draw(_scalar_ops(r))
        p = data.draw(_points(r))
        vanishing = data.draw(st.sampled_from((None, 1, -1)))
        forms = [f for f, _ in ops]
        if vanishing and forms and not forms[0].is_constant():
            ops = ops + [(forms[0] - forms[0].evaluate(p), vanishing)]
        s = FactoredScalar(r, coef, [f for f, m in ops if m > 0], [f for f, m in ops if m < 0])
        assert _outcome(s.evaluate, p) == _outcome(_fraction_product, s, p)

    def test_vanishing_factors(self):
        r = 2
        p = ParameterPoint(r, Fraction(1, 3), [Fraction(-2, 5), 4])
        zero = AffineForm(r, 1, -3)            # 1 - 3 c0
        other = AffineForm(r, 2, 1, {1: Fraction(1, 2)})
        on_top = FactoredScalar(r, Fraction(5, 7), (zero, other), (other + 1,))
        assert on_top.evaluate(p) == 0 == _fraction_product(on_top, p)
        below = FactoredScalar(r, Fraction(5, 7), (other, other), (zero, zero))
        with pytest.raises(PoleError) as err:
            below.evaluate(p)
        assert str(err.value) == _outcome(_fraction_product, below, p)[1]
        assert err.value.factor == zero.primitive()[0]

    def test_points_keep_the_former_module_point(self, rng):
        for r in (1, 2, 3, 4):
            for p in [random_point(r, rng) for _ in range(20)] + [ParameterPoint(r, 0, [0] * r)]:
                assert p.integer_form == _former_module_point(p)
                assert p.integer_form[0] > 0


class TestPochhammer:
    def test_empty(self):
        one = pochhammer(form(1, c0=1), 0)
        assert one.num == () and one.coefficient == 1

    def test_c0_squared(self):
        s = pochhammer(form(1, c0=1), 2)
        assert s.num == (form(1, c0=1), form(1, const=1, c0=1))

    def test_constant_is_factorial(self, rng):
        s = pochhammer(form(1, const=1), 5)
        assert s.evaluate(random_point(1, rng)) == 120

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(form(1, c0=1), -1)


class TestProportional:
    def test_constant_multiple(self):
        f = form(1, const=1, c0=1)
        a = FactoredScalar(1, 2, (f,))
        b = FactoredScalar(1, 1, (f,))
        assert proportional(a, b) == 2

    def test_not_proportional(self):
        a = FactoredScalar(1, 1, (form(1, const=1, c0=1),))
        b = FactoredScalar(1, 1, (form(1, const=1, c0=2),))
        assert proportional(a, b) is None

    def test_scaled_factors(self):
        a = FactoredScalar(1, 1, (form(1, const=2, c0=2),))
        b = FactoredScalar(1, 1, (form(1, const=1, c0=1),))
        assert proportional(a, b) == 2


class TestProportionalProperties:
    @PROPERTY
    @given(st.integers(1, 3).flatmap(_scalar_ops), st.fractions(max_denominator=9))
    def test_constant_multiples_are_found(self, data, q):
        b = _stepwise(*data)
        assert proportional(q * b, b) == q
        assert proportional(b, q * b) == (1 / q if q else None)

    @PROPERTY
    @given(st.data())
    def test_decision_agrees_with_values(self, data):
        # a repeats b's forms rescaled, then a rest that cancels when asked to
        r = data.draw(st.integers(1, 3))
        _, coef, ops = data.draw(_scalar_ops(r))
        scales = data.draw(st.lists(st.sampled_from((-3, -1, 2, Fraction(1, 2), Fraction(-2, 3))),
                                    min_size=len(ops), max_size=len(ops)))
        rest = data.draw(st.lists(st.tuples(_forms(r), st.sampled_from((1, -1))), max_size=3))
        cancel = data.draw(st.booleans())
        if cancel:
            rest += [(-f, -sign) for f, sign in rest]
        b = _stepwise(r, coef, ops)
        a = _stepwise(r, data.draw(st.fractions(max_denominator=9)),
                      [(f.scale(k), sign) for (f, sign), k in zip(ops, scales)] + rest)
        q = proportional(a, b)
        assert (q is None) == bool((a / b).factors)
        if cancel or not rest:
            assert q is not None
        if q is None:
            return
        for p in data.draw(st.lists(_points(r), min_size=3, max_size=3)):
            try:
                va, vb = a.evaluate(p), b.evaluate(p)
            except PoleError:
                continue
            assert va == q * vb


class TestConvert:
    def test_hecke_exponents(self):
        p = ParameterPoint(1, Fraction(1, 2), [0])
        out = convert_parameters(p, "hecke")
        assert out["q_exponent"] == Fraction(-1, 2)
        assert out["Q_exponents"] == (Fraction(0),)

    def test_gordon(self):
        p = ParameterPoint(2, Fraction(1, 3), [1, -1])
        out = convert_parameters(p, "gordon")
        assert out["h"] == Fraction(-1, 3)
        # H_j = (d_{j-1} - d_j)/r
        assert out["H"] == (Fraction(-1), Fraction(1))

    def test_rouquier_zero(self):
        p = ParameterPoint(3, 1, [0, 0, 0])
        out = convert_parameters(p, "rouquier")
        assert out["h_j"] == (0, 0, 0)

    def test_unknown(self):
        with pytest.raises(ValueError):
            convert_parameters(ParameterPoint(1, 0, [0]), "nope")


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("5") == 5
    with pytest.raises(ValueError, match="'1/0'"):
        parse_rational("1/0")
