import hashlib
import json
from fractions import Fraction

import pytest

from cherednik_kit.aspherical import (
    LinearCharacter,
    factor_cover_check,
    hyperplanes_rectangle,
    hyperplanes_rpn,
    hyperplanes_sqrt,
    hyperplanes_twisted,
    is_aspherical,
    max_rectangle_rows,
)
from cherednik_kit.scalars import AffineForm, ParameterPoint


def keys(planes):
    return [h.form.key() for h in planes]


class TestFamilies:
    def test_r1_is_c0_family_only(self):
        for n in (1, 2, 3, 4, 5, 6):
            planes = hyperplanes_rectangle(1, n)
            assert all(h.kind == "c0" for h in planes)
            got = {Fraction(-h.form.const, h.form.c0) for h in planes}
            assert got == {Fraction(-k, m) for m in range(2, n + 1) for k in range(1, m)}

    def test_r2_n1(self):
        planes = hyperplanes_rectangle(2, 1)
        assert keys(planes) == [AffineForm(2, const=1, d={0: 1, 1: -1}).key()]

    def test_rectangle_equals_sqrt(self):
        for r in (1, 2, 3, 4):
            for n in range(1, 7):
                assert keys(hyperplanes_rectangle(r, n)) == keys(hyperplanes_sqrt(r, n))

    def test_sqrt_n1_hand(self):
        planes = hyperplanes_sqrt(2, 1)
        assert len(planes) == 1 and planes[0].kind == "d"
        assert (planes[0].k, planes[0].l, planes[0].m) == (1, 1, 0)

    def test_monotone_in_n(self):
        for r in (1, 2, 3):
            for n in range(1, 6):
                assert set(keys(hyperplanes_rectangle(r, n))) <= set(
                    keys(hyperplanes_rectangle(r, n + 1)))

    def test_integer_rows_bound(self):
        assert max_rectangle_rows(3, 0) == 1
        assert max_rectangle_rows(4, 0) == 2
        assert max_rectangle_rows(3, -2) == 3
        assert max_rectangle_rows(1, 0) == 1

    def test_dedup(self):
        planes = hyperplanes_rectangle(1, 4)
        assert len(set(keys(planes))) == len(planes)
        # -2/4 collapses onto -1/2
        assert sum(1 for h in planes if Fraction(-h.form.const, h.form.c0) == Fraction(-1, 2)) == 1


class TestMembership:
    def test_c0_witness(self):
        flag, wit = is_aspherical(ParameterPoint(1, Fraction(-1, 2), [0]), 1, 2)
        assert flag and wit[0].kind == "c0" and (wit[0].k, wit[0].m) == (1, 2)

    def test_positive_c0_r1(self):
        flag, wit = is_aspherical(ParameterPoint(1, Fraction(1, 3), [0]), 1, 2)
        assert not flag and wit == []

    def test_d_membership(self):
        p = ParameterPoint(2, Fraction(13, 5), [Fraction(0), Fraction(1)])
        flag, wit = is_aspherical(p, 2, 1)
        assert flag and wit[0].kind == "d"
        p2 = ParameterPoint(2, Fraction(13, 5), [Fraction(0), Fraction(2)])
        assert not is_aspherical(p2, 2, 1)[0]


class TestTwists:
    def test_trivial_character(self):
        for r, n in [(1, 3), (2, 2), (3, 2)]:
            assert keys(hyperplanes_twisted(r, n, LinearCharacter(0, 0))) == keys(
                hyperplanes_rectangle(r, n))

    def test_sign_flips_c0(self):
        planes = hyperplanes_twisted(1, 3, LinearCharacter(1, 0))
        got = {Fraction(-h.form.const, h.form.c0) for h in planes}
        assert got == {Fraction(k, m) for m in range(2, 4) for k in range(1, m)}

    def test_double_twist_involution(self):
        for r, n in [(2, 2), (3, 2)]:
            for j in range(r):
                xi = LinearCharacter(1, j)
                once = hyperplanes_twisted(r, n, xi)
                # applying the parameter substitution twice is the identity:
                # twisting by (1, j) then (1, -j) recovers the original forms
                def substitute(h):
                    f = h.form
                    d = [Fraction(0)] * r
                    for l, coef in enumerate(f.d):
                        d[(l + (r - j)) % r] += coef
                    return AffineForm(r, f.const, -f.c0, d).primitive()[0].key()
                back = sorted(substitute(h) for h in once)
                assert back == sorted(keys(hyperplanes_rectangle(r, n)))

    def test_rotation_relabels_d(self):
        base = hyperplanes_rectangle(2, 1)[0]
        rot = hyperplanes_twisted(2, 1, LinearCharacter(0, 1))
        assert len(rot) == 1
        assert rot[0].form == AffineForm(2, const=1, d={0: -1, 1: 1}).primitive()[0]
        assert base.form != rot[0].form


class TestRpn:
    def test_p1_identity(self):
        for r, n in [(2, 3), (3, 3)]:
            assert keys(hyperplanes_rpn(r, 1, n)) == keys(hyperplanes_rectangle(r, n))

    def test_needs_n3(self):
        with pytest.raises(ValueError):
            hyperplanes_rpn(2, 2, 2)

    def test_p_divides_r(self):
        with pytest.raises(ValueError):
            hyperplanes_rpn(4, 3, 3)

    def test_r2_p2_collapses_to_c0_conditions(self):
        planes = hyperplanes_rpn(2, 2, 3)
        # d_0 = d_1 forces the d-family onto k = 2 m c0 with k odd
        for h in planes:
            assert all(c == 0 for c in h.form.d)
        odd = [(h.k, h.m) for h in planes if h.kind == "d"]
        assert odd and all(k % 2 == 1 for k, _ in odd)

    def test_idempotent_on_restricted(self):
        planes = hyperplanes_rpn(4, 2, 3)
        # forms already live on the restricted space; restricting again is a no-op
        for h in planes:
            assert len(h.form.d) == 2


class TestFactorCover:
    def test_r1_n2(self):
        rep = factor_cover_check(1, 2)
        assert rep.ok

    def test_r2_n1(self):
        rep = factor_cover_check(2, 1)
        assert rep.ok

    def test_full_audit(self):
        for r in (1, 2, 3):
            for n in (1, 2, 3, 4):
                rep = factor_cover_check(r, n)
                assert rep.ok, (r, n, rep.uncovered_factors, rep.unhit_hyperplanes)


class TestJson:
    def test_shape_of_objects(self):
        objs = [h.as_json_obj() for h in hyperplanes_rectangle(2, 2)]
        for o in objs:
            assert set(o) == {"kind", "k", "l", "m", "form"}
            assert len(o["form"]) == 2 + 2
        blob1 = json.dumps(objs, sort_keys=True)
        blob2 = json.dumps([h.as_json_obj() for h in hyperplanes_rectangle(2, 2)],
                           sort_keys=True)
        assert blob1 == blob2


# every enumeration's output, descriptors and rendering included, over r <= 4
# and n <= 6 (every twist with rotation < r; rpn at p | r, 3 <= n <= 6)
ARRANGEMENT_CALLS = {
    "rectangle": [(hyperplanes_rectangle, (r, n)) for r in range(1, 5) for n in range(1, 7)],
    "sqrt": [(hyperplanes_sqrt, (r, n)) for r in range(1, 5) for n in range(1, 7)],
    "twisted": [(hyperplanes_twisted, (r, n, LinearCharacter(i, j)))
                for r in range(1, 5) for n in range(1, 7) for i in (0, 1) for j in range(r)],
    "rpn": [(hyperplanes_rpn, (r, p, n))
            for r in range(1, 5) for p in range(1, r + 1) if r % p == 0 for n in range(3, 7)],
}


def arrangement_digest(calls):
    h = hashlib.sha256()
    for enumerate_planes, args in calls:
        h.update(f"{args}\n".encode())
        for p in enumerate_planes(*args):
            row = (p.kind, p.k, p.l, p.m, p.form.numerators, p.form.denominator, str(p.form))
            h.update(f"{row}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, digest", [
    pytest.param("rectangle", "f0e716b0e21b6686ff8d3dd4cc4ce86eedc92b7337377486dc3b41a54037859b",
                 id="rectangle"),
    pytest.param("sqrt", "f0e716b0e21b6686ff8d3dd4cc4ce86eedc92b7337377486dc3b41a54037859b",
                 id="sqrt"),
    pytest.param("twisted", "391a72a2fb9c4faadb4aa59038585c8698660805d816264498cac4659d6ab43e",
                 id="twisted"),
    pytest.param("rpn", "15b99210997ea97697e045057de17b016543158c1b9ce2d35908adcb6654eaa0",
                 id="rpn"),
])
def test_arrangement_pinned_by_digest(name, digest):
    assert arrangement_digest(ARRANGEMENT_CALLS[name]) == digest
