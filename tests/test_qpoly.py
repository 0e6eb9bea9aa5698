"""Univariate exact polynomial arithmetic."""

from fractions import Fraction

from hlab.oracles import poly_from_values
from hlab.qpoly import QPoly

F = Fraction


def test_trailing_zeros_trimmed():
    assert QPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert QPoly([0, 0]).is_zero()
    assert QPoly([]).degree == -1


def test_eval_horner():
    P = QPoly([1, F(3, 2), F(1, 2)])
    assert P(0) == 1
    assert P(2) == 6
    assert P(F(-1, 2)) == F(3, 8)


def test_arithmetic():
    P, Q = QPoly([1, 1]), QPoly([-1, 1])
    assert P * Q == QPoly([-1, 0, 1])
    assert P + Q == QPoly([0, 2])
    assert P - P == QPoly([])
    assert 3 * P == QPoly([3, 3])


def test_divmod_and_gcd():
    P = QPoly([-1, 0, 1])
    q, r = P.divmod(QPoly([1, 1]))
    assert q == QPoly([-1, 1]) and r.is_zero()
    a = QPoly([-1, 1]) * QPoly([-1, 1]) * QPoly([2, 1])  # (m-1)^2 (m+2)
    g = a.gcd(a.derivative())
    assert g == QPoly([-1, 1])  # the double factor, monic
    assert a.squarefree_part() == QPoly([-1, 1]) * QPoly([2, 1])


def test_shift():
    P = QPoly([0, 0, 1])
    assert P.shift(1) == QPoly([1, 2, 1])
    assert P.shift(F(-1, 2))(F(1, 2)) == 0


def test_interpolation_oracle():
    P = QPoly([2, -3, F(1, 2)])
    pts = [(m, P(m)) for m in range(3)]
    assert poly_from_values(pts) == P


def test_str_formatting():
    assert str(QPoly([1, F(3, 2), F(1, 2)])) == "(1/2)m^2 + (3/2)m + 1"
    assert str(QPoly([0, -1, 1], var="y")) == "y^2 - y"
    assert str(QPoly([])) == "0"
    assert str(QPoly([F(-1, 3)])) == "-1/3"
