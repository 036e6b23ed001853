import hashlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from polarlab.gf import (
    MAX_DEGREE,
    FieldError,
    FieldSpec,
    field_of_order,
    is_prime,
    least_irreducible,
    make_field,
)

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16]


@pytest.mark.parametrize("q", ORDERS)
def test_field_sizes(q):
    F = field_of_order(q)
    assert F.order == q
    assert len(list(F.elements())) == q


def test_rejects_non_prime_powers():
    for q in (1, 6, 10, 12):
        with pytest.raises(FieldError):
            field_of_order(q)


@pytest.mark.parametrize("p,h,message", [
    (4, 1, "4 is not prime"),
    (2, 5, "extension degree 5 outside 1..4"),
    (257, 2, "order 66049 exceeds desk-scale cap 65536"),
])
def test_make_field_refuses_bad_parameters(p, h, message):
    with pytest.raises(FieldError, match=f"^{message}$"):
        make_field(p, h)


@pytest.mark.parametrize("q", [2 ** 20, 65537, 2 ** 61 - 1])
def test_order_over_the_cap_refused_first(q):
    # before the divisor search, which for 2^61 - 1 would try every p < q
    with pytest.raises(FieldError, match=f"^order {q} exceeds desk-scale cap 65536$"):
        field_of_order(q)


def test_least_irreducible_moduli():
    # lexicographically least monic irreducible, low degree first
    assert least_irreducible(2, 2) == (1, 1, 1)
    assert least_irreducible(3, 2) == (1, 0, 1)
    assert least_irreducible(2, 4) == (1, 1, 0, 0, 1)
    assert least_irreducible(2, 3) == (1, 1, 0, 1)
    assert least_irreducible(3, 3) == (1, 2, 0, 1)
    assert least_irreducible(3, 4) == (2, 1, 0, 0, 1)
    assert least_irreducible(5, 2) == (2, 0, 1)
    assert least_irreducible(13, 4) == (2, 0, 0, 0, 1)


def test_generators_and_exp_tables_pinned():
    # (order, generator, exp table) of every supported order up to 81, then
    # 625 and 2401, each from a fresh spec: the exp table is the powers of the
    # first generator, and products are reduced by the modulus
    fields = sorted((p ** h, p, h) for p in range(2, 82) if is_prime(p)
                    for h in range(1, MAX_DEGREE + 1) if p ** h <= 81)
    got = []
    for _q, p, h in fields + [(625, 5, 4), (2401, 7, 4)]:
        F = FieldSpec(p, h, least_irreducible(p, h))
        got.append((F.order, F.generator, F._exp))
    assert len(got) == 32
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "0634729460fdda75625864c4f8f0075aadd7b45e9659206bb76ea4b30af9214e")


@st.composite
def field_and_pair(draw):
    F = field_of_order(draw(st.sampled_from(ORDERS)))
    a = draw(st.integers(0, F.order - 1))
    b = draw(st.integers(0, F.order - 1))
    return F, a, b


@given(field_and_pair())
def test_ring_axioms(fab):
    F, a, b = fab
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(a, F.neg(a)) == 0
    assert F.mul(a, 1) == a
    assert F.sub(a, b) == F.add(a, F.neg(b))


@given(field_and_pair(), st.integers(0, 15))
def test_distributivity_and_pow(fab, c):
    F, a, b = fab
    c %= F.order
    lhs = F.mul(a, F.add(b, c))
    rhs = F.add(F.mul(a, b), F.mul(a, c))
    assert lhs == rhs
    if a:
        assert F.pow(a, F.order - 1) == 1


@pytest.mark.parametrize("q", ORDERS)
def test_inverses(q):
    F = field_of_order(q)
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [4, 9, 16])
def test_conjugation_is_involutory_subfield_fixing(q):
    F = field_of_order(q)
    assert F.has_conjugation
    r = F.sqrt_order
    for a in F.elements():
        assert F.conj(F.conj(a)) == a
        assert F.conj(a) == F.pow(a, r)
    # the fixed elements are a subfield of order r
    fixed = {a for a in F.elements() if F.conj(a) == a}
    assert len(fixed) == r
    for a in fixed:
        for b in fixed:
            assert F.add(a, b) in fixed and F.mul(a, b) in fixed


def test_no_conjugation_on_odd_degree():
    F = field_of_order(8)
    assert not F.has_conjugation
    with pytest.raises(FieldError):
        F.sqrt_order


def test_make_field_is_cached():
    assert make_field(2, 2) is make_field(2, 2)


@pytest.mark.parametrize("q,p", [(4, 2), (9, 3), (16, 2), (125, 5), (343, 7),
                                 (529, 23), (625, 5)])
def test_addition_without_table_is_digitwise(q, p):
    # sums by Zech logarithms agree with adding the base-p digits
    F = field_of_order(q)

    def digitwise(a, b, sign=1):
        out, place = 0, 1
        while a or b:
            out += (a % p + sign * (b % p)) % p * place
            a, b, place = a // p, b // p, place * p
        return out

    for a in range(q):
        assert F.neg(a) == digitwise(0, a, -1)
        for b in range(a % 7, q, 7):
            assert F.add(a, b) == digitwise(a, b)
            assert F.sub(a, b) == digitwise(a, b, -1)
        assert F.add(a, F.neg(a)) == 0


def test_pow_of_zero():
    F = field_of_order(5)
    assert F.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError, match="^negative power of 0$"):
        F.pow(0, -1)


def test_field_keeps_tables_of_q_entries():
    # the exp, log and Zech lists hold q entries each; a table of q^2 sums
    # would take megabytes
    modulus = least_irreducible(509, 1)
    tracemalloc.start()
    try:
        F = FieldSpec(509, 1, modulus)
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10
