"""Exact arithmetic in small finite fields GF(p^h).

Elements are plain ints in [0, p^h): the base-p digit packing of the
polynomial residue, so the prime subfield is literally {0, 1, ..., p-1}.
A FieldSpec carries the modulus and precomputed exp/log tables; all
operations are pure and the spec is immutable after construction.

Only desk-scale orders are supported (h <= 4, p^h <= 2^16).  Anything
larger is rejected rather than degraded.
"""

from __future__ import annotations

from functools import lru_cache

MAX_DEGREE = 4
MAX_ORDER = 1 << 16


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p), coefficient lists low-degree first --


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p):
    a = list(a)
    _poly_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quo = [0] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        shift = len(a) - 1 - db
        c = (a[-1] * inv_lead) % p
        quo[shift] = c
        for i in range(len(b)):
            a[shift + i] = (a[shift + i] - c * b[i]) % p
        _poly_trim(a)
    return quo, a


def _is_irreducible(coeffs, p) -> bool:
    """coeffs: monic, low-first.  Trial division by every monic
    polynomial of degree 1..h//2."""
    h = len(coeffs) - 1
    for d in range(1, h // 2 + 1):
        for tail in range(p ** d):
            divisor = [tail // p ** i % p for i in range(d)] + [1]
            if not _poly_divmod(coeffs, divisor, p)[1]:
                return False
    return True


def least_irreducible(p: int, h: int) -> tuple[int, ...]:
    """The first monic irreducible of degree h over GF(p), scanning the
    lower coefficients (c_0 + c_1 x + ...) in ascending base-p order."""
    for tail in range(p ** h):
        coeffs = [tail // p ** i % p for i in range(h)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible polynomial of degree {h} over GF({p})")


class FieldSpec:
    """GF(p^h) with multiplication via exp/log tables."""

    def __init__(self, p: int, h: int, modulus: tuple[int, ...]):
        self.p = p
        self.h = h
        self.order = p ** h
        self.modulus = modulus
        self._build_tables()

    # -- raw residue arithmetic used only to bootstrap the tables --

    def _digits(self, a: int):
        out = []
        for _ in range(self.h):
            out.append(a % self.p)
            a //= self.p
        return out

    def _pack(self, digits) -> int:
        acc = 0
        for d in reversed(digits):
            acc = acc * self.p + d
        return acc

    def _raw_mul(self, a: int, b: int) -> int:
        p = self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.h - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return self._pack(_poly_divmod(prod, self.modulus, p)[1])

    def _build_tables(self):
        q = self.order
        self._add = None
        if q <= 512:
            self._add = [[self._pack([(x + y) % self.p for x, y in
                                      zip(self._digits(a), self._digits(b))])
                          for b in range(q)] for a in range(q)]
        # the first generator of the (cyclic) multiplicative group: the
        # powers that the search walks to find it are the exp table
        for g in range(1, q):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._raw_mul(x, g)
            if len(exp) == q - 1:
                break
        else:
            raise FieldError("no multiplicative generator found")
        self.generator, self._exp, self._log = g, exp, [0] * q
        for k, x in enumerate(exp):
            self._log[x] = k

    # -- public operations --

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return self._pack([(x + y) % self.p for x, y in
                           zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        return self._pack([(-x) % self.p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + str(self))
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def elements(self) -> range:
        return range(self.order)

    @property
    def has_conjugation(self) -> bool:
        return self.h % 2 == 0

    @property
    def sqrt_order(self) -> int:
        """q such that the field is GF(q^2)."""
        if not self.has_conjugation:
            raise FieldError(f"order {self.order} is not a square")
        return self.p ** (self.h // 2)

    def conj(self, a: int) -> int:
        """The involution x -> x^q on GF(q^2)."""
        return self.pow(a, self.sqrt_order)

    def __repr__(self):
        return f"GF({self.order})"


@lru_cache(maxsize=None)
def make_field(p: int, h: int) -> FieldSpec:
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if not 1 <= h <= MAX_DEGREE:
        raise FieldError(f"extension degree {h} outside 1..{MAX_DEGREE}")
    if p ** h > MAX_ORDER:
        raise FieldError(f"order {p**h} exceeds desk-scale cap {MAX_ORDER}")
    return FieldSpec(p, h, least_irreducible(p, h))


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            h = 0
            m = q
            while m > 1:
                if m % p:
                    raise FieldError(f"{q} is not a prime power")
                m //= p
                h += 1
            return make_field(p, h)
    raise FieldError(f"{q} is not a prime power")

