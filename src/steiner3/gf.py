"""Exact arithmetic in GF(p^d) with a canonical element enumeration.

An element is its index, the base-p integer encoding of its coefficient
vector in the polynomial basis: index 0 is zero, index 1 is one, and the
index of ``c0 + c1*x + ... + c_{d-1}*x^{d-1}`` is ``sum(c_i * p**i)``.
The modulus is the monic irreducible polynomial of degree d whose own
integer encoding is smallest, so every context is reproducible from
(p, d) alone.  The multiplicative generator ``omega`` is the element of
full order with the smallest index.  Arithmetic keeps no tables at any
order: products are schoolbook, reduced by the modulus, and powers are
square-and-multiply.
"""

from __future__ import annotations

from functools import reduce

from .errors import Steiner3Error

MAX_ORDER = 1 << 20


class FieldError(Steiner3Error, ValueError):
    """Invalid field parameters or an undefined field operation."""


def exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base ** exponent > bound.  The power is at least
    2^(exponent * (bits of base - 1)), so a large one is rejected unformed."""
    return exponent * (base.bit_length() - 1) >= bound.bit_length() or base**exponent > bound


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: multiplicity}."""
    if n < 1:
        raise FieldError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return next(iter(fac.items()))


def power_exponent(r: int, p: int) -> int | None:
    """The e >= 0 with r == p**e, for a base p >= 2, or None if there is none."""
    e = 0
    while r > 1 and r % p == 0:
        r //= p
        e += 1
    return e if r == 1 else None


# -- polynomial helpers over GF(p); a polynomial is its own base-p encoding --

def _poly_coeffs(enc: int, p: int) -> list[int]:
    out = []
    while enc:
        enc, c = divmod(enc, p)
        out.append(c)
    return out


def _poly_enc(coeffs: list[int], p: int) -> int:
    return reduce(lambda acc, c: acc * p + c, reversed(coeffs), 0)


def _poly_mod(num: int, den: int, p: int) -> int:
    a = _poly_coeffs(num, p)
    b = _poly_coeffs(den, p)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        factor = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
    return _poly_enc(a, p)


def _poly_is_irreducible(enc: int, degree: int, p: int) -> bool:
    # trial division by every monic polynomial of degree 1..degree//2
    for deg in range(1, degree // 2 + 1):
        lead = p ** deg
        for low in range(lead):
            if _poly_mod(enc, lead + low, p) == 0:
                return False
    return True


def _smallest_irreducible(p: int, d: int) -> int:
    for enc in range(p ** d, 2 * p ** d):
        if _poly_is_irreducible(enc, d, p):
            return enc
    raise FieldError(f"no irreducible polynomial of degree {d} over GF({p})")


class FieldContext:
    """GF(p^d) in the polynomial basis of its canonical modulus.

    Elements are their indices 0..order-1: every public operation takes
    and returns indices, and rejects an index outside that range with
    FieldError.  ``omega`` is the index of the multiplicative generator.
    It keeps no exp/log tables at any order.  Immutable after
    construction; all operations are pure.
    """

    def __init__(self, p: int, d: int):
        if d < 1:
            raise FieldError(f"extension degree must be >= 1, got {d}")
        if exceeds(p, d, MAX_ORDER):
            raise FieldError(f"field order {p}^{d} exceeds the {MAX_ORDER} bound")
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        self.p = p
        self.d = d
        self.order = p ** d
        mod_enc = _smallest_irreducible(p, d)
        self.modulus: tuple[int, ...] = tuple(_poly_coeffs(mod_enc, p))
        self._mod_enc = mod_enc
        self.omega = self._find_primitive()

    # -- construction internals --

    def _find_primitive(self) -> int:
        n = self.order - 1
        primes = list(factorize(n)) if n > 1 else []
        for idx in range(1, self.order):
            if all(self._pow(idx, n // ell) != 1 for ell in primes):
                if self._pow(idx, n) != 1:
                    raise FieldError("primitive candidate violates Lagrange")  # defensive
                return idx
        raise FieldError("no primitive element found")  # unreachable

    # -- unchecked index arithmetic --

    def _mul_raw(self, a: int, b: int) -> int:
        # schoolbook product of coefficient vectors, reduced by the modulus
        ca = _poly_coeffs(a, self.p)
        cb = _poly_coeffs(b, self.p)
        prod = [0] * (len(ca) + len(cb) - 1) if ca and cb else []
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        mod = self.modulus
        for top in range(len(prod) - 1, self.d - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i in range(self.d):
                    prod[top - self.d + i] = (prod[top - self.d + i] - c * mod[i]) % self.p
        return _poly_enc(prod, self.p)

    def _pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _check(self, *indices: int) -> None:
        for a in indices:
            if not 0 <= a < self.order:
                raise FieldError(f"index {a} out of range for GF({self.p}^{self.d})")

    def _poly_str(self, enc: int) -> str:
        parts = []
        for i, c in enumerate(_poly_coeffs(enc, self.p)):
            if not c:
                continue
            coeff = "" if (c == 1 and i > 0) else str(c)
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{coeff}x")
            else:
                parts.append(f"{coeff}x^{i}")
        return "+".join(reversed(parts))

    # -- public surface: element indices in, element indices out --

    def __repr__(self):
        return f"FieldContext(GF({self.p}^{self.d}), modulus={self._poly_str(self._mod_enc)})"

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        out, shift = 0, 1
        while a or b:
            a, ca = divmod(a, self.p)
            b, cb = divmod(b, self.p)
            out += (ca + cb) % self.p * shift
            shift *= self.p
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        out, shift = 0, 1
        while a:
            a, c = divmod(a, self.p)
            out += (-c) % self.p * shift
            shift *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("inversion of zero")
        return self._pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a ** e; a negative e inverts a first."""
        if e < 0:
            return self._pow(self.inv(a), -e)
        self._check(a)
        return self._pow(a, e)

    def frobenius(self, a: int, r: int) -> int:
        """a ** r where r must be a power of the characteristic."""
        self._check(a)
        if power_exponent(r, self.p) is None:
            raise FieldError(f"{r} is not a power of the characteristic {self.p}")
        return self._pow(a, r)

    def multiplicative_order(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("zero has no multiplicative order")
        n = self.order - 1
        order = n
        for ell, mult in factorize(n).items() if n > 1 else []:
            for _ in range(mult):
                if self._pow(a, order // ell) == 1:
                    order //= ell
                else:
                    break
        return order

    def primitive_sixth_root(self) -> int:
        """The smallest index of multiplicative order exactly 6."""
        if (self.order - 1) % 6 != 0:
            raise FieldError(f"6 does not divide {self.order} - 1")
        for idx in range(2, self.order):
            if (
                self._pow(idx, 6) == 1
                and self._pow(idx, 2) != 1
                and self._pow(idx, 3) != 1
            ):
                return idx
        raise FieldError("no element of order 6 found")  # unreachable given the pre

    def subfield_indices(self, q: int) -> list[int]:
        """Indices of the subfield {a : a^q == a}; q must be p^e with e | d."""
        e = power_exponent(q, self.p)
        if not e or self.d % e:
            raise FieldError(f"GF({q}) is not a subfield of GF({self.p}^{self.d})")
        return [i for i in range(self.order) if self._pow(i, q) == i]
