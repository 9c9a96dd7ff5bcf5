"""Field arithmetic against independent brute-force oracles."""

import random
import time
import tracemalloc

import pytest

from steiner3 import gf
from steiner3.gf import FieldContext, FieldError, factorize, is_prime, prime_power


def brute_order_mod_p(g: int, p: int) -> int:
    """Multiplicative order by repeated multiplication, plain ints."""
    value, order = g % p, 1
    while value != 1:
        value = value * g % p
        order += 1
    return order


def gf2_poly_mulmod(a: int, b: int, modulus: int, degree: int) -> int:
    """Carry-less multiply then reduce; independent of the package."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    for top in range(prod.bit_length() - 1, degree - 1, -1):
        if (prod >> top) & 1:
            prod ^= modulus << (top - degree)
    return prod


class TestExceeds:
    BOUNDS = [1, 127, 128, 2**20, 2**63, 2**8192]

    def test_against_the_power(self):
        for base in range(1, 41):
            for exponent in range(41):
                power = base**exponent
                for bound in self.BOUNDS + [power - 1, power, power + 1]:
                    if bound >= 1:
                        assert gf.exceeds(base, exponent, bound) == (power > bound), (
                            base, exponent, bound,
                        )

    @pytest.mark.parametrize("base,exponent,bound", [(3, 10**12, 2**63), (2, 10**9, 128)])
    def test_no_large_power_is_formed(self, base, exponent, bound):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            assert gf.exceeds(base, exponent, bound)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert elapsed < 0.01


class TestContextConstruction:
    def test_gf7_has_smallest_primitive_root(self):
        want = next(g for g in range(2, 7) if brute_order_mod_p(g, 7) == 6)
        assert want == 3
        assert FieldContext(7, 1).omega == 3

    def test_gf8_modulus_is_smallest_irreducible_cubic(self):
        # oracle: a GF(2) cubic is reducible iff it has a root in {0, 1}
        def cubic_irreducible(enc):
            at0 = enc & 1
            at1 = bin(enc).count("1") & 1
            return at0 and at1

        candidates = [enc for enc in range(8, 16) if cubic_irreducible(enc)]
        assert min(candidates) == 0b1011  # x^3 + x + 1
        assert FieldContext(2, 3).modulus == (1, 1, 0, 1)

    def test_gf9_modulus(self):
        assert FieldContext(3, 2).modulus == (1, 0, 1)  # x^2 + 1

    def test_non_prime_characteristic_rejected(self):
        with pytest.raises(FieldError):
            FieldContext(4, 1)

    def test_order_bound_rejected(self):
        with pytest.raises(FieldError):
            FieldContext(2, 21)

    @pytest.mark.parametrize(
        "p,d,message",
        [
            (4, 1, "characteristic 4 is not prime"),
            (2, 21, "field order 2\\^21 exceeds"),
            (2, 0, "extension degree must be >= 1"),
        ],
    )
    def test_each_fault_keeps_its_message(self, p, d, message):
        with pytest.raises(FieldError, match=message):
            FieldContext(p, d)

    @pytest.mark.parametrize("p,d", [(2**61 - 1, 1), (3, 10**7), (2**61 - 1, 10**7)])
    def test_order_bounded_before_primality_and_power(self, p, d, monkeypatch):
        def guarded(n):
            assert n <= 2**20, f"is_prime({n}) called"
            return is_prime(n)

        monkeypatch.setattr(gf, "is_prime", guarded)
        tracemalloc.start()
        try:
            with pytest.raises(FieldError, match="exceeds the 1048576 bound"):
                FieldContext(p, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # 3^(10^7) alone would take 2 MB

    def test_enumeration_is_total(self):
        ctx = FieldContext(3, 2)
        for a in range(ctx.order):
            assert ctx.add(a, 0) == a  # index 0 is zero
            assert ctx.mul(a, 1) == a  # index 1 is one
        # index 5 encodes coefficients (2, 1): 2 + x
        assert ctx.add(2, 3) == 5

    @pytest.mark.parametrize("index", [-1, 9, 10**6])
    def test_index_out_of_range_rejected(self, index):
        ctx = FieldContext(3, 2)
        for call in (
            lambda: ctx.add(index, 1),
            lambda: ctx.add(1, index),
            lambda: ctx.neg(index),
            lambda: ctx.mul(index, 1),
            lambda: ctx.mul(1, index),
            lambda: ctx.inv(index),
            lambda: ctx.pow(index, 2),
            lambda: ctx.pow(index, -2),
            lambda: ctx.frobenius(index, 3),
            lambda: ctx.multiplicative_order(index),
        ):
            with pytest.raises(FieldError, match="out of range"):
                call()


class TestArithmetic:
    def test_gf7_inverse_by_scan(self):
        want = next(y for y in range(1, 7) if 3 * y % 7 == 1)
        assert want == 5
        ctx = FieldContext(7, 1)
        assert ctx.inv(3) == 5

    def test_gf8_multiplication_against_carryless_oracle(self):
        ctx = FieldContext(2, 3)
        for a in range(8):
            for b in range(8):
                want = gf2_poly_mulmod(a, b, 0b1011, 3)
                assert ctx.mul(a, b) == want
        # x * x^2 = x + 1
        assert ctx.mul(2, 4) == 3

    def test_multiplicative_identity(self):
        for ctx in (FieldContext(7, 1), FieldContext(2, 3), FieldContext(5, 2)):
            for a in range(ctx.order):
                assert ctx.mul(a, 1) == a

    def test_inversion_of_zero_rejected(self):
        ctx = FieldContext(2, 3)
        with pytest.raises(FieldError):
            ctx.inv(0)

    def test_context_mismatch_rejected(self):
        # 6 is an element index of GF(7) but out of range for GF(5)
        assert FieldContext(7, 1).add(6, 3) == 2
        with pytest.raises(FieldError):
            FieldContext(5, 1).add(6, 3)

    def test_field_axioms_sampled(self):
        ctx = FieldContext(3, 2)
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                if b:
                    assert ctx.mul(ctx.mul(a, b), ctx.inv(b)) == a

    def test_negative_exponent(self):
        ctx = FieldContext(7, 1)
        assert ctx.pow(3, -1) == ctx.inv(3)
        assert ctx.pow(3, -2) == ctx.inv(ctx.mul(3, 3))

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_characteristic_two_adds_by_xor(self, d):
        ctx = FieldContext(2, d)
        for a in range(ctx.order):
            assert ctx.neg(a) == a
            for b in range(ctx.order):
                assert ctx.add(a, b) == a ^ b


def reference_log_tables(ctx: FieldContext) -> tuple[list[int], dict[int, int]]:
    """exp[i] = omega^i for i < order - 1, built by repeated multiplication
    by omega, and its inverse map log; both are checked to be bijections
    onto the nonzero elements, so omega generates the group."""
    n = ctx.order - 1
    exp = [1]
    for _ in range(n - 1):
        exp.append(ctx.mul(exp[-1], ctx.omega))
    log = {value: i for i, value in enumerate(exp)}
    assert sorted(log) == list(range(1, ctx.order))
    return exp, log


def catalogue_fields():
    """GF(q) for every prime power q <= 128: the fields the projective and
    affine constructions and group tables build."""
    return [pp for q in range(2, 129) if (pp := prime_power(q))]


class TestAgainstLogTables:
    """`mul`, `inv` and `pow` against exp/log tables of omega, the
    arithmetic small fields once used, kept here as the reference."""

    @pytest.mark.parametrize("p,d", catalogue_fields())
    def test_catalogue_fields(self, p, d):
        ctx = FieldContext(p, d)
        exp, log = reference_log_tables(ctx)
        n = ctx.order - 1
        for a in range(ctx.order):
            want = [0] * ctx.order if a == 0 else [0] + [exp[(log[a] + log[b]) % n] for b in log]
            assert [ctx.mul(a, b) for b in [0, *log]] == want
        exponents = sorted({0, 1, 2, 3, n - 1, n, n + 1, 2 * n + 5, 7 * ctx.order})
        for a in log:
            assert ctx.inv(a) == exp[-log[a] % n]
            for e in exponents:
                assert ctx.pow(a, e) == exp[log[a] * e % n]
                assert ctx.pow(a, -e) == exp[-log[a] * e % n]
        assert [ctx.pow(0, e) for e in exponents] == [1] + [0] * (len(exponents) - 1)


class TestTableFreeArithmetic:
    """Fields of more than 2^16 elements, checked against oracles that
    use no field tables: carry-less products, inverses and Fermat."""

    @pytest.fixture(scope="class")
    def fields(self):
        return [FieldContext(2, 17), FieldContext(3, 11)]

    def test_products_against_carryless_oracle(self, fields):
        ctx = fields[0]
        modulus = sum(c << i for i, c in enumerate(ctx.modulus))
        rng = random.Random(17)
        for _ in range(300):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.mul(a, b) == gf2_poly_mulmod(a, b, modulus, 17)

    def test_inverses_and_fermat(self, fields):
        rng = random.Random(11)
        for ctx in fields:
            for _ in range(20):
                a = rng.randrange(1, ctx.order)
                assert ctx.mul(a, ctx.inv(a)) == 1
                assert ctx.pow(a, ctx.order - 1) == 1
                assert ctx.pow(a, ctx.order) == a


class TestFrobenius:
    def test_order_divides_degree(self):
        ctx = FieldContext(2, 3)
        a = ctx.omega
        for _ in range(3):
            a = ctx.frobenius(a, 2)
        assert a == ctx.omega

    def test_prime_field_fixed(self):
        ctx = FieldContext(7, 1)
        assert ctx.frobenius(3, 7) == 3

    def test_gf9_cube_of_x_is_minus_x(self):
        ctx = FieldContext(3, 2)
        x = 3
        assert ctx.frobenius(x, 3) == ctx.neg(x)

    def test_non_p_power_rejected(self):
        ctx = FieldContext(2, 3)
        with pytest.raises(FieldError):
            ctx.frobenius(ctx.omega, 6)


class TestPrimitiveSixthRoot:
    @pytest.mark.parametrize("p,want", [(7, 3), (19, 8), (31, 6)])
    def test_prime_fields_by_scan(self, p, want):
        oracle = next(g for g in range(2, p) if brute_order_mod_p(g, p) == 6)
        assert oracle == want
        assert FieldContext(p, 1).primitive_sixth_root() == want

    def test_gf31_cube_is_minus_one(self):
        ctx = FieldContext(31, 1)
        eps = ctx.primitive_sixth_root()
        assert ctx.pow(eps, 3) == ctx.neg(1)

    def test_rejected_without_sixth_roots(self):
        with pytest.raises(FieldError):
            FieldContext(2, 3).primitive_sixth_root()  # 6 does not divide 7

    def test_quadratic_identity_across_small_fields(self):
        # every admissible p^d <= 2^12: eps^6 = 1, eps^2 != 1, eps^3 != 1,
        # and eps^2 - eps + 1 = 0
        cases = []
        for p in range(2, 64):
            if not is_prime(p):
                continue
            d = 1
            while p**d <= 4096:
                if (p**d - 1) % 6 == 0:
                    cases.append((p, d))
                d += 1
        assert (7, 1) in cases and (5, 2) in cases and (19, 1) in cases
        for p, d in cases:
            ctx = FieldContext(p, d)
            eps = ctx.primitive_sixth_root()
            assert ctx.pow(eps, 6) == 1
            assert ctx.pow(eps, 2) != 1
            assert ctx.pow(eps, 3) != 1
            assert ctx.add(ctx.add(ctx.mul(eps, eps), ctx.neg(eps)), 1) == 0


class TestMultiplicativeGroup:
    @pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (7, 1), (2, 5), (5, 2)])
    def test_omega_generates_everything(self, p, d):
        ctx = FieldContext(p, d)
        seen = set()
        value = 1
        for _ in range(ctx.order - 1):
            seen.add(value)
            value = ctx.mul(value, ctx.omega)
        assert len(seen) == ctx.order - 1
        assert value == 1  # omega^(q-1) = 1

    @pytest.mark.parametrize("p,d", [(2, 4), (3, 3), (13, 1)])
    def test_fermat(self, p, d):
        ctx = FieldContext(p, d)
        for a in range(1, ctx.order):
            assert ctx.pow(a, ctx.order - 1) == 1

    @pytest.mark.parametrize("p", [2, 3, 7, 13, 31, 97])
    def test_multiplicative_order_in_prime_fields(self, p):
        ctx = FieldContext(p, 1)
        for g in range(1, p):
            assert ctx.multiplicative_order(g) == brute_order_mod_p(g, p)

    @pytest.mark.parametrize("p,d", [(2, 4), (3, 2), (2, 6)])
    def test_multiplicative_order_in_extension_fields(self, p, d):
        # oracle: repeated multiplication until the value returns to one
        ctx = FieldContext(p, d)
        for a in range(1, ctx.order):
            value, order = a, 1
            while value != 1:
                value = ctx.mul(value, a)
                order += 1
            assert ctx.multiplicative_order(a) == order
        assert ctx.multiplicative_order(ctx.omega) == ctx.order - 1

    def test_zero_has_no_multiplicative_order(self):
        with pytest.raises(FieldError):
            FieldContext(7, 1).multiplicative_order(0)


class TestSubfields:
    @pytest.mark.parametrize("q,e", [(3, 2), (3, 3), (4, 2), (5, 2)])
    def test_fixed_field_is_a_subfield(self, q, e):
        p, j = prime_power(q)
        ctx = FieldContext(p, j * e)
        sub = ctx.subfield_indices(q)
        assert len(sub) == q
        subset = set(sub)
        for a in sub:
            for b in sub:
                assert ctx.add(a, b) in subset
                assert ctx.mul(a, b) in subset

    def test_non_subfield_rejected(self):
        with pytest.raises(FieldError):
            FieldContext(2, 4).subfield_indices(8)  # GF(8) not inside GF(16)


@pytest.mark.parametrize(
    "p,d,text",
    [(3, 2, "x^2+1"), (2, 3, "x^3+x+1"), (3, 3, "x^3+2x+1")],
)
def test_repr_names_the_modulus(p, d, text):
    assert repr(FieldContext(p, d)) == f"FieldContext(GF({p}^{d}), modulus={text})"


def test_is_prime_below_two():
    assert [n for n in range(-3, 12) if is_prime(n)] == [2, 3, 5, 7, 11]


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorize_below_one(n):
    with pytest.raises(FieldError, match=f"cannot factor {n}"):
        factorize(n)


def test_factorize_and_prime_power():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert prime_power(27) == (3, 3)
    assert prime_power(12) is None
    assert prime_power(1) is None
