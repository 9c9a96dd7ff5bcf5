"""Arithmetic screens, stabilizer identities, cyclotomic and Diophantine ops."""

import random

import pytest

from steiner3.catalog import (
    construct_boolean_affine,
    construct_spherical,
    projective_group_generators,
    affine_group_generators,
)
from steiner3.design import params_of
from steiner3.permgrp import NotFlagTransitive, stabilizer_identities
from steiner3.sieve import (
    CYCLOTOMIC_MAX_BITS,
    SieveError,
    admissible_parameters,
    cyclotomic_eval,
    division_property,
    ramanujan_nagell,
    ramanujan_nagell_block_sizes,
    screen_parameters,
    semilinear_divisibility,
    zsigmondy_ppd,
    _limits,
    _stepped_limits,
)


def admissible_ks(v: int) -> list[int]:
    return [r.k for r in admissible_parameters(v, v) if r.admissible]


class TestSteppedLimits:
    """The sweeps step the block-size bound and the Cameron limits from
    one v to the next; each step must give what `_limits(v)` computes."""

    @pytest.mark.parametrize(
        "v_min, v_max",
        [(4, 20000), (10**6 - 3000, 10**6), (99, 101), (7, 7), (120, 122), (8836, 8840)],
    )
    def test_windows(self, v_min, v_max):
        assert list(_stepped_limits(v_min, v_max)) == [
            (v, _limits(v)) for v in range(v_min, v_max + 1)
        ]

    def test_random_starts(self):
        rng = random.Random(17)
        for _ in range(50):
            v_min = rng.randint(4, 10**6 - 100)
            want = [(v, _limits(v)) for v in range(v_min, v_min + 100)]
            assert list(_stepped_limits(v_min, v_min + 99)) == want


class TestParameterScreen:
    def test_v16_admits_only_k4(self):
        assert admissible_ks(16) == [4]
        failed = next(r for r in admissible_parameters(16, 16) if r.k == 5)
        assert dict(failed.checks)["lambda2_integral"] is False  # 3 does not divide 14

    def test_v22_admits_k4_and_k6(self):
        assert admissible_ks(22) == [4, 6]
        k6 = next(r for r in admissible_parameters(22, 22) if r.k == 6)
        assert k6.cameron_equality and k6.equality_listed

    def test_v8_admits_k4(self):
        assert admissible_ks(8) == [4]

    def test_against_direct_arithmetic(self):
        # independent screen for v = 22
        v = 22
        direct = [
            k
            for k in range(4, 7)
            if v * (v - 1) * (v - 2) % (k * (k - 1) * (k - 2)) == 0
            and (v - 1) * (v - 2) % ((k - 1) * (k - 2)) == 0
            and (v - 2) % (k - 2) == 0
            and v - 2 >= (k - 1) * (k - 2)
            and v >= 4 * (k - 2)
        ]
        assert admissible_ks(22) == direct

    def test_catalogue_parameters_are_admissible(self, catalogue):
        for design in catalogue.values():
            p = params_of(design)
            report = screen_parameters(p.v, p.k)
            assert report.admissible, (p.v, p.k)

    def test_range_validation(self):
        with pytest.raises(SieveError):
            admissible_parameters(3, 10)
        with pytest.raises(SieveError):
            admissible_parameters(10, 4)

    def test_report_serialization(self):
        report = screen_parameters(22, 6)
        payload = report.as_dict()
        assert payload["admissible"] is True
        assert payload["checks"]["cameron_b"] is True


class TestDivisionProperty:
    @pytest.mark.parametrize("r,gx", [(7, 7), (7, 168), (21, 20160)])
    def test_catalogue_values(self, r, gx):
        assert division_property(r, gx)

    def test_failure(self):
        assert not division_property(5, 7)

    def test_positivity(self):
        with pytest.raises(SieveError):
            division_property(0, 7)


class TestStabilizerIdentities:
    def test_spherical32_with_pgl(self):
        design = construct_spherical(3, 2)
        report = stabilizer_identities(design, projective_group_generators("PGL", 3, 2))
        assert report.order == 720
        assert report.g_xy == 8  # 720 / 90
        assert report.g_xb == 6  # 720 / 120
        assert report.block_identity and report.point_identity
        # v - 2 = (k-1)(k-2) g_xy / g_xb: 8 = 6 * 8 / 6
        assert report.v - 2 == 8

    def test_affine3_with_agl18_is_regular(self):
        design = construct_boolean_affine(3)
        report = stabilizer_identities(design, affine_group_generators("AGL_1", 3))
        assert report.g_xy == 1 and report.g_xb == 1
        assert report.ok

    def test_rejects_non_flag_transitive(self):
        design = construct_spherical(3, 2)
        with pytest.raises(NotFlagTransitive):
            stabilizer_identities(design, projective_group_generators("PSL", 3, 2))


class TestCyclotomic:
    def test_phi6_of_2(self):
        result = cyclotomic_eval(6, 2)
        assert (result.phi, result.f, result.n, result.phi_star) == (3, 3, 1, 1)

    def test_phi4_of_2(self):
        result = cyclotomic_eval(4, 2)
        assert (result.phi, result.f, result.phi_star) == (5, 1, 5)

    def test_phi1_of_2(self):
        result = cyclotomic_eval(1, 2)
        assert (result.phi, result.phi_star) == (1, 1)

    def test_reduction_strips_all_copies(self):
        # Phi_2(3) = 4, f = gcd(2,4) = 2, largest power 2^2: star = 1
        result = cyclotomic_eval(2, 3)
        assert (result.phi, result.f, result.n, result.phi_star) == (4, 2, 2, 1)
        assert result.phi_star * result.f**result.n == result.phi

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_product_identity(self, q):
        for d in range(1, 41):
            product = 1
            for e in range(1, d + 1):
                if d % e == 0:
                    product *= cyclotomic_eval(e, q).phi
            assert product == q**d - 1

    @pytest.mark.parametrize("d,q", [(8192, 2), (4096, 4), (5168, 3)])
    def test_largest_power_within_the_cap(self, d, q):
        result = cyclotomic_eval(d, q)
        assert 0 < result.phi < 2**CYCLOTOMIC_MAX_BITS
        assert len(str(result.phi)) <= 2467

    @pytest.mark.parametrize("d,q", [(8193, 2), (4097, 4), (5169, 3), (1, 2**8192 + 1), (100000, 2)])
    def test_power_above_the_cap_rejected(self, d, q):
        with pytest.raises(SieveError, match="2\\^8192"):
            cyclotomic_eval(d, q)

    def test_validation(self):
        with pytest.raises(SieveError):
            cyclotomic_eval(0, 2)
        with pytest.raises(SieveError):
            cyclotomic_eval(3, 1)


class TestZsigmondy:
    def test_the_exception(self):
        assert zsigmondy_ppd(2, 6).primitive_primes == ()

    def test_2_to_4(self):
        assert zsigmondy_ppd(2, 4).primitive_primes == (5,)

    def test_2_to_11(self):
        assert zsigmondy_ppd(2, 11).primitive_primes == (23, 89)

    def test_primes_really_are_primitive(self):
        result = zsigmondy_ppd(3, 10)
        for p in result.primitive_primes:
            assert (3**10 - 1) % p == 0
            for m in range(1, 10):
                assert (3**m - 1) % p != 0

    @pytest.mark.parametrize("q", [2, 3])
    def test_congruence_property(self, q):
        # every primitive prime divisor of q^n - 1 is 1 mod n
        for n in range(2, 21):
            for p in zsigmondy_ppd(q, n).primitive_primes:
                assert p % n == 1

    def test_bounds(self):
        with pytest.raises(SieveError):
            zsigmondy_ppd(2, 64)
        with pytest.raises(SieveError):
            zsigmondy_ppd(1, 3)

    @pytest.mark.parametrize("q,n", [(2, 64), (3, 40), (2**32, 2), (2**63, 2), (2, 10**9), (10**100, 10**9)])
    def test_above_the_factoring_bound(self, q, n):
        with pytest.raises(SieveError, match=f"got q = {q} and n = {n}"):
            zsigmondy_ppd(q, n)

    def test_power_at_the_bound(self):
        q = 2**21  # q^3 = 2^63
        primes = zsigmondy_ppd(q, 3).primitive_primes
        assert primes and all((q**3 - 1) % p == 0 != (q - 1) % p for p in primes)


class TestSemilinearDivisibility:
    @pytest.mark.parametrize("d,k,want", [(3, 4, True), (5, 4, True), (7, 4, False)])
    def test_values(self, d, k, want):
        assert semilinear_divisibility(d, k) is want
        # oracle: plain integer arithmetic
        assert (d * (k - 1) * (k - 2) % (2**d - 2) == 0) is want

    def test_validation(self):
        with pytest.raises(SieveError):
            semilinear_divisibility(2, 4)


class TestRamanujanNagell:
    def test_all_four_solutions(self):
        assert ramanujan_nagell(63) == [(5, 3), (7, 5), (9, 6), (23, 9)]

    def test_prefixes(self):
        assert ramanujan_nagell(4) == [(5, 3)]
        assert ramanujan_nagell(2) == []

    def test_monotone_and_terminal(self):
        previous = []
        for n in range(1, 64):
            current = ramanujan_nagell(n)
            assert current[: len(previous)] == previous
            previous = current
        assert previous == [(5, 3), (7, 5), (9, 6), (23, 9)]

    def test_solutions_actually_solve(self):
        for x, n in ramanujan_nagell(63):
            assert x * x - 17 == 2**n

    def test_block_size_filter(self):
        assert ramanujan_nagell_block_sizes(63) == [(2, 13)]
        e, k = ramanujan_nagell_block_sizes(63)[0]
        assert 2 ** (2 * e + 3) == k * k - 3 * k - 2

    def test_bounds(self):
        with pytest.raises(SieveError):
            ramanujan_nagell(64)
        with pytest.raises(SieveError):
            ramanujan_nagell(0)
