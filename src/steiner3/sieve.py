"""Arithmetic admissibility screens for Steiner 3-design parameters.

Everything here is exact integer arithmetic: counting-identity
integrality, the Cameron bounds, stabilizer-order identities for
flag-transitive actions, cyclotomic evaluation with its reduced variant,
primitive prime divisors, and the x^2 - 17 = 2^n exponential Diophantine
sweep.  For t = 3 and lambda = 1 the pair-count integrality condition is
exactly (k-2) | (v-2), so it appears once under that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .design import CAMERON_EQUALITY_CASES, Design, blocksize_bound, params_of
from .gf import factorize
from .permgrp import GeneratorSet, group_order, is_flag_transitive


CYCLOTOMIC_MAX_BITS = 8192  # q^d <= 2^8192 keeps every value within 2467 digits


class SieveError(ValueError):
    """Inputs outside an operation's supported range."""


class NotFlagTransitive(ValueError):
    """The stabilizer identities require a flag-transitive action."""


_CHECK_NAMES = (
    "b_integral",
    "r_integral",
    "lambda2_integral",
    "blocksize_bound",
    "cameron_a",
    "cameron_b",
)
_JSON_BOOL = {False: "false", True: "true"}


def _outcome(mask: int) -> tuple[tuple[tuple[str, bool], ...], bool, str]:
    """The checks tuple, admissible flag and compact checks JSON for one
    bit pattern; bit 5 is the first check in `_CHECK_NAMES`, bit 0 the last.
    """
    checks = tuple(
        (name, bool(mask >> (5 - i) & 1)) for i, name in enumerate(_CHECK_NAMES)
    )
    text = ",".join(f'"{name}":{_JSON_BOOL[ok]}' for name, ok in checks)
    return checks, all(ok for _, ok in checks), f"{{{text}}}"


# every outcome of the six checks, built once: a screened pair looks its
# outcome up here, so all reports with the same outcome share one tuple
_OUTCOMES = tuple(_outcome(mask) for mask in range(64))
_CHECKS_JSON = {checks: text for checks, _, text in _OUTCOMES}


@dataclass(slots=True)
class SieveReport:
    """The six named checks for one (v, k); `checks` is a shared tuple."""

    v: int
    k: int
    checks: tuple[tuple[str, bool], ...]
    admissible: bool
    cameron_equality: bool
    equality_listed: bool

    def as_dict(self) -> dict:
        return {
            "v": self.v,
            "k": self.k,
            "checks": {name: ok for name, ok in self.checks},
            "admissible": self.admissible,
            "cameron_equality": self.cameron_equality,
            "equality_listed": self.equality_listed,
        }

    def as_json(self) -> str:
        """`as_dict` as compact JSON, assembled from preformatted parts."""
        return (
            f'{{"v":{self.v},"k":{self.k},"checks":{_CHECKS_JSON[self.checks]},'
            f'"admissible":{_JSON_BOOL[self.admissible]},'
            f'"cameron_equality":{_JSON_BOOL[self.cameron_equality]},'
            f'"equality_listed":{_JSON_BOOL[self.equality_listed]}}}'
        )


def _screen(v: int, ks: range) -> Iterator[SieveReport]:
    """Reports for (v, k) with k in ks, the v-dependent products formed once."""
    bound = blocksize_bound(v)
    v2 = v - 2
    r_num = (v - 1) * v2
    b_num = v * r_num
    for k in ks:
        k2 = k - 2
        r_den = (k - 1) * k2
        # one bit per check, in `_CHECK_NAMES` order from bit 5 down
        checks, admissible, _ = _OUTCOMES[
            (b_num % (k * r_den) == 0) << 5
            | (r_num % r_den == 0) << 4
            | (v2 % k2 == 0) << 3
            | (k <= bound) << 2
            | (v >= 4 * k2) << 1
            | (v2 >= r_den)
        ]
        equality = v2 == r_den
        yield SieveReport(
            v,
            k,
            checks,
            admissible,
            equality,
            equality and (3, k, v) in CAMERON_EQUALITY_CASES,
        )


def screen_parameters(v: int, k: int) -> SieveReport:
    """All named integrality and bound checks for a single (v, k)."""
    if v < 4 or k < 4:
        raise SieveError(f"need v >= 4 and k >= 4, got {(v, k)}")
    return next(_screen(v, range(k, k + 1)))


def admissible_parameters(v_min: int, v_max: int) -> Iterator[SieveReport]:
    """Screen every k in [4, blocksize_bound(v)] for every v in range.

    Lazily yields one report per screened pair in (v, k) order; the range
    bound allows sweeps whose materialized report list would not fit in
    memory, so consumers should stream.
    """
    if not 4 <= v_min <= v_max <= 10**6:
        raise SieveError(f"need 4 <= v_min <= v_max <= 10^6, got {(v_min, v_max)}")

    def sweep():
        for v in range(v_min, v_max + 1):
            yield from _screen(v, range(4, blocksize_bound(v) + 1))

    return sweep()


def division_property(r: int, order_point_stabilizer: int) -> bool:
    """Whether the per-point block count divides the point stabilizer order."""
    if r < 1 or order_point_stabilizer < 1:
        raise SieveError("arguments must be positive")
    return order_point_stabilizer % r == 0


@dataclass(frozen=True)
class StabilizerReport:
    order: int
    v: int
    b: int
    k: int
    g_x: int
    g_xy: int
    g_b: int
    g_xb: int
    block_identity: bool  # b * |G_B| == v(v-1) |G_xy|
    point_identity: bool  # (v-2) |G_xB| == (k-1)(k-2) |G_xy|

    @property
    def ok(self) -> bool:
        return self.block_identity and self.point_identity


def stabilizer_identities(design: Design, gens: GeneratorSet) -> StabilizerReport:
    """Exact stabilizer-order identities for a flag-transitive action.

    With b*k flags in one orbit, |G_x| = |G|/v, |G_xy| = |G|/(v(v-1))
    (point 2-transitivity follows from flag-transitivity at t = 3),
    |G_B| = |G|/b and |G_xB| = |G|/(bk); then both
    b = v(v-1)|G_xy|/|G_B| and v-2 = (k-1)(k-2)|G_xy|/|G_xB| must hold.
    """
    report = is_flag_transitive(design, gens)
    if not report.flag_transitive:
        raise NotFlagTransitive(
            f"flag orbit has size {report.flag_orbit_size} of {report.flag_count}"
        )
    params = params_of(design)
    v, b, k = params.v, params.b, params.k
    order = group_order(gens).order
    quotients = {}
    for name, denom in (
        ("g_x", v),
        ("g_xy", v * (v - 1)),
        ("g_b", b),
        ("g_xb", b * k),
    ):
        if order % denom:
            raise NotFlagTransitive(
                f"|G| = {order} is not divisible by {denom} ({name} not integral)"
            )
        quotients[name] = order // denom
    g_xy, g_b, g_xb = quotients["g_xy"], quotients["g_b"], quotients["g_xb"]
    return StabilizerReport(
        order=order,
        v=v,
        b=b,
        k=k,
        g_x=quotients["g_x"],
        g_xy=g_xy,
        g_b=g_b,
        g_xb=g_xb,
        block_identity=b * g_b == v * (v - 1) * g_xy,
        point_identity=(v - 2) * g_xb == (k - 1) * (k - 2) * g_xy,
    )


# -- cyclotomic machinery -----------------------------------------------------


@dataclass(frozen=True)
class CyclotomicEval:
    d: int
    q: int
    phi: int
    f: int
    n: int
    phi_star: int


def _phi_value(d: int, q: int, cache: dict[int, int]) -> int:
    if d in cache:
        return cache[d]
    value = q**d - 1
    for e in range(1, d):
        if d % e == 0:
            value //= _phi_value(e, q, cache)
    cache[d] = value
    return value


def cyclotomic_eval(d: int, q: int) -> CyclotomicEval:
    """Phi_d(q) by exact recursion, with its largest-gcd-power reduction.

    phi_star strips f^n from phi, where f = gcd(d, phi) and f^n is the
    largest power of f dividing phi (n = 1 when f = 1).
    """
    if d < 1 or q < 2:
        raise SieveError(f"need d >= 1 and q >= 2, got {(d, q)}")
    # q^d >= 2^(d(bits-1)), so only a power below 2^(2 * CYCLOTOMIC_MAX_BITS)
    # is ever formed to decide the cap
    if d * (q.bit_length() - 1) > CYCLOTOMIC_MAX_BITS or q**d > 1 << CYCLOTOMIC_MAX_BITS:
        raise SieveError(
            f"need q^d <= 2^{CYCLOTOMIC_MAX_BITS}, got d = {d} and a {q.bit_length()}-bit q"
        )
    phi = _phi_value(d, q, {})
    f = math.gcd(d, phi)
    if f == 1:
        return CyclotomicEval(d=d, q=q, phi=phi, f=1, n=1, phi_star=phi)
    if phi % f:
        raise SieveError(f"gcd {f} does not divide Phi_{d}({q}) = {phi}")  # defensive
    n = 0
    rest = phi
    while rest % f == 0:
        rest //= f
        n += 1
    return CyclotomicEval(d=d, q=q, phi=phi, f=f, n=n, phi_star=phi // f**n)


@dataclass(frozen=True)
class ZsigmondyResult:
    q: int
    n: int
    primitive_primes: tuple[int, ...]


def zsigmondy_ppd(q: int, n: int) -> ZsigmondyResult:
    """Primes dividing q^n - 1 but no q^m - 1 with 1 <= m < n."""
    if q < 2 or n < 2:
        raise SieveError(f"need q >= 2 and n >= 2, got {(q, n)}")
    # q^n >= 2^(n(bits-1)), so only a power below 2^126 is ever formed
    if n * (q.bit_length() - 1) > 63 or q**n > 2**63:
        raise SieveError(f"need q^n <= 2^63 for factoring, got q = {q} and n = {n}")
    primes = sorted(factorize(q**n - 1))
    primitive = [
        p for p in primes if all(pow(q, m, p) != 1 for m in range(1, n))
    ]
    return ZsigmondyResult(q=q, n=n, primitive_primes=tuple(primitive))


def semilinear_divisibility(d: int, k: int) -> bool:
    """Whether 2^d - 2 divides d(k-1)(k-2).

    This is the necessary condition for block size k on 2^d points when
    the full group is one-dimensional semilinear over GF(2^d).
    """
    if d < 3 or k < 4:
        raise SieveError(f"need d >= 3 and k >= 4, got {(d, k)}")
    return d * (k - 1) * (k - 2) % (2**d - 2) == 0


def ramanujan_nagell(n_max: int) -> list[tuple[int, int]]:
    """All (x, n) with x^2 - 17 = 2^n, 1 <= n <= n_max, by brute force."""
    if not 1 <= n_max <= 63:
        raise SieveError(f"need 1 <= n_max <= 63, got {n_max}")
    out = []
    for n in range(1, n_max + 1):
        target = (1 << n) + 17
        x = math.isqrt(target)
        if x * x == target:
            out.append((x, n))
    return out


def ramanujan_nagell_block_sizes(n_max: int = 63) -> list[tuple[int, int]]:
    """(e, k) pairs with 2^(2e+3) = k^2 - 3k - 2 and e >= 1.

    Obtained from the x^2 - 17 = 2^n solutions via x = 2k - 3, n = 2e + 5.
    """
    out = []
    for x, n in ramanujan_nagell(n_max):
        if n >= 7 and (n - 5) % 2 == 0 and (x + 3) % 2 == 0:
            out.append(((n - 5) // 2, (x + 3) // 2))
    return out
