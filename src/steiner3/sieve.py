"""Arithmetic admissibility screens for Steiner 3-design parameters.

Everything here is exact integer arithmetic, needing no design or
group: counting-identity integrality, the block-size and Cameron bounds,
cyclotomic evaluation with its reduced variant, primitive prime
divisors, and the x^2 - 17 = 2^n exponential Diophantine sweep.  For
t = 3 and lambda = 1 the pair-count integrality condition is exactly
(k-2) | (v-2), so it appears once under that name.  The full (v, k)
sweep screens its pairs in int64 arrays, exact for every v up to its cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DesignError, Steiner3Error
from .gf import exceeds, factorize
from .trace import emit


CYCLOTOMIC_MAX_BITS = 8192  # q^d <= 2^8192 keeps every value within 2467 digits
SIEVE_CHUNK = 4096  # values of v whose candidate block sizes are listed at once
SIEVE_V_EXPONENT = 6  # sweeps reach v = 10^6, so v(v-1)(v-2) fits an int64
_PAIR_CHUNK = 1024  # pairs of the full sweep screened by one array pass
_PASSED = 0b111111  # the bit pattern of a pair that passes all six checks

CAMERON_EQUALITY_CASES = (
    (3, 4, 8),
    (3, 6, 22),
    (3, 12, 112),
    (4, 7, 23),
    (5, 8, 24),
)


class SieveError(Steiner3Error, ValueError):
    """Inputs outside an operation's supported range."""


@dataclass(frozen=True)
class CameronResult:
    status: str  # "strict" | "equality" | "violated"
    case: tuple[int, int, int]
    listed: bool


def cameron_limits(t: int, v: int) -> tuple[int, int | None, int | None]:
    """For strength t on v points: the largest k with v >= (t+1)(k-t+1);
    for t > 2 the largest k with v-t+1 >= (k-t+2)(k-t+1), else None; and
    the k with v-t+1 == (k-t+2)(k-t+1), if there is one, else None."""
    largest_a = v // (t + 1) + t - 1
    if t <= 2:
        return largest_a, None, None
    # m = k-t+1: the largest m with m(m+1) <= v-t+1, from (2m+1)^2 <= 4(v-t+1)+1
    room = v - t + 1
    m = (math.isqrt(4 * room + 1) - 1) // 2
    return largest_a, m + t - 1, m + t - 1 if m * (m + 1) == room else None


def cameron_check(t: int, k: int, v: int) -> CameronResult:
    """Evaluate the lower bounds v >= (t+1)(k-t+1) and, for t > 2,
    v-t+1 >= (k-t+2)(k-t+1), flagging the known equality cases."""
    if not t < k < v:
        raise DesignError(f"need t < k < v for a non-trivial design, got {(t, k, v)}")
    case = (t, k, v)
    largest_a, largest_b, equality = cameron_limits(t, v)
    if k > largest_a or (largest_b is not None and k > largest_b):
        return CameronResult("violated", case, False)
    if k == equality:
        return CameronResult("equality", case, case in CAMERON_EQUALITY_CASES)
    return CameronResult("strict", case, False)


def blocksize_bound(v: int) -> int:
    """floor(sqrt(v) + 3/2): the largest k with (2k-3)^2 <= 4v, all integer."""
    if v < 4:
        raise DesignError(f"need at least 4 points, got {v}")
    return (math.isqrt(4 * v) + 3) // 2


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
# the checks column of `_OUTCOMES`, which a whole chunk of bit patterns
# indexes at once
_CHECKS_COLUMN = np.fromiter((checks for checks, _, _ in _OUTCOMES), object, 64)
# a report's JSON after its k, for a shared checks tuple and each admissible
# flag, without Cameron equality; keyed by the identity of the shared
# tuples, which live as long as the table, so a lookup hashes one int
_JSON_TAILS = {
    id(checks): tuple(
        f',"checks":{text},"admissible":{_JSON_BOOL[flag]},'
        '"cameron_equality":false,"equality_listed":false}'
        for flag in (False, True)
    )
    for checks, _, text in _OUTCOMES
}


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
        """`as_dict` as compact JSON: a shared checks tuple without Cameron
        equality has its tail preformatted, and any other report is dumped."""
        tails = None if self.cameron_equality else _JSON_TAILS.get(id(self.checks))
        if tails is not None:
            return f'{{"v":{self.v},"k":{self.k}{tails[self.admissible]}'
        return json.dumps(self.as_dict(), separators=(",", ":"))


def _limits(v: int) -> tuple[int, int, int | None, int | None]:
    """`blocksize_bound(v)` followed by `cameron_limits(3, v)`."""
    return (blocksize_bound(v), *cameron_limits(3, v))


def _check_bits(v, k, limits):
    """The bit pattern of the six checks for (v, k), bit 5 the first of
    `_CHECK_NAMES`, and whether k is the Cameron equality block size, given
    `_limits(v)`.  v, k and the limits are exact ints, or int64 arrays of
    one shape (an equality k of 0 for none): v <= 10^SIEVE_V_EXPONENT keeps
    v(v-1)(v-2) below 2^63."""
    bound, largest_a, largest_b, equality_k = limits
    v2, k2 = v - 2, k - 2
    r_num, r_den = (v - 1) * v2, (k - 1) * k2
    # the bits are disjoint, so + sets them as | would; on arrays it touches
    # less of NumPy's code, which shows in a command's peak RSS
    mask = (
        ((v * r_num % (k * r_den) == 0) << 5)
        + ((r_num % r_den == 0) << 4)
        + ((v2 % k2 == 0) << 3)
        + ((k <= bound) << 2)
        + ((k <= largest_a) << 1)
        + (k <= largest_b)
    )
    return mask, k == equality_k


def _report(v: int, k: int, mask: int, equality: bool) -> SieveReport:
    """The report for one (v, k) from its `_check_bits`."""
    checks, admissible, _ = _OUTCOMES[mask]
    listed = equality and (3, k, v) in CAMERON_EQUALITY_CASES
    return SieveReport(v, k, checks, admissible, equality, listed)


def screen_parameters(v: int, k: int) -> SieveReport:
    """All named integrality and bound checks for a single (v, k)."""
    if v < 4 or k < 4:
        raise SieveError(f"need v >= 4 and k >= 4, got {(v, k)}")
    return _report(v, k, *_check_bits(v, k, _limits(v)))


def admissible_parameters(
    v_min: int, v_max: int, admissible_only: bool = False
) -> Iterator[SieveReport]:
    """Screen every k in [4, blocksize_bound(v)] for every v in range.

    Lazily yields one report per screened pair in (v, k) order; the range
    bound allows sweeps whose materialized report list would not fit in
    memory, so consumers should stream.  With `admissible_only`, only the
    admissible reports are yielded, and only the k with (k-2) | (v-2) are
    screened: the same reports, found with far less work.  When tracing,
    one JSON line of counters goes to stderr when the iterator is exhausted.
    """
    if not 4 <= v_min <= v_max <= 10**SIEVE_V_EXPONENT:
        raise SieveError(
            f"need 4 <= v_min <= v_max <= 10^{SIEVE_V_EXPONENT}, got {(v_min, v_max)}"
        )
    sweep = _divisor_sweep if admissible_only else _full_sweep
    return sweep(v_min, v_max)


def _full_sweep(v_min: int, v_max: int) -> Iterator[SieveReport]:
    """Every screened pair's report, k up to the block-size bound, each
    chunk of pairs screened by one `_check_bits` over int64 arrays."""
    screened = 0
    for rows in _pair_chunks(v_min, v_max):
        # the rows' columns, each entry repeated once per pair of its v
        table = np.array(rows, np.int64).T
        v, *limits, first = np.repeat(table, table[1] - 3, axis=1)
        k = np.arange(4, len(v) + 4) - first
        mask, equality = _check_bits(v, k, limits)
        vs, ks, equal = v.tolist(), k.tolist(), equality.tolist()
        listed = equal.copy()
        for i in np.flatnonzero(equality).tolist():
            listed[i] = (3, ks[i], vs[i]) in CAMERON_EQUALITY_CASES
        screened += len(vs)
        yield from map(
            SieveReport,
            vs,
            ks,
            _CHECKS_COLUMN[mask].tolist(),
            (mask == _PASSED).tolist(),
            equal,
            listed,
        )
    counts = dict(mode="full", v_min=v_min, v_max=v_max, screened=screened, yielded=screened)
    emit("sieve.admissible_parameters", **counts)


def _pair_chunks(v_min: int, v_max: int) -> Iterator[list[tuple[int, ...]]]:
    """(v, *`_limits(v)`, first) for consecutive v, an equality k of 0 for
    none and first the number of pairs (4 <= k <= the block-size bound)
    before v's in its list, in lists of whole values of v with at most
    _PAIR_CHUNK pairs in all, or of one v with more; a v with no pair
    joins the next list."""
    rows: list[tuple[int, ...]] = []
    pairs = 0
    for v in range(v_min, v_max + 1):
        bound, largest_a, largest_b, equality_k = _limits(v)
        count = bound - 3
        if pairs and pairs + count > _PAIR_CHUNK:
            yield rows
            rows, pairs = [], 0
        rows.append((v, bound, largest_a, largest_b, equality_k or 0, pairs))
        pairs += count
    if pairs:
        yield rows


def _divisor_sweep(v_min: int, v_max: int) -> Iterator[SieveReport]:
    """The admissible reports, screening only k = d + 2 with d | (v-2).

    For t = 3 the lambda2 check is exactly (k-2) | (v-2), and no admissible
    k exceeds the Cameron (b) limit, so a divisor sieve over each chunk of
    at most SIEVE_CHUNK values of v lists a superset of the admissible k,
    in increasing order for each v.
    """
    screened = yielded = 0
    for lo in range(v_min, v_max + 1, SIEVE_CHUNK):
        hi = min(lo + SIEVE_CHUNK - 1, v_max)
        width = hi - lo + 1
        candidates: list[list[int]] = [[] for _ in range(width)]
        for d in range(2, cameron_limits(3, hi)[1] - 1):
            k = d + 2
            # the first v >= lo with d | (v-2), as an offset into the chunk
            for i in range(-(lo - 2) % d, width, d):
                candidates[i].append(k)
        for v, ks in enumerate(candidates, lo):
            screened += len(ks)
            limits = _limits(v)
            for k in ks:
                mask, equality = _check_bits(v, k, limits)
                if mask == _PASSED:
                    yielded += 1
                    yield _report(v, k, mask, equality)
    counts = dict(mode="divisor", v_min=v_min, v_max=v_max, screened=screened, yielded=yielded)
    emit("sieve.admissible_parameters", **counts)


def division_property(r: int, order_point_stabilizer: int) -> bool:
    """Whether the per-point block count divides the point stabilizer order."""
    if r < 1 or order_point_stabilizer < 1:
        raise SieveError("arguments must be positive")
    return order_point_stabilizer % r == 0


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
    if exceeds(q, d, 1 << CYCLOTOMIC_MAX_BITS):
        raise SieveError(
            f"need q^d <= 2^{CYCLOTOMIC_MAX_BITS}, got d = {d} and a {q.bit_length()}-bit q"
        )
    phi = _phi_value(d, q, {})
    f = math.gcd(d, phi)
    if f == 1:
        return CyclotomicEval(d=d, q=q, phi=phi, f=1, n=1, phi_star=phi)
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
    if exceeds(q, n, 2**63):
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
