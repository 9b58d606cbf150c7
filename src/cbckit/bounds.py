"""Closed-form storage bounds and exact-value dispatch.

Everything here is exact big-integer / rational arithmetic: binomial
coefficients overflow machine words quickly, and the optimality claims
ride on floors and ceilings being applied exactly where the formulas put
them, nowhere else.

Regime tags used in results, in the order of ``REGIMES``, the one table
that ``known_n``, ``construct_best`` and the CLI's ``--method`` all read.
The table's order is the one preference rule: the first applicable regime
with a builder is the one ``construct_best`` builds, and its storage is the
``upper`` that ``known_n`` reports.

* ``trivial``        n <= m, one server per item suffices
* ``m=k``            as many servers as the batch size
* ``n=m+1``          one item more than servers
* ``n=m+2``          two items more than servers (two-case formula)
* ``large-n``        n >= (k-1)*C(m,k-1), fully replicated batches
* ``range-a``        deletion construction range, C(m,k-2) <= n
* ``range-b``        constant-weight-code range below C(m,k-2), k >= 5
* ``counting-bound`` general double-counting lower bound (no exact value)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Callable, Optional

from . import cwc
from .core import Params, Profile, Rational
from .errors import ParamError, RangeError


@dataclass(frozen=True)
class BoundResult:
    """Certified bracket on the optimal total storage N(n,k,m).

    ``lower`` is always a proven lower bound; ``exact`` is set when some
    regime pins the value; ``upper`` is the storage of the layout that
    ``construct_best`` builds, when it builds one.  ``chosen_c`` records
    the index selected by the counting bound, when that bound was
    evaluated.
    """

    lower: int
    exact: Optional[int] = None
    upper: Optional[int] = None
    source: str = ""
    chosen_c: Optional[int] = None

    def __post_init__(self):
        if self.exact is not None and self.lower > self.exact:
            raise ParamError(f"lower {self.lower} exceeds exact {self.exact}")
        hi = self.exact if self.exact is not None else self.lower
        if self.upper is not None and hi > self.upper:
            raise ParamError(f"upper {self.upper} below {hi}")


def u_value(m: int, k: int, c: int) -> Rational:
    """The threshold (k-1)*C(m,c)/C(k-1,c); strictly increasing in c."""
    if not (1 <= c <= k - 1 <= m - 1):
        raise ParamError(f"need 1 <= c <= k-1 <= m-1, got m={m} k={k} c={c}")
    return Fraction((k - 1) * comb(m, c), comb(k - 1, c))


def check_inequality(p: Profile, m: int, i: int) -> bool:
    """Necessary counting condition at index i for a valid layout's profile.

    sum_{j=1..i} C(m-j, i-j) * A_j <= i * C(m, i).  Each i-server subset
    can fully contain at most i replica sets; summing over all i-subsets
    counts each j-replica item C(m-j, i-j) times.
    """
    if not 1 <= i <= p.k - 1:
        raise ParamError(f"need 1 <= i <= k-1, got i={i} k={p.k}")
    if m < 1:
        raise ParamError(f"need at least one server, got m={m}")
    lhs = sum(comb(m - j, i - j) * p.a(j) for j in range(1, i + 1))
    return lhs <= i * comb(m, i)


def b_value(n: int, k: int, m: int, c: int) -> Rational:
    """Unfloored counting bound n*c - (k-c)*(U(m,k,c) - n)/(m-k+1)."""
    if not (1 <= c <= k - 1):
        raise ParamError(f"need 1 <= c <= k-1, got c={c} k={k}")
    if m <= k - 1:
        raise ParamError(f"need m >= k, got m={m} k={k}")
    return n * c - Fraction(k - c) * (u_value(m, k, c) - n) / (m - k + 1)


def _check_params(n: int, k: int, m: int) -> None:
    """Reject parameters outside 2 <= k <= m, n >= 1, where the bounds apply."""
    if not 2 <= k <= m:
        raise ParamError(f"need 2 <= k <= m, got k={k} m={m}")
    if n < 1:
        raise ParamError(f"need n >= 1, got n={n}")


def lower_bound(n: int, k: int, m: int) -> BoundResult:
    """Floored counting lower bound on N(n,k,m) for n up to (k-1)*C(m,k-1).

    Picks the least c with n <= U(m,k,c) and returns
    n*c - floor((k-c)*(U - n)/(m-k+1)).  The unfloored b-values are
    checked to peak exactly at this c (they rise up to it and fall after).
    """
    _check_params(n, k, m)
    ceiling = (k - 1) * comb(m, k - 1)
    if n > ceiling:
        raise RangeError(
            f"n={n} above (k-1)*C(m,k-1)={ceiling}; the bulk-replication "
            "formula applies there instead"
        )
    c = next(c for c in range(1, k) if n <= u_value(m, k, c))
    value = n * c - math.floor(Fraction(k - c) * (u_value(m, k, c) - n) / (m - k + 1))
    b_all = [b_value(n, k, m, i) for i in range(1, k)]
    if max(b_all) != b_all[c - 1]:
        raise AssertionError(f"b(n,k,m,.) not maximal at c={c} for n={n} k={k} m={m}")
    return BoundResult(lower=value, source="counting-bound", chosen_c=c)


def _ceil_sqrt(x: int) -> int:
    s = isqrt(x)
    return s if s * s == x else s + 1


def _n_m_plus_2(k: int, m: int) -> int:
    """Exact N(m+2, k, m): two cases split on m+1-k vs ceil(sqrt(k+1))."""
    threshold = _ceil_sqrt(k + 1)
    if m + 1 - k >= threshold:
        return m + k - 2 + _ceil_sqrt(4 * (k + 1))
    return 2 * m - 2 + 1 + -((k + 1) // -(m + 1 - k))


def uniform_n_ceiling(m: int, c: int, k: int) -> Rational:
    """Maximum item count supported by any layout storing every item on c servers."""
    return u_value(m, k, c)


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True


def _least_prime_power(m: int) -> int:
    q = max(m, 2)
    while not _is_prime_power(q):
        q += 1
    return q


def cwc_bounds(m: int, d2: int, w: int) -> Rational:
    """Existence lower bound on the size of a constant-weight code.

    C(m,w) for distance 2 (automatic), C(m,w)/m for distance 4, and
    C(m,w)/q^(d-1) with q the least prime power >= m for distance 2d.
    Informational: the cwc module builds concrete codes separately.
    """
    if d2 < 2 or d2 % 2:
        raise ParamError(f"distance must be even and >= 2, got {d2}")
    if not 1 <= w <= m:
        raise ParamError(f"need 1 <= w <= m, got w={w} m={m}")
    d = d2 // 2
    if d == 1:
        return Fraction(comb(m, w))
    if d == 2:
        return Fraction(comb(m, w), m)
    return Fraction(comb(m, w), _least_prime_power(m) ** (d - 1))


def _large_n(n: int, k: int, m: int) -> Optional[tuple[int, bool]]:
    ceiling = (k - 1) * comb(m, k - 1)
    return (k * n - ceiling, True) if n >= ceiling else None


def _range_a(n: int, k: int, m: int) -> Optional[tuple[int, bool]]:
    ceiling = (k - 1) * comb(m, k - 1)
    if k >= 3 and comb(m, k - 2) <= n <= ceiling:
        return n * (k - 1) - (ceiling - n) // (m - k + 1), True
    return None


def _range_b(n: int, k: int, m: int) -> Optional[tuple[int, bool]]:
    # The built storage meets the lower bound only when the deficit's
    # remainder is below half the modulus; otherwise it is one above.
    if k < 5 or n > comb(m, k - 2):
        return None
    width = m - k + 1
    gap = comb(m, k - 2) - n
    if gap > width * cwc.best_d4_code(m, k - 3).size:
        return None
    return n * (k - 2) - 2 * (gap // width), 2 * (gap % width) < width


@dataclass(frozen=True)
class Regime:
    """A regime of N(n,k,m): its tag, the ``--method`` name of its builder
    (None without one) and ``value(n,k,m)``, which is None outside the
    regime, else ``(storage, proven_optimal)``."""

    tag: str
    method: Optional[str]
    value: Callable[[int, int, int], Optional[tuple[int, bool]]]


# Most specific first.  The order is the preference: construct_best builds
# the first applicable regime that has a builder, known_n reports that
# regime's storage as ``upper``, and the order lists the tags in known_n's
# ``source``.
REGIMES = (
    Regime("trivial", "trivial", lambda n, k, m: (n, True) if n <= m else None),
    Regime("m=k", "m-equals-k",
           lambda n, k, m: (k * n - k * (k - 1), True) if m == k and n >= k else None),
    Regime("n=m+1", "m-plus-1", lambda n, k, m: (m + k, True) if n == m + 1 else None),
    Regime("n=m+2", None, lambda n, k, m: (_n_m_plus_2(k, m), True) if n == m + 2 else None),
    Regime("large-n", "large-n", _large_n),
    Regime("range-a", "range-a", _range_a),
    Regime("range-b", "range-b", _range_b),
)


def known_n(params: Params) -> BoundResult:
    """Dispatch every applicable closed-form regime for N(n,k,m).

    Proven regimes pin ``exact``; when several apply their values must
    agree (asserted).  ``upper`` is the storage of the first applicable
    regime in ``REGIMES`` order that has a builder, the one
    ``construct_best`` builds, and None when no builder applies.  Without
    a proven regime ``lower`` is the counting bound, and ``source`` names
    it and any unproven regime that applies.
    """
    n, k, m = params.n, params.k, params.m
    _check_params(n, k, m)

    tags, values, unproven = [], [], []
    upper = None
    for regime in REGIMES:
        found = regime.value(n, k, m)
        if found is None:
            continue
        value, proven = found
        if upper is None and regime.method is not None:
            upper = value
        if proven:
            tags.append(regime.tag)
            values.append(value)
        else:
            unproven.append(regime.tag)

    if values:
        if len(set(values)) > 1:
            raise AssertionError(f"regimes disagree for n={n} k={k} m={m}: {tags} {values}")
        return BoundResult(lower=values[0], exact=values[0], upper=upper, source=",".join(tags))
    base = lower_bound(n, k, m)
    return BoundResult(
        lower=base.lower,
        upper=upper,
        source=",".join([base.source, *unproven]),
        chosen_c=base.chosen_c,
    )
