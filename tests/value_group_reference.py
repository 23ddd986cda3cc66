"""Reference value-group interval rules for the tests in test_formula.py.

These are the earlier `interpret` rules for intervals (lower, upper) over
Z with infinite ends, which ordered and added the two infinities case by
case instead of leaving it to float arithmetic.  They test each end with
`==` against INF and NINF, so they hold whatever object stands for either.
"""

from __future__ import annotations

from dpcalc.formula import Truth3
from dpcalc.formula.interpret import NINF
from dpcalc.localfield import INF

_T, _F, _U = Truth3.TRUE, Truth3.FALSE, Truth3.UNDECIDED
_PINF_POINT = (INF, INF)
_NINF_POINT = (NINF, NINF)


def _ext_neg(v):
    if v == INF:
        return NINF
    if v == NINF:
        return INF
    return -v


def _ext_scale(k, v):
    if v == INF:
        return INF if k > 0 else NINF
    if v == NINF:
        return NINF if k > 0 else INF
    return k * v


def _ext_le(a, b):
    if a == NINF or b == INF:
        return True
    if a == INF:
        return b == INF
    if b == NINF:
        return False
    return a <= b


def _ext_lt(a, b):
    return not _ext_le(b, a)


def zi_neg(A):
    return (_ext_neg(A[1]), _ext_neg(A[0]))


def zi_add(A, B):
    if (A == _PINF_POINT and B == _NINF_POINT) or \
       (A == _NINF_POINT and B == _PINF_POINT):
        return (NINF, INF)
    if A == _PINF_POINT or B == _PINF_POINT:
        return _PINF_POINT
    if A == _NINF_POINT or B == _NINF_POINT:
        return _NINF_POINT
    lo = NINF if (A[0] == NINF or B[0] == NINF) else A[0] + B[0]
    hi = INF if (A[1] == INF or B[1] == INF) else A[1] + B[1]
    return (lo, hi)


def zi_scale(k, A):
    if k == 0:
        return (0, 0)
    if k > 0:
        return (_ext_scale(k, A[0]), _ext_scale(k, A[1]))
    return (_ext_scale(k, A[1]), _ext_scale(k, A[0]))


def zz_le(A, B):
    if _ext_le(A[1], B[0]):
        return _T
    if _ext_lt(B[1], A[0]):
        return _F
    return _U


def zz_lt(A, B):
    if _ext_lt(A[1], B[0]):
        return _T
    if _ext_le(B[1], A[0]):
        return _F
    return _U


def zz_eq(A, B):
    if A == B and A[0] == A[1]:
        return _T
    if _ext_lt(A[1], B[0]) or _ext_lt(B[1], A[0]):
        return _F
    return _U


def zz_cong(A, B, modulus):
    D = zi_add(A, zi_neg(B))
    if D == _PINF_POINT or D == _NINF_POINT:
        return _F
    lo, hi = D
    if lo == NINF or hi == INF:
        return _U
    hits = [v % modulus == 0 for v in range(lo, hi + 1)]
    if all(hits):
        return _T
    if not any(hits):
        return _F
    return _U
