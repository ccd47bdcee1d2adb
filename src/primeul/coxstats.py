"""Statistics on (signed) permutations and the type-specific formulas.

Permutations are tuples in one-line notation over 1..n; signed permutations
are window tuples w_1..w_n with entries in {-n..-1, 1..n} whose absolute
values form a permutation (w(-i) = -w(i) implicitly).  Indexing convention
for the classical families: eulerian_a(m) is the descent polynomial of the
symmetric group on m letters, so that peul_a(m) = z * eulerian_a(m - 1) is
the polynomial of the braid arrangement in R^m for m >= 2.

The six recursive sequences, eulerian_a to peul_d_rec, share one memo
helper, _sequence: each keeps its terms and extends them in order of n, so
every term is computed once.  bw_b and bw_d share one right-to-left-maxima
predicate, _negative_rtl_maxima; cuspidal_sn writes each long cycle out
directly, and cuspidal_bn walks the cycles of |w| with the product of the
signs of w along each (_cycles); and every distribution is an
``IntPoly.from_counts`` of a statistic over its elements.
"""

from __future__ import annotations

from functools import wraps
from itertools import permutations, product
from math import comb

from .egf import DEFAULT_ORDER, TruncatedEgf, egf_exp, egf_log, egf_sqrt
from .intpoly import IntPoly, ONE, Z, ZERO, ZM1

# ---------------------------------------------------------------------------
# element generation

def _require_nonnegative(n: int):
    if n < 0:
        raise ValueError("n >= 0 required")


def all_signed(n: int):
    _require_nonnegative(n)
    for p in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield tuple(s * x for s, x in zip(signs, p))


def all_even_signed(n: int):
    for w in all_signed(n):
        if sum(1 for x in w if x < 0) % 2 == 0:
            yield w


def _cycles(w):
    """(length, sign product) of each cycle of |w|, in order of its least
    letter, for a (signed) permutation w.  The cycle's letters and their
    negatives make one balanced orbit of w iff the sign product is -1, else
    two orbits, each the other's negative."""
    seen = [False] * (len(w) + 1)
    for start in range(1, len(w) + 1):
        if seen[start]:
            continue
        i, length, sign = start, 0, 1
        while not seen[i]:
            seen[i] = True
            length += 1
            i = w[i - 1]
            if i < 0:
                i, sign = -i, -sign
        yield length, sign


def cuspidal_sn(n: int):
    """Long cycles of the symmetric group: (n-1)! of them, the cycle
    (1 p_2 .. p_n) for each permutation p of 2..n; () when n = 0."""
    _require_nonnegative(n)
    for rest in permutations(range(2, n + 1)):
        yield tuple(map(dict(zip((1, *rest), (*rest, 1))).get, range(1, n + 1)))


def cuspidal_bn(n: int):
    """Signed permutations whose cycles are all balanced."""
    for w in all_signed(n):
        if all(sign < 0 for _, sign in _cycles(w)):
            yield w


# ---------------------------------------------------------------------------
# statistics

def des_a(w) -> int:
    """Descents of the window read as a word: positions with w_i > w_{i+1}."""
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def des_b(w) -> int:
    """Coxeter descents of a signed permutation: prepend w(0) = 0."""
    return des_a((0, *w))


def des_d(w) -> int:
    """Coxeter descents of an even signed permutation: w(0) = -w(2)."""
    if len(w) < 2:
        raise ValueError("type D needs n >= 2")
    return des_a(w) + (1 if -w[1] > w[0] else 0)


def exc(w) -> int:
    """Excedances of a permutation, or of a signed window read as a word:
    positions with w(i) > i."""
    return sum(1 for i in range(1, len(w)) if w[i - 1] > i)


def fneg(w) -> int:
    return sum(1 for x in w if x < 0)


def fexc(w) -> int:
    return 2 * exc(w) + fneg(w)


def exc_b(w) -> int:
    return (fexc(w) + 1) // 2


def _negative_rtl_maxima(w) -> bool:
    """True iff every right-to-left maximum of |w| is a negative entry of w;
    stops at the first positive one."""
    best = 0
    for x in reversed(w):
        if abs(x) > best:
            if x > 0:
                return False
            best = -x
    return True


def bw_a(n: int):
    """Permutations with first letter n; () when n = 0."""
    _require_nonnegative(n)
    return ((n,) + rest for rest in permutations(range(1, n))) if n else iter([()])


def bw_b(n: int):
    """Signed permutations whose right-to-left maxima (of |w|) are negative."""
    return filter(_negative_rtl_maxima, all_signed(n))


def bw_d(n: int):
    """Even signed permutations with negative right-to-left maxima, |w_1| != n."""
    if n < 2:
        raise ValueError("type D needs n >= 2")
    for w in all_even_signed(n):
        if abs(w[0]) != n and _negative_rtl_maxima(w):
            yield w


def peul_a_exc(n: int) -> IntPoly:
    return IntPoly.from_counts(map(exc, cuspidal_sn(n)))


def peul_b_excb(n: int) -> IntPoly:
    return IntPoly.from_counts(map(exc_b, cuspidal_bn(n)))


def peul_a_des(n: int) -> IntPoly:
    return IntPoly.from_counts(map(des_a, bw_a(n)))


def peul_b_des(n: int) -> IntPoly:
    return IntPoly.from_counts(map(des_b, bw_b(n)))


def peul_d_des(n: int) -> IntPoly:
    return IntPoly.from_counts(map(des_d, bw_d(n)))


# ---------------------------------------------------------------------------
# Eulerian polynomials and the recursions

def _sequence(*initial: IntPoly):
    """Decorator: the memoized sequence with the given first terms whose
    later term n is step(n).  Terms are computed once each, in order of n;
    step(n) may ask for any earlier term, which is then kept, so no call
    recurses however large n is."""
    def decorate(step):
        terms = list(initial)

        @wraps(step)
        def term(n: int) -> IntPoly:
            if n < 0:
                raise ValueError("n >= 0 required")
            while len(terms) <= n:
                terms.append(step(len(terms)))
            return terms[n]
        return term
    return decorate


@_sequence(ONE)
def eulerian_a(n: int) -> IntPoly:
    """Descent polynomial of the symmetric group on n letters.

    E_n = (1 + (n-1) z) E_{n-1} + z (1-z) E_{n-1}', with E_0 = 1.
    """
    e = eulerian_a(n - 1)
    return (ONE + (n - 1) * Z) * e + Z * (ONE - Z) * e.derivative()


@_sequence(ONE)
def eulerian_b(n: int) -> IntPoly:
    """Descent polynomial of the group of signed permutations of n letters.

    E_n = (1 + (2n-1) z) E_{n-1} + 2 z (1-z) E_{n-1}', with E_0 = 1.
    """
    e = eulerian_b(n - 1)
    return (ONE + (2 * n - 1) * Z) * e + 2 * Z * (ONE - Z) * e.derivative()


@_sequence(ONE, ONE)
def peul_a(n: int) -> IntPoly:
    """Polynomial of the rank n-1 braid arrangement: z * eulerian_a(n-1)."""
    return Z * eulerian_a(n - 1)


@_sequence(ONE)
def peul_b_rec(n: int) -> IntPoly:
    """Quadratic recursion for the type B polynomials:

    P_n = z P_{n-1} + sum_{k=1}^{n-1} C(n-1, k) 2^k P_{n-1-k} peul_a(k+1).
    """
    acc = Z * peul_b_rec(n - 1)
    for k in range(1, n):
        acc = acc + comb(n - 1, k) * 2 ** k * peul_b_rec(n - 1 - k) * peul_a(k + 1)
    return acc


@_sequence(ONE)
def peul_b_diffrec(n: int) -> IntPoly:
    """Differential recursion P_n = (2n-1) z P_{n-1} + 2 z (1-z) P_{n-1}'."""
    p = peul_b_diffrec(n - 1)
    return (2 * n - 1) * Z * p + 2 * Z * (ONE - Z) * p.derivative()


@_sequence(ONE, ZERO)
def peul_d_rec(n: int) -> IntPoly:
    """Quadratic recursion for type D, with P_0 = 1 and P_1 = 0:

    P_n = (z-1)^2 P^B_{n-2} + sum_{k=0}^{n-2} C(n-2, k) 2^k (
          (z-1) P_{n-2-k} peul_a(k+1) + 2 P_{n-1-k} peul_a(k+1)
          + P_{n-2-k} peul_a(k+2)).
    """
    acc = ZM1 ** 2 * peul_b_rec(n - 2)
    for k in range(n - 1):
        c = comb(n - 2, k) * 2 ** k
        acc = acc + c * (ZM1 * peul_d_rec(n - 2 - k) * peul_a(k + 1)
                         + 2 * peul_d_rec(n - 1 - k) * peul_a(k + 1)
                         + peul_d_rec(n - 2 - k) * peul_a(k + 2))
    return acc


def peul_dnk(n: int, k: int) -> IntPoly:
    """P of type D with k coordinate hyperplanes added:

    P_{D_{n,k}} = P_{D_n} + k z^n P^B_{n-1}(1/z),

    the reversal being z times the coefficient-reverse of P^B_{n-1}.
    Uses the convention P_{D_1} = 0, so the k = 0, n = 1 value is the
    convention's 0 rather than the polynomial of the empty arrangement.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    out = peul_d_rec(n)
    if k:
        out = out + k * peul_b_rec(n - 1).reverse(n - 1) * Z
    return out


# ---------------------------------------------------------------------------
# 2-inversion sequences

def inversion_sequences_2(n: int):
    """All integer sequences with 0 <= e_i <= 2(i-1)."""
    return product(*(range(2 * i + 1) for i in range(n)))


def asc_2(e) -> int:
    """Ascents of a 2-inversion sequence: e_i/(2i-1) < e_{i+1}/(2i+1),
    compared exactly by cross-multiplication."""
    return sum(1 for i in range(len(e) - 1)
               if e[i] * (2 * i + 3) < e[i + 1] * (2 * i + 1))


def half_eulerian(n: int) -> IntPoly:
    """Ascent distribution over all (2n-1)!! 2-inversion sequences."""
    _require_nonnegative(n)
    return IntPoly.from_counts(map(asc_2, inversion_sequences_2(n)))


# ---------------------------------------------------------------------------
# identities

def binomial_identity_checks(nmax: int) -> bool:
    """Both convolution identities up to nmax:

    sum_k C(n,k) E^B_k E^B_{n-k} = 2^n eulerian_a(n+1)  and the same shape
    with the primitive polynomials: sum = 2^n peul_a(n+1).
    """
    for n in range(nmax + 1):
        lhs_e = ZERO
        lhs_p = ZERO
        for k in range(n + 1):
            c = comb(n, k)
            lhs_e = lhs_e + c * eulerian_b(k) * eulerian_b(n - k)
            lhs_p = lhs_p + c * peul_b_rec(k) * peul_b_rec(n - k)
        if lhs_e != 2 ** n * eulerian_a(n + 1):
            return False
        if lhs_p != 2 ** n * peul_a(n + 1):
            return False
    return True


def eulerian_egf(order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """The series A(z, x) with coefficient eulerian_a(n) at x^n/n!."""
    return TruncatedEgf.from_polys([eulerian_a(n) for n in range(order + 1)], order)


def generating_function_check(order: int = DEFAULT_ORDER) -> bool:
    """Coefficientwise check of the three closed-form generating series:

      type A: 1 + log A(z, x)
      type B: exp(x(z-1)) A(z, 2x)^(1/2)
      type D: (exp(x(z-1)) - z x) A(z, 2x)^(1/2)

    against peul_a, peul_b_rec and peul_d_rec for all n <= order.
    """
    A = eulerian_egf(order)
    exp_zm1 = egf_exp(TruncatedEgf.x_times(Z - ONE, order))
    sqrt_a2 = egf_sqrt(A.scale_x(2))
    type_a = TruncatedEgf.constant(1, order) + egf_log(A)
    type_b = exp_zm1 * sqrt_a2
    type_d = (exp_zm1 - TruncatedEgf.x_times(Z, order)) * sqrt_a2
    for n in range(order + 1):
        if type_a.coeff_intpoly(n) != peul_a(n):
            return False
        if type_b.coeff_intpoly(n) != peul_b_rec(n):
            return False
        if type_d.coeff_intpoly(n) != peul_d_rec(n):
            return False
    return True
