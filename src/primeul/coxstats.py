"""Statistics on (signed) permutations and the type-specific formulas.

Permutations are tuples in one-line notation over 1..n; signed permutations
are window tuples w_1..w_n with entries in {-n..-1, 1..n} whose absolute
values form a permutation (w(-i) = -w(i) implicitly).  Indexing convention
for the classical families: eulerian_a(m) is the descent polynomial of the
symmetric group on m letters, so that peul_a(m) = z * eulerian_a(m - 1) is
the polynomial of the braid arrangement in R^m for m >= 2.

The five recursive sequences, eulerian_a to peul_d_rec, share one memo
helper, _sequence: each keeps its terms and extends them in order of n, so
every term is computed once, each in O(1) polynomial operations.  The
paper's quadratic recursions for types B and D, O(n) products per term, are
checks (quadratic_recursion_checks), not builders.  half_eulerian counts by
transfer instead of listing its sequences.  bw_d filters bw_b; cuspidal_sn
writes each long cycle out directly, and cuspidal_bn walks the cycles of |w|
with the product of the signs of w along each (_cycles); and every
distribution is an ``IntPoly.from_counts`` of a statistic over its elements.

The closed forms are exponential generating series in x, with
A = sum_n A_n x^n / n! for A_n = eulerian_a(n):

  type A: P_A = 1 + log A
  type B: P_B = e^{x(z-1)} sqrt(A(z, 2x))
  type D: P_D = (e^{x(z-1)} - z x) sqrt(A(z, 2x))

A product of such series has coefficient sum_k C(n, k) f_k g_{n-k}
(_egf_product), so generating_function_check tests each as an identity on
integer polynomials, with P_A(0) = P_B(0) = 1:

  type A: A_n = sum_{k=1}^{n} C(n-1, k-1) P_A(k) A_{n-k} for n >= 1.  This
          is E' = f' E for E = A and f = P_A - 1, that is A = e^{P_A - 1}.
  type B: sum_k C(n, k) P_B(k) P_B(n-k) = 2^n sum_k C(n, k) (z-1)^k A_{n-k},
          which is P_B^2 = e^{2x(z-1)} A(z, 2x); a square root with
          constant term 1 is unique.
  type D: P_D(n) = P_B(n) - n z sum_k C(n-1, k) (1-z)^k P_B(n-1-k), which is
          P_D = P_B - z x e^{x(1-z)} P_B, the type D form given type B.

Each identity fixes its sequence's term n from the earlier terms, so a
change to any one term breaks it.
"""

from __future__ import annotations

from functools import wraps
from itertools import accumulate, permutations, product
from math import comb
from operator import add

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
    """The even elements of bw_b(n) with |w_1| != n."""
    if n < 2:
        raise ValueError("type D needs n >= 2")
    return (w for w in bw_b(n) if fneg(w) % 2 == 0 and abs(w[0]) != n)


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
    """Type B polynomials by the differential recursion, with P_0 = 1:

    P_n = (2n-1) z P_{n-1} + 2 z (1-z) P_{n-1}'.

    Source: the paper's link P_B(n) = z^n E_n(1/z) to the 1/2-Eulerian
    polynomials E_n of Savage and Viswanathan (Electron. J. Combin. 19(1),
    2012), which it turns into E_n = (1 + 2(n-1) z) E_{n-1} + 2 z (1-z) E_{n-1}';
    half_eulerian counts E_n directly.  The paper's quadratic recursion is
    checked by quadratic_recursion_checks.
    """
    p = peul_b_rec(n - 1)
    return (2 * n - 1) * Z * p + 2 * Z * (ONE - Z) * p.derivative()


@_sequence(ONE)
def peul_d_rec(n: int) -> IntPoly:
    """Type D polynomials from type B, with P_0 = 1:

    P_n = P^B_n - n z^n P^B_{n-1}(1/z).

    Source: the paper's formula P_{D_{n,k}} = P_{D_n} + k z^n P^B_{n-1}(1/z)
    at k = n, where D_{n,n} = B_n.  At n = 1 it gives the convention
    P_{D_1} = 0.  The paper's quadratic recursion is checked by
    quadratic_recursion_checks.
    """
    return peul_b_rec(n) - n * peul_b_rec(n - 1).reverse(n - 1) * Z


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

def half_eulerian(n: int) -> IntPoly:
    """Ascent distribution over all (2n-1)!! 2-inversion sequences, the
    integer sequences with 0 <= e_i <= 2(i-1), where i is an ascent iff
    e_i/(2i-1) < e_{i+1}/(2i+1).

    Counted by transfer over the last entry, since an ascent depends on e_i
    and e_{i+1} alone.  With F[v] the distribution over the sequences of
    length i that end in v, and S[c] = F[0] + ... + F[c-1], those of length
    i+1 that end in u have z S[c] + (S[2i-1] - S[c]) = S[2i-1] + (z-1) S[c],
    where the c values v < u (2i-1)/(2i+1) are those that make an ascent.
    The F[v] are kept as coefficient lists of length n+1, low degree first.
    """
    _require_nonnegative(n)
    last = [[1] + [0] * n]
    for i in range(1, n):
        prefix = list(accumulate(last, lambda s, f: list(map(add, s, f)),
                                 initial=[0] * (n + 1)))
        total = prefix[-1]
        last = [[t + a - b for t, a, b in zip(total, [0, *s], s)]
                for s in (prefix[(u * (2 * i - 1) + 2 * i) // (2 * i + 1)]
                          for u in range(2 * i + 1))]
    return IntPoly(tuple(map(sum, zip(*last))))


# ---------------------------------------------------------------------------
# identities

def _egf_product(f, g, n: int) -> IntPoly:
    """Coefficient n of the product of the EGFs with coefficients f(k) and
    g(k): sum_k C(n, k) f(k) g(n - k)."""
    acc = ZERO
    for k in range(n + 1):
        acc = acc + comb(n, k) * f(k) * g(n - k)
    return acc


def binomial_identity_checks(nmax: int) -> bool:
    """Both convolution identities up to nmax:

    sum_k C(n,k) E^B_k E^B_{n-k} = 2^n eulerian_a(n+1)  and the same shape
    with the primitive polynomials: sum = 2^n peul_a(n+1).
    """
    for n in range(nmax + 1):
        if _egf_product(eulerian_b, eulerian_b, n) != 2 ** n * eulerian_a(n + 1):
            return False
        if _egf_product(peul_b_rec, peul_b_rec, n) != 2 ** n * peul_a(n + 1):
            return False
    return True


def _quadratic_b(n: int) -> IntPoly:
    """The paper's quadratic recursion for type B at n >= 1, on earlier terms:

    P_n = z P_{n-1} + sum_{k=1}^{n-1} C(n-1, k) 2^k P_{n-1-k} peul_a(k+1).
    """
    acc = Z * peul_b_rec(n - 1)
    for k in range(1, n):
        acc = acc + comb(n - 1, k) * 2 ** k * peul_b_rec(n - 1 - k) * peul_a(k + 1)
    return acc


def _quadratic_d(n: int) -> IntPoly:
    """The paper's quadratic recursion for type D at n >= 2, on earlier terms:

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


def quadratic_recursion_checks(family: str, nmax: int) -> bool:
    """The paper's quadratic recursion for family "B" or "D", term by term
    for n <= nmax: the first terms (P_B(0) = 1; P_D(0) = 1, P_D(1) = 0),
    then each term against the recursion evaluated on the earlier terms.
    By induction on n this is as strong as building the sequence by the
    recursion (the D recursion also reads P_B, which the B half checks), at
    O(n) polynomial products per term, off the path that builds them."""
    sequence, initial, recursion = {
        "B": (peul_b_rec, (ONE,), _quadratic_b),
        "D": (peul_d_rec, (ONE, ZERO), _quadratic_d),
    }[family]
    return all(sequence(n) == (initial[n] if n < len(initial) else recursion(n))
               for n in range(nmax + 1))


def generating_function_check(order: int) -> bool:
    """The three closed-form generating series, coefficientwise for all
    n <= order: the integer identities of the module docstring on peul_a,
    peul_b_rec and peul_d_rec."""
    if peul_a(0) != ONE or peul_b_rec(0) != ONE:
        return False
    for n in range(order + 1):
        if n and eulerian_a(n) != _egf_product(lambda k: peul_a(k + 1), eulerian_a, n - 1):
            return False
        if _egf_product(peul_b_rec, peul_b_rec, n) != \
                2 ** n * _egf_product(lambda k: ZM1 ** k, eulerian_a, n):
            return False
        # at n = 0 the sum is empty and P_D(0) = P_B(0)
        if peul_d_rec(n) != peul_b_rec(n) - n * Z * _egf_product(
                lambda k: (-ZM1) ** k, peul_b_rec, n - 1):
            return False
    return True
