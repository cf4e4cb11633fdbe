"""Exact scalar arithmetic: finite fields GF(p^k) and cyclotomic numbers.

Field elements are polynomials over Z/p modulo a deterministic irreducible
modulus, so GF(p^k) is reproducible across runs.  Element indices add digit
by digit (FiniteField.add_idx, on ints and int64 arrays alike) and multiply
through one log/antilog pair per field (FiniteField.logs), which the array
arithmetic of linalg.FieldArrays copies, so every field order up to
FIELD_ORDER_CAP runs the same code.  Character values of the
p-groups 1+A live in Q(zeta_{p^k}), p^k the group exponent, with exact
rational coordinates in the power basis 1, zeta, ..., zeta^(phi(p^k)-1),
stored at the smallest possible order, so equality is structural and
hashing is safe.  Only order 1 and prime-power orders are supported; a
composite order (zeta_6, or zeta_3 * zeta_4) raises ValueError.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import CapExceeded, DivisionByZero, NotPrime, VerificationFailed

FIELD_ORDER_CAP = 2 ** 16


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(n):
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z/p (coefficient tuples, ascending degree)

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod_mod_p(num, den, p):
    num = _poly_trim(num)
    den = _poly_trim(den)
    if not den:
        raise ZeroDivisionError
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    quot = [0] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(rem) >= len(den) and rem:
        shift = len(rem) - len(den)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, dv in enumerate(den):
            rem[shift + i] = (rem[shift + i] - factor * dv) % p
        rem = _poly_trim(rem)
    return quot, rem


def _is_irreducible_mod_p(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    k = len(poly) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            cand = list(lower) + [1]
            _, rem = _poly_divmod_mod_p(poly, cand, p)
            if not rem:
                return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p, k):
    """First monic irreducible of degree k, scanning coefficient vectors in
    base-p counting order (constant coefficient is the least significant digit)."""
    for idx in range(p ** k):
        lower = [(idx // p ** i) % p for i in range(k)]
        cand = lower + [1]
        if _is_irreducible_mod_p(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible of degree {k} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# finite fields


class FieldElement:
    """Element of a FiniteField; a flyweight, one instance per value."""

    __slots__ = ("field", "coeffs", "index")

    def __init__(self, field, coeffs, index):
        self.field = field
        self.coeffs = coeffs
        self.index = index

    def __add__(self, other):
        self._check(other)
        return self.field.elements[self.field.add_idx(self.index, other.index)]

    def __sub__(self, other):
        self._check(other)
        return self.field.elements[self.field.sub_idx(self.index, other.index)]

    def __neg__(self):
        return self.field.elements[self.field.neg_idx(self.index)]

    def __mul__(self, other):
        self._check(other)
        return self.field.elements[self.field.mul_idx(self.index, other.index)]

    def __truediv__(self, other):
        self._check(other)
        return self.field.elements[self.field.mul_idx(self.index, self.field.inv_idx(other.index))]

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        return self.field.elements[self.field.inv_idx(self.index)]

    def is_zero(self):
        return self.index == 0

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise TypeError("field elements from different fields")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __repr__(self):
        return f"{self.field!r}({self.render()})"

    def render(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return " + ".join(terms) if terms else "0"


class FiniteField:
    """GF(p^k) with a deterministic modulus and a fixed element enumeration.

    Elements are enumerated by the base-p value of their coefficient vector
    (constant coefficient least significant), so element index i represents
    the polynomial with digits of i as coefficients.
    """

    def __init__(self, p, k=1, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        if p ** k > FIELD_ORDER_CAP:
            raise CapExceeded(f"field order {p}^{k} exceeds cap {FIELD_ORDER_CAP}")
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            modulus = _smallest_irreducible(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible_mod_p(list(modulus), p):
            raise ValueError("modulus is not irreducible")
        self.modulus = modulus
        self.elements = [
            FieldElement(self, tuple((i // p ** t) % p for t in range(k)), i)
            for i in range(self.q)
        ]
        self.zero = self.elements[0]
        self.one = self.elements[1]
        # generator of the polynomial basis (the class of x); equals 1 when k == 1
        self.gen = self.elements[p] if k > 1 else self.one

    # -- index-level arithmetic (used by the algebra layer) -----------------
    #
    # add_idx and neg_idx work digit by digit on the index with integer
    # operators only, so they run unchanged on ints and on int64 arrays;
    # mul_idx and inv_idx read the one log/antilog pair of the field.

    def _index_of(self, coeffs):
        idx = 0
        for t in range(self.k - 1, -1, -1):
            idx = idx * self.p + (coeffs[t] if t < len(coeffs) else 0)
        return idx

    @cached_property
    def logs(self):
        """(log, exp) tuples for the powers of g, the first element of order
        q - 1, found by polynomial arithmetic mod the modulus.  exp runs
        twice around the powers of g and then holds zeros, and
        log[0] = 2(q - 1): a sum of two logs indexes exp with no reduction,
        and lands on a zero exactly when a factor is zero.

        A nonzero g has order q - 1 exactly when g^((q-1)/r) != 1 for every
        prime r dividing q - 1, which square-and-multiply tests in O(log q)
        products per candidate; only the winner's cycle is walked."""
        p, n, modulus = self.p, self.q - 1, list(self.modulus)

        def times(i, j):
            prod = _poly_mul_mod_p(list(self.elements[i].coeffs), list(self.elements[j].coeffs), p)
            return self._index_of(_poly_divmod_mod_p(prod, modulus, p)[1])

        def power(g, e):
            out = 1
            while e:
                if e & 1:
                    out = times(out, g)
                g, e = times(g, g), e >> 1
            return out

        g = next(g for g in range(1, self.q)
                 if all(power(g, n // r) != 1 for r in prime_factors(n)))
        powers = [1]
        while (x := times(powers[-1], g)) != 1:
            powers.append(x)
        log = [2 * n] * self.q
        for t, x in enumerate(powers):
            log[x] = t
        return tuple(log), tuple(powers * 2 + [0] * (2 * n + 1))

    def add_idx(self, i, j):
        p = self.p
        if self.k == 1:
            return (i + j) % p
        if p == 2:
            return i ^ j
        s = i + j
        for t in range(self.k):
            pt = p ** t
            s -= ((i // pt) % p + (j // pt) % p >= p) * (p * pt)
        return s

    def neg_idx(self, i):
        p = self.p
        if self.k == 1:
            return -i % p
        if p == 2:
            return i
        return sum(-(i // p ** t) % p * p ** t for t in range(self.k))

    def sub_idx(self, i, j):
        return self.add_idx(i, self.neg_idx(j))

    def mul_idx(self, i, j):
        log, exp = self.logs
        return exp[log[i] + log[j]]

    def inv_idx(self, i):
        if i == 0:
            raise DivisionByZero("inverse of zero field element")
        log, exp = self.logs
        return exp[-log[i] % (self.q - 1)]

    # -- public interface ----------------------------------------------------

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"need {self.k} coefficients")
        return self.elements[self._index_of(coeffs)]

    def descriptor(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (other.p, other.k, other.modulus) == (self.p, self.k, self.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def gf(q, k=None):
    """Cached field constructor; gf(p, k) or gf(q) for a prime power q.
    All callers share one instance per field."""
    if k is None:
        ps = prime_factors(q)
        if len(ps) != 1:
            raise NotPrime(f"{q} is not a prime power")
        p = ps[0]
        k = 0
        while q % p == 0:
            q //= p
            k += 1
        if q != 1:
            raise NotPrime("not a prime power")  # unreachable
        return gf(p, k)
    return FiniteField(q, k)


def field_from_descriptor(d):
    f = gf(int(d["p"]), int(d["k"]))
    if tuple(d.get("modulus", f.modulus)) != f.modulus:
        return FiniteField(int(d["p"]), int(d["k"]), tuple(d["modulus"]))
    return f


def trace(a):
    """Trace into the prime field, returned as an integer in 0..p-1."""
    f = a.field
    t = a
    s = a
    for _ in range(f.k - 1):
        t = t ** f.p
        s = s + t
    if any(s.coeffs[1:]):
        raise VerificationFailed("trace-prime-field", witness=(a.index, s.coeffs))
    return s.coeffs[0]


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _prime_of(n):
    """The prime p of a prime power n = p^k, k >= 1."""
    ps = prime_factors(n)
    if len(ps) != 1:
        raise ValueError(f"cyclotomic order {n} is not 1 or a prime power")
    return ps[0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial over Z, for
    n = 1 or a prime power: Phi_{p^k}(x) = Phi_p(x^(p^(k-1)))."""
    if n == 1:
        return (-1, 1)
    step = n // _prime_of(n)
    return tuple(int(e % step == 0) for e in range(n - step + 1))


@lru_cache(maxsize=None)
def _zeta_power_vectors(n):
    """zeta_n^t for t in 0..n-1, as integer vectors in the power basis."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    # zeta^phi = -sum_{i<phi} poly[i] * zeta^i
    top = [-c for c in poly[:phi]]
    rows = []
    for t in range(phi):
        row = [0] * phi
        row[t] = 1
        rows.append(tuple(row))
    for t in range(phi, n):
        prev = rows[t - 1]
        shifted = [0] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            shifted = [s + lead * c for s, c in zip(shifted, top)]
        rows.append(tuple(shifted))
    return rows


def _num(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _reduce_terms(order, terms):
    """Map {exponent: coefficient} into the power basis of Q(zeta_order)."""
    rows = _zeta_power_vectors(order)
    vec = [0] * len(rows[0])
    for e, c in terms.items():
        if c:
            for i, r in enumerate(rows[e % order]):
                if r:
                    vec[i] += c * r
    return [_num(v) for v in vec]


def _canonical(order, vec):
    """The least order holding vec: in the power basis of Q(zeta_{p^k}), the
    subfield Q(zeta_{p^(k-1)}) is the span of the powers of zeta^p."""
    if order > 1:
        p = _prime_of(order)
        while order > 1 and not any(c for e, c in enumerate(vec) if e % p):
            order //= p
            vec = vec[::p]
    return order, tuple(vec)


class Cyclotomic:
    """An element of some Q(zeta_{p^k}), stored at its minimal (conductor)
    order p^j, j <= k."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        # assumes canonical input; use the factories below
        self.order = order
        self.coeffs = coeffs

    # -- factories -----------------------------------------------------------

    @staticmethod
    def from_terms(order, terms):
        """sum of c * zeta_order^e over terms {e: c}; order is 1 or a prime
        power, anything else raises ValueError."""
        return Cyclotomic(*_canonical(order, _reduce_terms(order, terms)))

    @staticmethod
    def rational(v):
        v = _num(Fraction(v) if not isinstance(v, (int, Fraction)) else v)
        return Cyclotomic(1, (v,))

    @staticmethod
    def zeta(order, power=1):
        return _zeta_cached(order, power % order)

    @staticmethod
    def from_json(d):
        terms = {int(e): Fraction(c) for e, c in d["coeffs"].items()}
        return Cyclotomic.from_terms(int(d["order"]), terms)

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return self.order == 1 and self.coeffs[0] == 0

    def _terms(self):
        return {e: c for e, c in enumerate(self.coeffs) if c != 0}

    def _lift_terms(self, n):
        ratio = n // self.order
        return {e * ratio: c for e, c in self._terms().items()}

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = math.lcm(self.order, other.order)
        terms = self._lift_terms(n)
        for e, c in other._lift_terms(n).items():
            terms[e] = terms.get(e, 0) + c
        return Cyclotomic.from_terms(n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.order == 1:
            c = other.coeffs[0]
            if c == 0:
                return Cyclotomic(1, (0,))
            return Cyclotomic.from_terms(self.order, {e: v * c for e, v in self._terms().items()})
        if self.order == 1:
            return other * self
        n = math.lcm(self.order, other.order)
        a = self._lift_terms(n)
        b = other._lift_terms(n)
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % n
                terms[e] = terms.get(e, 0) + c1 * c2
        return Cyclotomic.from_terms(n, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = Cyclotomic.rational(1)
        base = self
        if n < 0:
            raise ValueError("negative powers not supported")
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self):
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.order == 1:
            return self
        return Cyclotomic.from_terms(
            self.order, {(self.order - e) % self.order: c for e, c in self._terms().items()}
        )

    def embed_vec(self, n):
        """Coordinates in the power basis of Q(zeta_n); requires order | n."""
        if n % self.order != 0:
            raise ValueError(f"order {self.order} does not divide {n}")
        vec = _reduce_terms(n, self._lift_terms(n))
        return tuple(Fraction(v) for v in vec)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.order == other.order and list(self.coeffs) == list(other.coeffs)

    def __hash__(self):
        return hash((self.order, tuple(Fraction(c) for c in self.coeffs)))

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        if self.order == 1:
            return str(self.coeffs[0])
        sym = f"zeta{self.order}"
        parts = []
        for e, c in sorted(self._terms().items()):
            if e == 0:
                base = str(abs(c) if isinstance(c, int) else abs(c))
            else:
                power = sym if e == 1 else f"{sym}^{e}"
                mag = abs(c)
                base = power if mag == 1 else f"{mag}*{power}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, base))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, chunk in parts[1:]:
            out += f" {sign} {chunk}"
        return out

    def __repr__(self):
        return f"Cyclotomic({self})"

    def to_json(self):
        return {
            "order": self.order,
            "coeffs": {str(e): str(Fraction(c)) for e, c in sorted(self._terms().items())},
        }


@lru_cache(maxsize=None)
def _zeta_cached(order, power):
    return Cyclotomic.from_terms(order, {power: 1})
