"""Exact scalar arithmetic: finite fields GF(p^k) and cyclotomic numbers.

Field elements are polynomials over Z/p modulo a deterministic irreducible
modulus, so GF(p^k) is reproducible across runs.  Character values live in
Q(zeta_N) with exact rational coordinates in the power basis
1, zeta, ..., zeta^(phi(N)-1), stored at the smallest possible order, so
equality is structural and hashing is safe.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import CapExceeded, DivisionByZero, NotPrime, VerificationFailed

FIELD_ORDER_CAP = 2 ** 16
FIELD_TABLE_CAP = 512  # build q x q lookup tables only for small fields


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
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        self._neg_table = None

    # -- index-level arithmetic (used by the algebra layer) -----------------

    def _coeffs(self, i):
        return self.elements[i].coeffs

    def _index_of(self, coeffs):
        idx = 0
        for t in range(self.k - 1, -1, -1):
            idx = idx * self.p + (coeffs[t] if t < len(coeffs) else 0)
        return idx

    def _ensure_tables(self):
        if self._add_table is not None or self.q > FIELD_TABLE_CAP:
            return
        p, q = self.p, self.q
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        inv = [0] * q
        for i in range(q):
            ci = self._coeffs(i)
            for j in range(i, q):
                cj = self._coeffs(j)
                s = tuple((a + b) % p for a, b in zip(ci, cj))
                v = self._index_of(s)
                add[i][j] = v
                add[j][i] = v
                prod = _poly_mul_mod_p(list(ci), list(cj), p)
                _, rem = _poly_divmod_mod_p(prod, list(self.modulus), p)
                w = self._index_of(tuple(rem) + (0,) * self.k)
                mul[i][j] = w
                mul[j][i] = w
        self._add_table = add
        self._mul_table = mul
        for i in range(1, q):
            inv[i] = self._pow_idx(i, q - 2)
        self._inv_table = inv
        self._neg_table = [self._neg_by_coeffs(i) for i in range(q)]

    def add_idx(self, i, j):
        self._ensure_tables()
        if self._add_table is not None:
            return self._add_table[i][j]
        p = self.p
        s = tuple((a + b) % p for a, b in zip(self._coeffs(i), self._coeffs(j)))
        return self._index_of(s)

    def _neg_by_coeffs(self, i):
        p = self.p
        return self._index_of(tuple((-a) % p for a in self._coeffs(i)))

    def neg_idx(self, i):
        self._ensure_tables()
        if self._neg_table is not None:
            return self._neg_table[i]
        return self._neg_by_coeffs(i)

    def sub_idx(self, i, j):
        return self.add_idx(i, self.neg_idx(j))

    def mul_idx(self, i, j):
        self._ensure_tables()
        if self._mul_table is not None:
            return self._mul_table[i][j]
        prod = _poly_mul_mod_p(list(self._coeffs(i)), list(self._coeffs(j)), self.p)
        _, rem = _poly_divmod_mod_p(prod, list(self.modulus), self.p)
        return self._index_of(tuple(rem) + (0,) * self.k)

    def _pow_idx(self, i, n):
        r = 1
        b = i
        while n:
            if n & 1:
                r = self.mul_idx(r, b)
            b = self.mul_idx(b, b)
            n >>= 1
        return r

    def inv_idx(self, i):
        if i == 0:
            raise DivisionByZero("inverse of zero field element")
        self._ensure_tables()
        if self._inv_table is not None:
            return self._inv_table[i]
        return self._pow_idx(i, self.q - 2)

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


def field_ops(field):
    """linalg adapter working on element indices."""
    return linalg.FieldOps(
        zero=0,
        one=1,
        add=field.add_idx,
        neg=field.neg_idx,
        mul=field.mul_idx,
        inv=field.inv_idx,
    )


# ---------------------------------------------------------------------------
# cyclotomic numbers


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial over Z."""
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, exact integer division
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = list(cyclotomic_polynomial(d))
            quot = [0] * (len(num) - len(den) + 1)
            rem = list(num)
            while len(rem) >= len(den):
                shift = len(rem) - len(den)
                factor = rem[-1]  # denominators are monic
                quot[shift] = factor
                for i, dv in enumerate(den):
                    rem[shift + i] -= factor * dv
                while rem and rem[-1] == 0:
                    rem.pop()
            if rem:
                raise VerificationFailed("cyclotomic-division", witness=(n, d))
            num = quot
    return tuple(num)


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
    phi = euler_phi(order)
    vec = [0] * max(1, phi)
    rows = _zeta_power_vectors(order) if order > 1 else None
    for e, c in terms.items():
        if c == 0:
            continue
        e %= order
        if order == 1 or e == 0:
            vec[0] += c
        elif e < phi:
            vec[e] += c
        else:
            for i, r in enumerate(rows[e]):
                if r:
                    vec[i] += c * r
    return [_num(v) for v in vec]


def _descend_once(order, vec):
    """One conductor-descent step, or None if vec needs the full order."""
    if order == 1:
        return None
    if all(v == 0 for v in vec):
        return (1, [0])
    for r in sorted(set(prime_factors(order))):
        d = order // r
        phi_d = euler_phi(d)
        # prime powers: membership in Q(zeta_d) is visible on basis support
        if len(set(prime_factors(order))) == 1:
            if all(c == 0 for e, c in enumerate(vec) if e % r != 0):
                if d == 1:
                    return (1, [vec[0]])
                new = [vec[r * j] if r * j < len(vec) else 0 for j in range(phi_d)]
                return (d, new)
            continue
        # general case: fixed by Gal(Q(zeta_order)/Q(zeta_d)), then solve
        fixed = True
        terms = {e: c for e, c in enumerate(vec) if c != 0}
        for s in range(1 + d, order, d):
            if math.gcd(s, order) != 1:
                continue
            moved = _reduce_terms(order, {(e * s) % order: c for e, c in terms.items()})
            if moved != list(vec):
                fixed = False
                break
        if not fixed:
            continue
        ratio = order // d
        basis_rows = [
            tuple(Fraction(v) for v in _reduce_terms(order, {ratio * i: 1}))
            for i in range(phi_d)
        ]
        target = tuple(Fraction(v) for v in vec)
        sol = linalg.solve_combination(basis_rows, target, linalg.rational_ops())
        if sol is None:
            raise VerificationFailed("galois-fixed-subfield", witness=(order, d, tuple(vec)))
        return (d, [_num(c) for c in sol])
    return None


def _canonical(order, vec):
    while True:
        step = _descend_once(order, vec)
        if step is None:
            return order, tuple(_num(v) for v in vec)
        order, vec = step


class Cyclotomic:
    """An element of some Q(zeta_N), stored at its minimal (conductor) order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        # assumes canonical input; use the factories below
        self.order = order
        self.coeffs = coeffs

    # -- factories -----------------------------------------------------------

    @staticmethod
    def from_terms(order, terms):
        vec = _reduce_terms(order, terms)
        o, v = _canonical(order, vec)
        return Cyclotomic(o, v)

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
