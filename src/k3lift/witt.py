"""Truncated Witt-vector arithmetic W(F_{p^m}) / p^n for odd primes p.

The unramified extension is modeled as (Z/p^n)[x] / (f) for a monic degree-m
modulus f whose reduction mod p is irreducible.  Scalars are coefficient
tuples in that quotient; every public value is an exact integer, never a
float.  The residue field F_{p^m} is the same ring at precision n = 1, so
reduction mod p is just a change of context, and the irreducibility of f is
tested there, with the ring's own product.  Polynomials over the ring live
here too: Horner evaluation, derivatives and Newton-Hensel roots, which
also give the Frobenius lift on the class of x.
"""

import functools
import operator
import sys
from math import factorial, gcd

from .constraints import is_prime, multiplicative_order, prime_factors
from .errors import (
    ContextMismatch,
    InputError,
    InsufficientResidueField,
    NoConvergence,
    NonSimpleRoot,
    NonUnit,
    NotTame,
    ValuationViolation,
    int_field,
)


def _exact_int(c, name: str | None = None) -> int:
    """c as an int through operator.index; a bool, float or string is
    refused, naming the argument when a name is given."""
    if not isinstance(c, bool):
        try:
            return operator.index(c)
        except TypeError:
            pass
    if name is None:
        raise InputError("a scalar must be an integer or a coefficient array")
    raise InputError(f"{name} must be an integer, got {c!r}")


def _digits(index: int, base: int, m: int) -> list[int]:
    """The m lowest base-`base` digits of index, least significant first."""
    out = []
    for _ in range(m):
        index, digit = divmod(index, base)
        out.append(digit)
    return out


def factorial_valuation(k: int, p: int) -> int:
    """v_p(k!) by Legendre's formula, the sum of floor(k / p^i)."""
    out = 0
    while k:
        k //= p
        out += k
    return out


@functools.cache
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic degree-m polynomial (lex order on low coefficients)
    irreducible mod p.  Degree 1 always yields x itself.  Memoized, so each
    (p, m) is scanned once per process."""
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        try:
            return RingContext(p, 1, m, _digits(idx, p, m) + [1]).modulus
        except InputError:
            pass
    raise InputError(f"no irreducible polynomial of degree {m} over F_{p} found")


def required_extension_degree(p: int, n_roots: int) -> int:
    """Least m with n_roots | p^m - 1, i.e. the multiplicative order of p mod n_roots."""
    if n_roots <= 0:
        raise InputError("root count must be positive")
    if gcd(p, n_roots) != 1:
        raise NotTame(f"p = {p} divides N = {n_roots}")
    return multiplicative_order(p, n_roots)


class RingContext:
    """Arithmetic context for W(F_{p^m}) / p^n.

    Fields: odd prime p, precision n >= 1, residue degree m >= 1, and a monic
    modulus of degree m over Z/p^n whose reduction mod p is irreducible.
    Instances cache derived data (reduction tables, Frobenius action, roots
    of unity, divided-power factors, residue-field inverses and generator,
    the same extension at other precisions, linalg's dtype and F_q tables)
    and are immutable.
    """

    __slots__ = (
        "p",
        "n",
        "m",
        "modulus",
        "pn",
        "q",
        "_xpow",
        "_derived",
        "_frob_matrix",
        "_root_cache",
        "_gamma_cache",
        "_inverse_cache",
        "_generator",
        "_storage_dtype",
        "_field_tables",
    )

    def __init__(self, p: int, n: int, m: int = 1, modulus=None, *, _residue=None):
        p = _exact_int(p, "p")
        n = _exact_int(n, "precision n")
        m = _exact_int(m, "residue degree m")
        if p < 3 or not is_prime(p):
            raise InputError(f"p must be an odd prime, got {p}")
        if n < 1:
            raise InputError(f"precision n must be >= 1, got {n}")
        if m < 1:
            raise InputError(f"residue degree m must be >= 1, got {m}")
        # entries run up to p^n - 1 and cross JSON in decimal, so p^n - 1 may
        # have at most the interpreter's int <-> str digit limit.  Since
        # 2^(3k) < 10^k < 2^(10k/3), the bit length of p settles all but a
        # narrow band before p^n is formed.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        b = p.bit_length()
        if limit and n * b > 3 * limit and (3 * n * (b - 1) >= 10 * limit or p**n > 10**limit):
            raise InputError(
                f"p^n - 1 has more than {limit} decimal digits, the interpreter's "
                "limit for integer string conversion"
            )
        self.p, self.n, self.m = p, n, m
        self.pn = p**n
        self.q = p**m
        given = modulus is not None
        if not given:
            modulus = default_modulus(p, m)
        elif not isinstance(modulus, (list, tuple)):
            raise InputError("modulus must be a list of integer coefficients")
        modulus = tuple(_exact_int(c, "modulus coefficient") % self.pn for c in modulus)
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise InputError("modulus must be monic of degree m")
        self.modulus = modulus
        self._xpow = self._reduction_table()
        self._derived = {}
        self._frob_matrix = None
        self._root_cache = {}
        self._gamma_cache = {}
        self._inverse_cache = {}
        self._generator = None
        self._storage_dtype = None  # filled by linalg.storage_dtype
        self._field_tables = None  # filled by linalg._field_tables
        if _residue is not None:
            # with_precision's family: the modulus mod p, hence the residue
            # field, is the same at every precision and already tested
            self._derived[1] = _residue
        # a default modulus has passed this test already, in default_modulus's scan
        if given and n > 1:
            self.residue_context()  # builds, and so checks, the modulus mod p
        elif given and not self._is_field():
            raise InputError("modulus must be irreducible mod p")

    # -- identity ----------------------------------------------------------

    def key(self) -> tuple:
        return (self.p, self.n, self.m, self.modulus)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, RingContext) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"RingContext(p={self.p}, n={self.n}, m={self.m})"

    def _is_field(self) -> bool:
        """Rabin's test at precision 1: F_p[x]/(f) is a field exactly when
        x^q = x and x^(p^(m/l)) - x is a unit for every prime l | m.  Once
        x^q = x, f divides x^q - x, so the ring is a product of fields
        F_{p^d} with d | m, and there a is a unit exactly when a^(q-1) = 1."""
        if self.m == 1:
            return True
        x, one = self.generator(), self.one()
        return x**self.q == x and all(
            (x ** (self.p ** (self.m // ell)) - x) ** (self.q - 1) == one
            for ell in prime_factors(self.m)
        )

    def _reduction_table(self) -> list[tuple[int, ...]]:
        """Coefficient vectors of x^k mod (modulus, p^n) for k = 0 .. 2m-2."""
        table = []
        cur = [1] + [0] * (self.m - 1)
        for _ in range(2 * self.m - 1):
            table.append(tuple(cur))
            # multiply by x
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for j in range(self.m):
                    cur[j] = (cur[j] - top * self.modulus[j]) % self.pn
        return table

    # -- constructors ------------------------------------------------------

    def scalar(self, coeffs) -> "PadicScalar":
        """Coerce an integer, a list or tuple of integers, or a PadicScalar
        of this context; any other coefficient raises InputError."""
        if isinstance(coeffs, PadicScalar):
            if coeffs.ctx != self:
                raise ContextMismatch(f"{coeffs.ctx!r} vs {self!r}")
            return coeffs
        if type(coeffs) is int:  # exact type: a bool takes the checked path
            return PadicScalar(self, (coeffs % self.pn,) + (0,) * (self.m - 1))
        if not isinstance(coeffs, (list, tuple)):
            coeffs = [coeffs]
        coeffs = [(c if type(c) is int else _exact_int(c)) % self.pn for c in coeffs]
        if len(coeffs) > self.m:
            raise InputError(f"scalar needs at most {self.m} coefficients")
        coeffs += [0] * (self.m - len(coeffs))
        return PadicScalar(self, tuple(coeffs))

    def zero(self) -> "PadicScalar":
        return self.scalar(0)

    def one(self) -> "PadicScalar":
        return self.scalar(1)

    def generator(self) -> "PadicScalar":
        """The class of x, a lift of a generator of the residue extension."""
        return self.scalar([0, 1] + [0] * (self.m - 2)) if self.m > 1 else self.one()

    def elements(self):
        """Iterate every element (q^n of them); intended for small contexts."""
        for idx in range(self.pn**self.m):
            yield PadicScalar(self, tuple(_digits(idx, self.pn, self.m)))

    # -- context derivation -------------------------------------------------

    def residue_context(self) -> "RingContext":
        """The same extension at precision 1, i.e. the residue field F_q."""
        return self.with_precision(1)

    def with_precision(self, n: int) -> "RingContext":
        """The same extension at precision n, built once per n."""
        if n == self.n:
            return self
        ctx = self._derived.get(n)
        if ctx is None:
            modulus = tuple(c % self.p**n for c in self.modulus)
            residue = self.residue_context() if n > 1 else None
            ctx = self._derived[n] = RingContext(self.p, n, self.m, modulus, _residue=residue)
        return ctx

    def reduce(self, a: "PadicScalar") -> "PadicScalar":
        """Image in the residue field."""
        a = self.scalar(a)
        res = self.residue_context()
        return res.scalar([c % self.p for c in a.coeffs])

    def lift(self, r: "PadicScalar") -> "PadicScalar":
        """Canonical coefficient-wise lift from the residue field (or any
        lower precision) back to this context."""
        if isinstance(r, PadicScalar):
            if r.ctx.p != self.p or r.ctx.m != self.m:
                raise ContextMismatch("lift across incompatible contexts")
            return self.scalar([c % self.pn for c in r.coeffs])
        return self.scalar(r)

    # -- arithmetic core ----------------------------------------------------

    def _mul_coeffs(self, a: tuple, b: tuple) -> tuple:
        m, pn = self.m, self.pn
        if m == 1:
            return ((a[0] * b[0]) % pn,)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = list(conv[:m])
        for k in range(m, 2 * m - 1):
            ck = conv[k]
            if ck:
                red = self._xpow[k]
                for j in range(m):
                    out[j] += ck * red[j]
        return tuple(c % pn for c in out)

    def _inverse_step(self, a: tuple, b: tuple) -> tuple:
        """b (2 - a b): when b inverts a mod p^k, this inverts it mod p^2k."""
        ab, pn = self._mul_coeffs(a, b), self.pn
        return self._mul_coeffs(b, ((2 - ab[0]) % pn,) + tuple(-c % pn for c in ab[1:]))

    def _residue_inverse(self, key: tuple) -> tuple:
        """Inverse of the nonzero residue-field element with coefficients
        key, in this context at precision 1; memoized, so the cache holds at
        most q - 1 entries."""
        inv = self._inverse_cache.get(key)
        if inv is None:
            inv = self._inverse_cache[key] = (PadicScalar(self, key) ** (self.q - 2)).coeffs
        return inv

    def teichmuller(self, r) -> "PadicScalar":
        """Multiplicative lift of a residue-field element.

        Satisfies t^q = t exactly; nonzero inputs give (q-1)-st roots of unity.
        Not memoized: nth_roots_of_unity keeps the roots it builds.
        """
        res = self.residue_context()
        if isinstance(r, PadicScalar):
            if r.ctx == self:
                rbar = self.reduce(r)
            elif r.ctx == res:
                rbar = r
            else:
                raise ContextMismatch("teichmuller input from a foreign context")
        else:
            rbar = res.scalar(r)
        y = self.lift(rbar)
        for _ in range(self.n - 1):
            y = y**self.q
        return y

    def frobenius_matrix(self) -> list[tuple[int, ...]]:
        """Matrix of the Frobenius lift on coefficient vectors (column j is
        sigma(x)^j).  Sigma is the unique ring endomorphism reducing to the
        p-power map; on the class of x it is the Hensel root of the modulus
        through x^p."""
        if self._frob_matrix is None:
            if self.m == 1:
                self._frob_matrix = [(1,)]
            else:
                sigma_x = hensel_root(self, self.modulus, self.generator() ** self.p)
                cols = []
                power = self.one()
                for _ in range(self.m):
                    cols.append(power.coeffs)
                    power = power * sigma_x
                self._frob_matrix = cols
        return self._frob_matrix

    def frobenius(self, a: "PadicScalar") -> "PadicScalar":
        """The canonical Frobenius lift applied to a scalar."""
        a = self.scalar(a)
        if self.m == 1:
            return a
        cols = self.frobenius_matrix()
        out = [0] * self.m
        for j, aj in enumerate(a.coeffs):
            if aj:
                col = cols[j]
                for i in range(self.m):
                    out[i] += aj * col[i]
        return self.scalar(out)

    def _residue_generator(self) -> "PadicScalar":
        """Deterministic generator of F_q^* (smallest by coefficient index).

        Index i < p is the constant i, whose order divides p - 1; for m > 1
        that is below q - 1, so the scan starts at index p there."""
        if self._generator is not None:
            return self._generator
        res = self.residue_context()
        order = self.q - 1
        factors = prime_factors(order)
        for idx in range(2 if self.m == 1 else self.p, self.q):
            g = res.scalar(_digits(idx, self.p, self.m))
            if all((g ** (order // ell)).coeffs != res.one().coeffs for ell in factors):
                self._generator = g
                return g
        raise InputError("failed to find residue-field generator")

    def nth_roots_of_unity(self, n_roots: int) -> list["PadicScalar"]:
        """All N-th roots of unity as Teichmuller lifts, in power order
        [1, z, z^2, ...].  Requires gcd(N, p) = 1 and N | q - 1."""
        if n_roots < 1:
            raise InputError("N must be positive")
        if gcd(n_roots, self.p) != 1:
            raise NotTame(f"p = {self.p} divides N = {n_roots}")
        cached = self._root_cache.get(n_roots)
        if cached is not None:
            return list(cached)
        if (self.q - 1) % n_roots != 0:
            need = required_extension_degree(self.p, n_roots)
            raise InsufficientResidueField(
                f"N = {n_roots} does not divide q - 1 = {self.q - 1}; "
                f"use residue degree m divisible by {need}"
            )
        if n_roots == 1:
            roots = [self.one()]
        else:
            g = self._residue_generator()
            zbar = g ** ((self.q - 1) // n_roots)
            zeta = self.teichmuller(zbar)
            roots, cur = [self.one()], self.one()
            for _ in range(n_roots - 1):
                cur = cur * zeta
                roots.append(cur)
        self._root_cache[n_roots] = tuple(roots)
        return list(roots)

    def divided_power_factor(self, k: int) -> "PadicScalar":
        """The scalar p^k / k! in W_n, exact: with e = v_p(k!) and
        k! = p^e u, this is p^(k-e) * u^(-1)."""
        if k < 0:
            raise InputError("k must be nonnegative")
        cached = self._gamma_cache.get(k)
        if cached is None:
            e = factorial_valuation(k, self.p)
            if k - e >= self.n:
                cached = self.zero()
            else:
                unit_inv = pow(factorial(k) // self.p**e % self.pn, -1, self.pn)
                cached = self.scalar((self.p ** (k - e)) * unit_inv)
            self._gamma_cache[k] = cached
        return cached

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj: dict) -> "RingContext":
        """p, n and an optional m (default 1) must be integers, and modulus
        integer coefficients; anything else raises InputError."""
        p, n = int_field(obj, "p"), int_field(obj, "n")
        m = int_field(obj, "m") if "m" in obj else 1
        return cls(p, n, m, obj.get("modulus"))

    @classmethod
    def of_payload(cls, data, ctx: "RingContext | None" = None) -> "RingContext":
        """The payload's 'ring' object, else ctx (a non-dict payload or a null
        'ring' has none); a payload ring unequal to ctx is a ContextMismatch."""
        ring = data.get("ring") if isinstance(data, dict) else None
        if ring is None:
            if ctx is None:
                raise InputError("payload is missing required field 'ring'")
            return ctx
        if not isinstance(ring, dict):
            raise InputError("field 'ring' must be a ring object")
        own = cls.from_json(ring)
        if ctx is not None and own != ctx:
            raise ContextMismatch(f"payload ring {own.to_json()} vs context {ctx.to_json()}")
        return own


class PadicScalar:
    """An element of W(F_{p^m}) / p^n as a coefficient tuple over Z/p^n."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            if other.ctx != self.ctx:
                raise ContextMismatch(f"{other.ctx!r} vs {self.ctx!r}")
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pn = self.ctx.pn
        return PadicScalar(
            self.ctx, tuple((a + b) % pn for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        pn = self.ctx.pn
        return PadicScalar(self.ctx, tuple((-a) % pn for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pn = self.ctx.pn
        return PadicScalar(
            self.ctx, tuple((a - b) % pn for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScalar(self.ctx, self.ctx._mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ctx.scalar(other)
        return (
            isinstance(other, PadicScalar)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx.key(), self.coeffs))

    def __repr__(self) -> str:
        if self.ctx.m == 1:
            return f"W({self.coeffs[0]} mod {self.ctx.p}^{self.ctx.n})"
        return f"W({list(self.coeffs)} mod {self.ctx.p}^{self.ctx.n})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return any(c % self.ctx.p != 0 for c in self.coeffs)

    def valuation(self) -> int:
        """Largest e <= n with p^e dividing this element; the zero element
        returns n, to be read as "at least n" at this precision."""
        if self.is_zero():
            return self.ctx.n
        v = self.ctx.n
        for c in self.coeffs:
            if c:
                e = 0
                while c % self.ctx.p == 0:
                    c //= self.ctx.p
                    e += 1
                v = min(v, e)
        return v

    def inverse(self) -> "PadicScalar":
        """Inverse of a unit: pow mod p^n when m = 1, otherwise Newton on
        coefficient tuples from the residue-field inverse, which the residue
        context caches."""
        if not self.is_unit():
            raise NonUnit(f"{self!r} has positive valuation")
        ctx = self.ctx
        a, pn = self.coeffs, ctx.pn
        if ctx.m == 1:
            b, steps = (pow(a[0], -1, pn),), 0
        else:
            b = ctx.residue_context()._residue_inverse(tuple(c % ctx.p for c in a))
            # each step doubles the number of correct digits
            steps = (ctx.n - 1).bit_length()
            for _ in range(steps):
                b = ctx._inverse_step(a, b)
        if ctx._mul_coeffs(a, b) != (1,) + (0,) * (ctx.m - 1):
            raise NoConvergence(f"Newton inversion not reached in {steps} steps")
        return PadicScalar(ctx, b)

    def exact_div_p(self, k: int = 1) -> "PadicScalar":
        """Divide the canonical representative by p^k.

        Requires valuation >= k.  The result is canonical mod p^(n-k); it is
        returned in the same context with the representative-level quotient.
        """
        if k == 0:
            return self
        pk = self.ctx.p**k
        if any(c % pk for c in self.coeffs):
            raise ValuationViolation(f"element has valuation < {k}")
        return PadicScalar(self.ctx, tuple(c // pk for c in self.coeffs))

    def frobenius(self) -> "PadicScalar":
        return self.ctx.frobenius(self)

    def reduce(self) -> "PadicScalar":
        return self.ctx.reduce(self)

    def centered(self) -> int | None:
        """Unique representative in (-p^n/2, p^n/2] when the element lies in
        the prime subring Z/p^n; None otherwise."""
        if any(c for c in self.coeffs[1:]):
            return None
        c, pn = self.coeffs[0], self.ctx.pn
        return c if c <= pn // 2 else c - pn

    def to_json(self) -> list[int]:
        return list(self.coeffs)


# ---------------------------------------------------------------------------
# polynomials over the ring, as coefficient lists in ascending degree


def poly_eval(ctx: RingContext, coeffs, x) -> PadicScalar:
    """Evaluate sum coeffs[k] x^k (ascending degree) by Horner on coefficient
    tuples: each coefficient is coerced once, then every step is one
    ctx._mul_coeffs product and a reduced sum."""
    x = ctx.scalar(x).coeffs
    cs = [ctx.scalar(c).coeffs for c in coeffs]
    if not cs:
        return ctx.zero()
    mul, pn = ctx._mul_coeffs, ctx.pn
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = tuple((a + b) % pn for a, b in zip(mul(acc, x), c))
    return PadicScalar(ctx, acc)


def poly_derivative(ctx: RingContext, coeffs) -> list[PadicScalar]:
    scalars = [ctx.scalar(c) for c in coeffs]
    return [ctx.scalar(k) * scalars[k] for k in range(1, len(scalars))]


def hensel_root(ctx: RingContext, coeffs, x0) -> PadicScalar:
    """Unique root of f congruent to x0 mod p, for a simple residue root.

    coeffs lists f in ascending degree.  Requires f(x0) = 0 mod p and
    f'(x0) a unit.  This is p-adic Newton iteration with the inverse of f'
    carried along (von zur Gathen and Gerhard, Modern Computer Algebra,
    Alg. 9.22): s starts as the residue-field inverse of f'(x0), and each
    of the L = ceil(log2(n)) steps sets x <- x - f(x) s, then
    s <- s (2 - f'(x) s), doubling the correct digits of both; the last
    step skips the s refresh.  That is 2L + 1 evaluations of f or f' in
    all (2 when n = 1), fewer if some f(x) is already 0.
    """
    x = ctx.scalar(x0)
    coeffs = [ctx.scalar(c) for c in coeffs]
    fprime = poly_derivative(ctx, coeffs)
    d = poly_eval(ctx, fprime, x)
    if not d.is_unit():
        raise NonSimpleRoot("derivative at the initial point is not a unit")
    fx = poly_eval(ctx, coeffs, x)
    if fx.is_unit():
        raise NonSimpleRoot("initial point is not a root modulo p")
    p = ctx.p
    if ctx.m == 1:
        s = (pow(d.coeffs[0], -1, p),)
    else:
        s = ctx.residue_context()._residue_inverse(tuple(c % p for c in d.coeffs))
    steps = (ctx.n - 1).bit_length()
    for step in range(1, steps + 1):
        if fx.is_zero():
            break
        x = x - PadicScalar(ctx, ctx._mul_coeffs(fx.coeffs, s))
        if step < steps:
            s = ctx._inverse_step(poly_eval(ctx, fprime, x).coeffs, s)
        fx = poly_eval(ctx, coeffs, x)
    if not fx.is_zero():
        raise NoConvergence(f"Newton iteration left f(x) nonzero after {steps} steps")
    return x
