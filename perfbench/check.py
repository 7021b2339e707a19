"""Output checks in plain integer arithmetic, independent of k3lift's kernels.

Scalars are coefficient tuples over Z/p^n reduced modulo the context's monic
modulus by long division from the top degree, which is a different route
from the library's precomputed x^k reduction table.
"""

from __future__ import annotations

from math import gcd


class IntRing:
    def __init__(self, ctx):
        self.p, self.n, self.m, self.pn = ctx.p, ctx.n, ctx.m, ctx.pn
        self.modulus = tuple(int(c) for c in ctx.modulus)

    def mul(self, a, b):
        m, pn = self.m, self.pn
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            top = conv[k]
            if top:
                for j in range(m):
                    conv[k - m + j] -= top * self.modulus[j]
        return tuple(c % pn for c in conv[:m])

    def add(self, a, b):
        return tuple((x + y) % self.pn for x, y in zip(a, b))

    def zero(self):
        return (0,) * self.m

    def dot(self, u, v):
        acc = self.zero()
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def matvec(self, rows, v):
        return [self.dot(row, v) for row in rows]

    def form(self, gram_rows, u, v):
        return self.dot(u, self.matvec(gram_rows, v))

    def poly_eval(self, coeffs, x):
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def is_zero(self, a):
        return not any(a)

    def is_residue_zero(self, a):
        return all(c % self.p == 0 for c in a)


def vec(obj):
    """RingVec, or its JSON, as a list of coefficient tuples."""
    data = obj if isinstance(obj, list) else obj.to_json()
    return [tuple(e) for e in data]


def mat(obj):
    data = obj if isinstance(obj, list) else obj.to_json()
    return [[tuple(e) for e in row] for row in data]


def scal(obj):
    return tuple(obj if isinstance(obj, list) else obj.coeffs)


def eigen_isotropic(ring, gram, matrix, generator, eigenvalue):
    """A m = lambda m and m . m = 0 exactly, with m nonzero mod p."""
    m = vec(generator)
    lam = scal(eigenvalue)
    image = ring.matvec(mat(matrix), m)
    return (
        image == [ring.mul(lam, x) for x in m]
        and ring.is_zero(ring.form(mat(gram), m, m))
        and not all(ring.is_residue_zero(x) for x in m)
    )


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def primes_up_to(limit):
    return [q for q in range(2, limit + 1) if all(q % d for d in range(2, int(q ** 0.5) + 1))]
