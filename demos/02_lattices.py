"""Quadratic lattices over Z: the K3 lattice, discriminants, complements.

The K3 lattice U^3 + E8(-1)^2 is the fixed home of every construction in
this package; its discriminant group is trivial and its signature (3, 19).
"""

from k3lift import IntLattice, RingContext, smith_normal_form, standard_lattice

u = standard_lattice("U")
e8 = standard_lattice("E8")
k3 = standard_lattice("K3")
print("U:", u.rank, "signature", u.signature(), "det", u.determinant())
print("E8(-1):", e8.rank, "signature", e8.signature(), "det", e8.determinant())
print("K3:", k3.rank, "signature", k3.signature(), "det", k3.determinant())
print("K3 is even and unimodular:", k3.even, k3.is_unimodular())

# discriminant groups read off the Smith normal form of the Gram matrix
threes = IntLattice([[3 if i == j else 0 for j in range(4)] for i in range(4)])
picard = u.direct_sum(threes)
disc = picard.discriminant_group()
print("U + <3>^4 discriminant group:", disc.invariants, "order", disc.order)
print("artin invariant:", disc.artin_invariant(3))

d, left, right = smith_normal_form(picard.gram)
print("smith normal form diagonal:", [int(d[i][i]) for i in range(picard.rank)])

# orthogonal complements are computed saturated inside the ambient lattice
basis = u.orthogonal_complement([[1, 0]])
print("complement of e in U:", [list(v) for v in basis])

# the same Gram data becomes a p-adic lattice by change of ring
ctx = RingContext(5, 3, 1)
u5 = u.change_ring(ctx)
w = u5.vector([1, 0])
print("e is isotropic in U over W:", u5.norm(w).is_zero())
