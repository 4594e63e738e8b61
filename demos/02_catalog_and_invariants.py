"""
The catalog families and their derived invariants.

Builds the cyclic band family and the mirror-plane family through the
dimensional induction (sphere chain -> fibre classes -> intersection
matrix), then derives monodromy, the classical shadow, and determinants.

Run with: python3 demos/02_catalog_and_invariants.py
"""

from qlefschetz import KClass, gram_pairing, milnor_ar, mirror_p2, q, xab

# The fibre-level input: the type-A Milnor fibre, a datum one dimension
# down whose Seifert matrix is the Mukai matrix of the thimble objects, and
# its sphere chain, whose classes are differences of basis vectors.
fibre, spheres = milnor_ar(4, 4)
print("Mukai matrix of the A_4 chain (n = 4):")
print(fibre.seifert)
print("sphere classes:", ", ".join(str(s) for s in spheres))
print("adjacent pairing <S1, S2> =", gram_pairing(fibre.seifert, spheres[0], spheres[1]))

# The (2, 3) family: windows of two consecutive spheres, paired in the
# fibre, give a cyclic band matrix.
alg = xab(2, 3, 4)
print("\nintersection matrix of the (2, 3) family, n even:")
print(alg.intersection)

# Its q = 1 shadow reproduces the classical integer matrices.
seifert1, intersection1, monodromy1 = alg.specialize_classical()
print("\nclassical Seifert matrix rows:", seifert1)
print("classical monodromy rows:     ", monodromy1)

# The q-monodromy satisfies <h0, N h1> = (-1)^n q star(<h1, h0>).
n_q = alg.monodromy()
e1, e2 = KClass.basis_vector(5, 0), KClass.basis_vector(5, 1)
print("\n<e1, N e2>                =", alg.pairing(e1, n_q @ e2))
print("(-1)^n q star(<e2, e1>)   =", q * alg.pairing(e2, e1).star())

# det of the constant-Seifert deformation is the characteristic polynomial
# of the classical monodromy.
print("\ncharpoly of classical monodromy:", alg.charpoly_matrix().det())

# The mirror-plane family has an invertible intersection matrix; its
# determinant (shown for even n) factors as published.
mirror = mirror_p2(4)
print("\nmirror-plane intersection matrix, n even:")
print(mirror.intersection)
print("det =", mirror.intersection.det())
print("q^-2 (q-1)^3 (q+1)^2 (q^2+1) =", q**-2 * (q - 1) ** 3 * (q + 1) ** 2 * (q**2 + 1))
