"""
Basis moves, Dehn twist words, and the double branched cover.

Hurwitz moves change the distinguished basis while transporting the
pairing; Dehn twists act on K-theory classes by a reflection formula; the
double cover assembles matching spheres whose Gram matrix is the input for
the next round of dimensional induction.

Run with: python3 demos/04_moves_twists_and_covers.py
"""

from qlefschetz import (
    TwistWord,
    apply_twist_word,
    dehn_twist_class,
    gram_pairing,
    hurwitz_inverse_move,
    hurwitz_move,
    induced_total_space,
    milnor_ar,
    rescale_object,
    xab,
)

alg = xab(2, 3, 4)

# A Hurwitz move and its inverse, with the transition matrix that
# transports classes between the bases.
moved, c = hurwitz_move(alg, 0)
back, _ = hurwitz_inverse_move(moved, 0)
print("Hurwitz move at the first position; transition matrix:")
print(c)
print("inverse restores the algebra:", back == alg)
print("determinant of the pairing is unchanged:",
      moved.intersection.det() == alg.intersection.det())

# Weight rescaling twists a row and column by powers of q.
rescaled = rescale_object(alg, 0, 1)
print("\nentry (1, 2) before and after a weight shift:",
      alg.intersection[0, 1], "->", rescaled.intersection[0, 1])

# Twist words on the sphere chain: the two-step window class arises as a
# single twist, matching the closed-form relation for the band family.
fibre, spheres = milnor_ar(4, 4)
window = apply_twist_word(fibre, spheres, TwistWord.parse("t2"), spheres[0])
print("\ntwist t2 applied to the first sphere:", window)
print("equals the two-step window:", window == spheres[0] + spheres[1])

# Twisting a spherical class along itself just rescales it.
cover, matching = alg.double_cover()
s0 = matching[0]
print("\nmatching sphere of the double cover:", s0)
print("its self-pairing:", cover.pairing(s0, s0))
print("twist along itself:", dehn_twist_class(cover, s0, s0))

# The matching spheres' Gram matrix is a valid intersection datum one
# dimension up: dimensional induction closes the loop.
lifted = induced_total_space(cover, matching)
print("\ninduced next-level algebra has the same Seifert matrix:",
      lifted.seifert == alg.seifert)
print("its diagonal self-pairings:",
      [str(lifted.intersection[k, k]) for k in range(2)], "...")
print("fibre pairing of the first two matching spheres:",
      gram_pairing(cover.seifert, matching[0], matching[1]))
