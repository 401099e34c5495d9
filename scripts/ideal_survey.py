#!/usr/bin/env python3
"""Survey minimal left-ideal dimensions across small signatures.

For each Cl(p,q) with p+q <= 4, builds the primitive idempotent (a
greedy product of commuting factors (1 + e_A)/2) and tabulates the
dimension of its minimal left ideal, the spinor space, next to the
algebra dimension and the first factor; division-algebra rows show the
whole algebra.
"""

from clifbundle.ga import Signature
from clifbundle.spinor import find_primitive_idempotent


def main():
    print(f"{'algebra':>9}  {'dim':>4}  {'ideal':>5}  note")
    for n in range(1, 5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rep = find_primitive_idempotent(sig)
            marker = "whole algebra" if rep.whole_algebra else rep.note.split(",")[0]
            print(f"{str(sig):>9}  {1 << n:>4}  {rep.ideal_dimension:>5}  {marker}")


if __name__ == "__main__":
    main()
