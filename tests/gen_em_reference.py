"""Generate the frozen Euler-Maclaurin reference table with mpmath.

    python3 tests/gen_em_reference.py > tests/em_reference.csv

Shares no code with ekconst. Each row holds a rational a/q with q <= 4096,
gamma_0(a/q) = -digamma(a/q) and gamma_1(a/q) = mpmath.stieltjes(1, a/q),
to 25 significant digits at 30-digit working precision. The points are the
fixed corners 1/4096, 4095/4096, 1/2, 1/3, 1/1, a few arguments a/q in
(1, 3], and then seeded random units a/q in (0, 1). Cost is about 65 ms per
mpmath.stieltjes call, so the table stays at a few hundred points.
"""
from __future__ import annotations

import math
import random

import mpmath

DPS = 30
DIGITS = 25
SEED = 20221
Q_MAX = 4096
RANDOM_POINTS = 150

#: Corners of (0, 1]: the smallest and largest units of q = 4096, the
#: classical closed forms at 1/2 and 1/3, and x = 1.
FIXED = ((1, 4096), (4095, 4096), (1, 2), (1, 3), (1, 1))

#: Arguments above 1, a in (q, 3q], as stieltjes01 accepts them.
ABOVE_ONE = ((4, 3), (7, 2), (3, 1), (2999, 1000), (8191, 4096), (12287, 4096))


def points() -> list[tuple[int, int]]:
    rng = random.Random(SEED)
    out = list(FIXED + ABOVE_ONE)
    seen = set(out)
    while len(out) < len(FIXED) + len(ABOVE_ONE) + RANDOM_POINTS:
        q = rng.randint(2, Q_MAX)
        a = rng.randint(1, q - 1)
        if math.gcd(a, q) == 1 and (a, q) not in seen:
            seen.add((a, q))
            out.append((a, q))
    return out


def main() -> None:
    mpmath.mp.dps = DPS
    print(f"# gamma_0(a/q), gamma_1(a/q) to {DIGITS} significant digits; "
          f"mpmath {mpmath.__version__}, {DPS}-digit working precision; "
          "tests/gen_em_reference.py")
    print("a,q,gamma0,gamma1")
    for a, q in points():
        x = mpmath.mpf(a) / q
        g0 = -mpmath.digamma(x)
        g1 = mpmath.stieltjes(1, x)
        print(f"{a},{q},{mpmath.nstr(g0, DIGITS)},{mpmath.nstr(g1, DIGITS)}",
              flush=True)


if __name__ == "__main__":
    main()
