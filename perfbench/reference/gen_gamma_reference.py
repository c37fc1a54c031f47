"""Generate the frozen gamma_q reference table with mpmath.

    python3 perfbench/reference/gen_gamma_reference.py > perfbench/reference/gamma_reference.csv

Shares no code with ekconst. For odd m,

    gamma_m = gamma + sum over d | m, d > 1, of
              sum over primitive chi mod d of Re L'/L(1, chi),

with L'/L(1, chi) = -log d - S1/S0, S0 = sum_a chi(a) gamma_0(a/d),
S1 = sum_a chi(a) gamma_1(a/d), gamma_0 = -digamma and gamma_1 from
mpmath.stieltjes. Characters come from primitive roots of each odd prime
power. For q = 2 mod 4, gamma_q = gamma_{q/2}: a conductor that is 2 mod 4
carries no primitive character. Only q odd or q = 2 mod 4 is accepted.

Cost is one mpmath.stieltjes call per fraction a/m (about 65 ms at 30 digits),
so the table stays at moduli whose odd part is small.
"""
from __future__ import annotations

import math

import mpmath

DPS = 30
DIGITS = 25

#: 45 and 997 are in every moduli run; 2062 and 2310 are in the scan block
#: (2048, 4096] and are 2 mod 4, so they cost as much as 1031 and 1155.
MODULI = (45, 997, 2062, 2310)


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def primitive_root(p: int, k: int) -> int:
    """A generator of (Z/p^k)^x for an odd prime p."""
    order_factors = [r for r, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // r, p) == 1 for r in order_factors):
        g += 1
    if k > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def primitive_logderiv_total(d: int, g0: dict, g1: dict) -> mpmath.mpf:
    """Sum of Re L'/L(1, chi) over the primitive characters mod odd d."""
    comps = []
    for p, k in factorize(d):
        pk = p ** k
        order = pk - pk // p
        gen = primitive_root(p, k)
        ind = {}
        x = 1
        for j in range(order):
            ind[x] = j
            x = x * gen % pk
        comps.append((p, k, pk, order, ind))
    big = 1
    for *_, order, _ in comps:
        big = math.lcm(big, order)
    units = [a for a in range(1, d) if math.gcd(a, d) == 1]
    # angle index of a, per component, in units of 2 pi / big
    steps = [[ind[a % pk] * (big // order) for a in units]
             for _, _, pk, order, ind in comps]
    cos_t = [mpmath.cospi(mpmath.mpf(2 * t) / big) for t in range(big)]
    sin_t = [mpmath.sinpi(mpmath.mpf(2 * t) / big) for t in range(big)]
    w0 = [g0[(a, d)] for a in units]
    w1 = [g1[(a, d)] for a in units]
    log_d = mpmath.log(d)

    def exponents(i):
        if i == len(comps):
            yield ()
            return
        p, k, _, order, _ = comps[i]
        for e in range(order):
            primitive = e % p != 0 if k > 1 else e != 0
            if primitive:
                for rest in exponents(i + 1):
                    yield (e,) + rest

    total = mpmath.mpf(0)
    for e in exponents(0):
        conj = tuple((-x) % c[3] for x, c in zip(e, comps))
        if conj < e:
            continue  # L'/L at the conjugate character is the conjugate
        weight = 1 if conj == e else 2
        ts = [sum(ei * st[j] for ei, st in zip(e, steps)) % big
              for j in range(len(units))]
        c = [cos_t[t] for t in ts]
        s = [sin_t[t] for t in ts]
        s0 = mpmath.mpc(mpmath.fdot(c, w0), mpmath.fdot(s, w0))
        s1 = mpmath.mpc(mpmath.fdot(c, w1), mpmath.fdot(s, w1))
        total += weight * (-log_d - s1 / s0).real
    return total


def gamma_odd(m: int) -> mpmath.mpf:
    g0 = {}
    g1 = {}
    for a in range(1, m):
        h = math.gcd(a, m)
        key = (a // h, m // h)
        x = mpmath.mpf(key[0]) / key[1]
        g0[key] = -mpmath.digamma(x)
        g1[key] = mpmath.stieltjes(1, x)
    total = +mpmath.euler
    for d in range(2, m + 1):
        if m % d == 0:
            total += primitive_logderiv_total(d, g0, g1)
    return total


def gamma_reference(q: int) -> mpmath.mpf:
    if q % 2 == 1:
        return gamma_odd(q)
    if q % 4 == 2:
        return gamma_odd(q // 2)
    raise ValueError(f"only odd q or q = 2 mod 4 are supported, got {q}")


def main() -> None:
    mpmath.mp.dps = DPS
    print(f"# gamma_q to {DIGITS} significant digits; mpmath {mpmath.__version__}"
          f", {DPS}-digit working precision; "
          "perfbench/reference/gen_gamma_reference.py")
    print("q,gamma_q")
    for q in MODULI:
        print(f"{q},{mpmath.nstr(gamma_reference(q), DIGITS)}", flush=True)


if __name__ == "__main__":
    main()
