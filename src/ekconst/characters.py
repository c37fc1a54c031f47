"""Dirichlet characters mod q as exponent vectors on cyclic generators.

(Z/q)^x is decomposed into cyclic components: one component per odd prime
power factor (generated by a lifted primitive root) and, for the 2-part,
nothing for 2^1, the single class of 3 for 2^2, and the pair {-1, 5} for
2^k with k >= 3. A character is the tuple of its exponents against these
generators; values are exact roots of unity exp(2*pi*i*t/L) with the integer
t computed in exact arithmetic and converted to complex only at the last
step. _conductor_factors is the one conductor rule: one factor per
component (one for the 2-part's pair), whose outer product is
conductor_grid, the conductors of all characters of a group at once.
primitive_mask compares each factor with its prime power instead, so
primitive_characters and the conductor totals pick the primitive characters
without the int64 grid. A character's values come from its value table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .sieve import factorize


@dataclass(frozen=True)
class Component:
    generator: int   # lifted generator, acts as identity on the other factors
    order: int
    prime: int
    prime_exp: int   # the k of the p^k factor this component belongs to
    kind: str        # "odd", "two", "two_minus_one", "two_five"


class CharacterGroup:
    """Structure of (Z/q)^x: its cyclic components and the unit grid."""

    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        self.modulus = modulus
        self.components = _components(modulus)
        self.orders = tuple(c.order for c in self.components)
        self.phi = 1
        for d in self.orders:
            self.phi *= d
        self.exponent = reduce(math.lcm, self.orders, 1)

        # unit_grid[e1, ..., er] = prod g_i^{e_i} mod q, row major so the last
        # component varies fastest.
        grid = np.array([1 if modulus > 1 else 0], dtype=np.int64)
        for comp in self.components:
            powers = _powers(comp.generator, comp.order, modulus)
            grid = (grid[:, None] * powers[None, :]) % modulus
            grid = grid.reshape(-1)
        self.unit_grid = grid.reshape(self.orders or (1,))

    @cached_property
    def exp_vectors(self) -> np.ndarray:
        """The exponent tuple of every unit_grid entry, one row each in row
        major order. Built on first use: only value tables and
        primitive_characters read it, never the conductor totals."""
        if not self.orders:
            return np.zeros((1, 0), dtype=np.int64)
        return np.indices(self.orders).reshape(len(self.orders), -1).T.copy()

    @cached_property
    def root_table(self) -> np.ndarray:
        """exp(2*pi*i*t/L) for t = 0..L-1, L the group exponent; built on
        first use, like exp_vectors."""
        return np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)


class DirichletCharacter:
    """One character, identified by (modulus, exponent tuple)."""

    def __init__(self, group: CharacterGroup, exponents: tuple[int, ...]) -> None:
        if len(exponents) != len(group.orders):
            raise ValueError("exponent tuple does not match group components")
        for k, d in zip(exponents, group.orders):
            if not 0 <= k < d:
                raise ValueError(f"exponent {k} out of range for order {d}")
        self.group = group
        self.modulus = group.modulus
        self.exponents = tuple(int(k) for k in exponents)
        # integer weights: chi(unit_grid[e]) = root_table[sum w_i e_i mod L]
        L = group.exponent
        self._weights = np.array(
            [k * (L // d) for k, d in zip(self.exponents, group.orders)],
            dtype=np.int64,
        )
        self._values: np.ndarray | None = None

    @property
    def is_principal(self) -> bool:
        return all(k == 0 for k in self.exponents)

    def value_table(self) -> np.ndarray:
        """chi(r) for r = 0..q-1 as one complex array (zeros off the units)."""
        if self._values is None:
            if self.modulus == 1:
                vals = np.ones(1, dtype=np.complex128)
            else:
                vals = np.zeros(self.modulus, dtype=np.complex128)
                t = (self.group.exp_vectors @ self._weights) % self.group.exponent
                vals[self.group.unit_grid.reshape(-1)] = self.group.root_table[t]
            vals.flags.writeable = False
            self._values = vals
        return self._values


def build_group(modulus: int) -> CharacterGroup:
    return CharacterGroup(modulus)


def enumerate_characters(group: CharacterGroup) -> list[DirichletCharacter]:
    """All phi(q) characters, deterministic mixed-radix order."""
    return [
        DirichletCharacter(group, tuple(int(v) for v in ks))
        for ks in np.ndindex(*group.orders)
    ]


def primitive_characters(group: CharacterGroup) -> list[DirichletCharacter]:
    """The characters of conductor q, in the order of enumerate_characters."""
    ranks = np.flatnonzero(primitive_mask(group).reshape(-1))
    return [DirichletCharacter(group, tuple(int(v) for v in
                                            group.exp_vectors[r]))
            for r in ranks]


def _powers(g: int, order: int, modulus: int) -> np.ndarray:
    """g^j mod modulus for j = 0..order-1, read row by row from a table
    whose row i, column k holds g^(width*i) * g^k mod modulus, with width =
    ceil(sqrt(order)): only about 2*width powers are taken in Python ints.
    The products stay below modulus^2, as in the unit-grid product."""
    width = math.isqrt(order - 1) + 1
    low = np.array(_geometric(g, width, modulus), dtype=np.int64)
    high = np.array(_geometric(pow(g, width, modulus), -(-order // width),
                               modulus), dtype=np.int64)
    return (high[:, None] * low[None, :] % modulus).reshape(-1)[:order]


def _geometric(g: int, n: int, modulus: int) -> list[int]:
    """[1, g, g^2, ..., g^(n-1)] mod modulus."""
    out = [1] * n
    for j in range(1, n):
        out[j] = out[j - 1] * g % modulus
    return out


@cache
def _primitive_root(p: int, k: int) -> int:
    """Smallest primitive root mod p, adjusted to generate mod p^k."""
    fac = [r for r, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in fac):
            break
        g += 1
    if k >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, level: int, modulus: int) -> int:
    """x = residue mod level, x = 1 mod modulus/level."""
    other = modulus // level
    if other == 1:
        return residue % modulus
    inv_other = pow(other, -1, level)
    inv_level = pow(level, -1, other)
    return (residue * other * inv_other + level * inv_level) % modulus


def _components(modulus: int) -> tuple[Component, ...]:
    comps: list[Component] = []
    for p, k in factorize(modulus):
        level = p**k
        if p == 2:
            if k == 1:
                continue
            if k == 2:
                comps.append(Component(
                    _crt_lift(3, level, modulus), 2, 2, k, "two"))
            else:
                comps.append(Component(
                    _crt_lift(level - 1, level, modulus), 2, 2, k,
                    "two_minus_one"))
                comps.append(Component(
                    _crt_lift(5, level, modulus), 2 ** (k - 2), 2, k,
                    "two_five"))
        else:
            g = _primitive_root(p, k)
            comps.append(Component(
                _crt_lift(g, level, modulus), level // p * (p - 1), p, k,
                "odd"))
    return tuple(comps)


def conductor_grid(group: CharacterGroup) -> np.ndarray:
    """Conductors of all characters at once, shaped like the exponent grid.

    Entry [k1, ..., kr] is the conductor of the character with that exponent
    tuple: the outer product of the factors of _conductor_factors.
    """
    cond = np.ones((), dtype=np.int64)
    for factor, _ in _conductor_factors(group):
        cond = np.multiply.outer(cond, factor)
    return cond.reshape(group.orders or (1,))


def primitive_mask(group: CharacterGroup) -> np.ndarray:
    """conductor_grid(group) == q as a boolean array, built from the same
    factors without the int64 grid: a character is primitive where every
    factor is the whole prime power of q it belongs to. q = 2 mod 4 has no
    factor for its 2 and so no primitive character."""
    mask = np.array(group.modulus % 4 != 2)
    for factor, level in _conductor_factors(group):
        mask = np.logical_and.outer(mask, factor == level)
    return mask.reshape(group.orders or (1,))


def _conductor_factors(group: CharacterGroup):
    """The one conductor rule: (factor, level) per factor of the conductor
    grid, in component order, level the prime power of q the factor divides.

    Per component the factor is the smallest prime power the character's
    restriction factors through. For an odd p^e with exponent k against a
    generator of order p^(e-1) * (p - 1) it is 1 at k = 0, else
    p^(e - min(v, e - 1)) with p^v the power of p in k. For the 2-part,
    2^e with exponent k against 5, of order 2^(e-2), it is 2^(e - v) at
    k != 0, else 4 where the sign (or, for e = 2, the mod-4) exponent is
    odd, and 1. So each factor is 1-D over one component's exponents,
    except one 2-D factor over the 2-part's sign and 5-exponent pair.
    """
    comps = group.components
    i = 0
    while i < len(comps):
        comp = comps[i]
        p, e = comp.prime, comp.prime_exp
        if comp.kind == "odd":
            factor = _dividing_powers(comp.order, p, e, e)
            factor[0] = 1
            i += 1
        elif comp.kind == "two":
            factor = np.array([1, 4], dtype=np.int64)
            i += 1
        else:
            factor = np.tile(_dividing_powers(comps[i + 1].order, 2, e, e - 2),
                             (2, 1))
            factor[:, 0] = (1, 4)
            i += 2
        yield factor, p**e


def _dividing_powers(n: int, p: int, e: int, top: int) -> np.ndarray:
    """p^e divided by p once for each p^t, 0 < t < top, that divides k, at
    k = 0 .. n - 1: p^(e - min(v, top - 1)) with p^v the power of p in k,
    and p^(e - top + 1) at k = 0, which the caller overwrites."""
    factor = np.full(n, p**e, dtype=np.int64)
    for t in range(1, top):
        factor[::p**t] //= p
    return factor
