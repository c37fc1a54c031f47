"""Dirichlet character group: orthogonality, conductors, primitivity."""
import math
from itertools import product

import numpy as np
import pytest

from ekconst import (build_group, conductor_grid, ekgamma,
                     enumerate_characters, primitive_characters,
                     principal_character, totient)
from ekconst.characters import primitive_mask


def _exponent_conductor(group, exponents):
    """Conductor from the exponent tuple, one component at a time in Python
    ints: the per-character rule that conductor_grid vectorizes."""
    cond = 1
    i = 0
    comps = group.components
    while i < len(comps):
        comp = comps[i]
        k = exponents[i]
        if comp.kind == "odd":
            o = comp.order // math.gcd(comp.order, k)
            if o > 1:
                j = 0
                while o % comp.prime == 0:
                    o //= comp.prime
                    j += 1
                cond *= comp.prime ** (j + 1)
            i += 1
        elif comp.kind == "two":
            if k % 2 == 1:
                cond *= 4
            i += 1
        else:
            # two_minus_one followed by two_five; conductor of the 2-part is
            # decided by the order of the 5-exponent, else by the sign part.
            k5 = exponents[i + 1]
            d5 = comps[i + 1].order
            o5 = d5 // math.gcd(d5, k5)
            if o5 > 1:
                m = o5.bit_length() - 1  # o5 is a power of two
                cond *= 2 ** (m + 2)
            elif k % 2 == 1:
                cond *= 4
            i += 2
    return cond


def _exponent_parity(group, exponents):
    """chi(-1) from the exponent tuple: -1 = prod g_i^{e_i}, so chi(-1) is
    the root of unity of index sum k_i e_i L/d_i mod L."""
    q = group.modulus
    if q <= 2:
        minus_one = [0] * len(group.orders)
    else:
        rank = int(np.flatnonzero(group.unit_grid.reshape(-1) == q - 1)[0])
        minus_one = group.exp_vectors[rank].tolist()
    L = group.exponent
    t = 0
    for k, e, d in zip(exponents, minus_one, group.orders):
        t = (t + k * e * (L // d)) % L
    return 1 if t == 0 else -1


def _value_matrix(q):
    group = build_group(q)
    chars = enumerate_characters(group)
    return group, chars, np.array([c.value_table() for c in chars])


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 45, 60])
def test_character_count_is_totient(q):
    assert len(enumerate_characters(build_group(q))) == totient(q)


def test_row_orthogonality_small_moduli():
    # sum_n chi(n) conj(chi'(n)) over a period = phi(q) [chi = chi']
    for q in range(1, 61):
        _, chars, mat = _value_matrix(q)
        gram = mat @ mat.conj().T
        target = totient(q) * np.eye(len(chars))
        assert np.max(np.abs(gram - target)) < 1e-10, q


def test_column_orthogonality_small_moduli():
    # sum_chi chi(m) conj(chi(n)) = phi(q) [m = n on units]
    for q in range(2, 41):
        _, chars, mat = _value_matrix(q)
        gram = mat.conj().T @ mat
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        for m, n in product(units, repeat=2):
            want = totient(q) if m == n else 0.0
            assert abs(gram[m, n] - want) < 1e-10, (q, m, n)


def test_values_are_roots_of_unity_or_zero():
    for q in (7, 12, 16, 45):
        for chi in enumerate_characters(build_group(q)):
            table = chi.value_table()
            for n in range(q):
                if math.gcd(n, q) == 1:
                    assert abs(abs(table[n]) - 1.0) < 1e-12
                else:
                    assert table[n] == 0


def test_complete_multiplicativity():
    for q in (5, 8, 9, 12):
        for chi in enumerate_characters(build_group(q)):
            table = chi.value_table()
            for m in range(1, 3 * q):
                for n in range(1, 3 * q):
                    lhs = chi.evaluate(m * n)
                    rhs = chi.evaluate(m) * chi.evaluate(n)
                    assert abs(lhs - rhs) < 1e-12
            # period q
            for n in range(2 * q):
                assert chi.evaluate(n) == table[n % q]


def test_principal_character_is_indicator_of_units():
    for q in (1, 2, 6, 10, 36):
        chi0 = principal_character(build_group(q))
        assert chi0.is_principal
        for n in range(q):
            want = 1.0 if math.gcd(n, q) == 1 else 0.0
            assert chi0.evaluate(n) == want


def test_conductor_via_factorization_oracle():
    # the conductor is the least d | q through which the table factors:
    # chi(n) = chi(m) whenever n = m mod d on units. q = 1 and 2 have the
    # empty exponent tuple; 32 and 48 carry the {-1, 5} pair of the 2-part.
    # The grid, indexed by the exponent tuple, is checked at the same time.
    for q in (1, 2, 8, 9, 12, 15, 16, 24, 32, 40, 48, 105):
        group = build_group(q)
        grid = conductor_grid(group)
        chars = enumerate_characters(group)
        assert grid.size == len(chars)
        for chi in chars:
            units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
            cond = None
            for d in sorted(set(d for d in range(1, q + 1) if q % d == 0)):
                classes = {}
                ok = True
                for n in units:
                    key = n % d
                    val = chi.evaluate(n)
                    if key in classes and abs(classes[key] - val) > 1e-12:
                        ok = False
                        break
                    classes[key] = val
                if ok:
                    cond = d
                    break
            at = chi.exponents if chi.exponents else (0,)
            assert grid[at] == cond, (q, chi.exponents)
            assert chi.conductor == cond, (q, chi.exponents)
            assert chi.is_primitive == (cond == q)


def test_conductor_grid_matches_per_character():
    # the grid is indexed by the exponent tuple, one axis per component, and
    # agrees with the per-character exponent rule at every character
    for q in (1, 2, 3, 4, 8, 9, 12, 36, 100, 101):
        group = build_group(q)
        grid = conductor_grid(group)
        chars = enumerate_characters(group)
        assert grid.size == len(chars)
        for chi in chars:
            want = _exponent_conductor(group, chi.exponents)
            got = grid[chi.exponents] if chi.exponents else grid.reshape(-1)[0]
            assert got == want, (q, chi.exponents)
            assert chi.conductor == want, (q, chi.exponents)


def test_conductor_grid_built_once_per_group():
    group = build_group(45)
    grid = conductor_grid(group)
    assert conductor_grid(group) is grid
    assert not grid.flags.writeable
    primitive_characters(group)
    assert enumerate_characters(group)[7].conductor == grid.reshape(-1)[7]
    assert conductor_grid(group) is grid


def test_primitive_mask_is_the_grid_at_q():
    # the mask compares each factor with its prime power, without the
    # grid: every q <= 5000 (q = 2 mod 4 has no primitive character), the
    # {-1, 5} pair alone at 65536, mixed moduli at 60060, a large prime
    for q in list(range(1, 5001)) + [65536, 60060, 1000003]:
        group = build_group(q)
        mask = primitive_mask(group)
        assert mask.dtype == bool, q
        assert np.array_equal(mask, conductor_grid(group) == q), q


def test_primitive_characters_order_matches_filtered_enumeration():
    # primitive_characters keeps the order of enumerate_characters
    for q in range(1, 201):
        group = build_group(q)
        want = [chi.exponents for chi in enumerate_characters(group)
                if _exponent_conductor(group, chi.exponents) == q]
        assert [chi.exponents for chi in primitive_characters(group)] == want


def test_parity_matches_exponent_formula():
    for q in range(1, 201):
        group = build_group(q)
        for chi in enumerate_characters(group):
            assert chi.parity == _exponent_parity(group, chi.exponents), (
                q, chi.exponents)


def _loop_unit_grid(group):
    """unit_grid built one power at a time in Python ints."""
    q = group.modulus
    grid = [1 if q > 1 else 0]
    for comp in group.components:
        powers = []
        acc = 1
        for _ in range(comp.order):
            powers.append(acc)
            acc = acc * comp.generator % q
        grid = [u * p % q for u in grid for p in powers]
    return grid


def test_group_tables_match_loop_construction():
    # unit_grid against the power-by-power loop, and a bijection onto the
    # units; conductor_grid against the per-character exponent rule; for
    # every modulus up to 1500
    for q in range(1, 1501):
        group = build_group(q)
        grid = _loop_unit_grid(group)
        assert group.unit_grid.shape == (group.orders or (1,)), q
        assert group.unit_grid.reshape(-1).tolist() == grid, q
        units = [n % q for n in range(1, q + 1) if math.gcd(n, q) == 1]
        assert sorted(grid) == sorted(units), q
        want = [_exponent_conductor(group, tuple(e))
                for e in group.exp_vectors.tolist()]
        assert conductor_grid(group).reshape(-1).tolist() == want, q


def test_scan_builds_no_character_tables(monkeypatch):
    # the conductor totals read the unit grid and the primitive mask only;
    # the exponent vectors and the root table wait for a value table
    built = []

    def recording_build_group(q):
        built.append(build_group(q))
        return built[-1]

    monkeypatch.setattr(ekgamma, "build_group", recording_build_group)
    ekgamma.conductor_totals([3, 5, 8, 12, 45, 97, 128])
    group = build_group(360)
    conductor_grid(group)
    assert [g.modulus for g in built] == [3, 5, 8, 12, 45, 97, 128]
    for g in built + [group]:
        assert "exp_vectors" not in vars(g), g.modulus
        assert "root_table" not in vars(g), g.modulus


def test_lazy_tables_match_eager_construction():
    # after a value table both tables exist and equal the construction
    # CharacterGroup once made in __init__ (mod 1 the table is [1] and
    # reads neither)
    for q in range(1, 301):
        group = build_group(q)
        principal_character(group).value_table()
        built = "exp_vectors" in vars(group) and "root_table" in vars(group)
        assert built == (q > 1), q
        if group.orders:
            want = np.indices(group.orders).reshape(len(group.orders),
                                                    -1).T.copy()
        else:
            want = np.zeros((1, 0), dtype=np.int64)
        assert group.exp_vectors.dtype == want.dtype, q
        assert np.array_equal(group.exp_vectors, want), q
        roots = np.exp(2j * np.pi * np.arange(group.exponent)
                       / group.exponent)
        assert np.array_equal(group.root_table.view(np.uint64),
                              roots.view(np.uint64)), q


def test_conductor_partition_counts():
    # the number of characters mod q of conductor d equals the number of
    # primitive characters mod d
    prim_count = {}
    for d in range(1, 201):
        prim_count[d] = sum(1 for _ in primitive_characters(build_group(d)))
    for q in range(1, 201):
        grid = conductor_grid(build_group(q)).reshape(-1)
        assert grid.size == totient(q)
        for d in set(grid.tolist()):
            assert q % d == 0, (q, d)
            assert int(np.sum(grid == d)) == prim_count[d], (q, d)


def test_no_primitive_characters_mod_2_mod_4():
    for m in range(2, 203, 4):
        assert primitive_characters(build_group(m)) == []


def test_mod_8_conductors():
    grid = sorted(conductor_grid(build_group(8)).reshape(-1).tolist())
    assert grid == [1, 4, 8, 8]


def test_parity_and_order():
    for q in (3, 4, 5, 8, 12):
        for chi in enumerate_characters(build_group(q)):
            val = chi.evaluate(q - 1)  # chi(-1)
            assert abs(val - chi.parity) < 1e-12
            assert chi.parity in (1, -1)
            # order divides phi(q): chi^order = principal
            n = 3 if math.gcd(3, q) == 1 else (q + 1 if math.gcd(q + 1, q) == 1 else 1)
            assert abs(chi.evaluate(n) ** chi.order - 1.0) < 1e-10


def test_group_rejects_bad_modulus():
    with pytest.raises(ValueError):
        build_group(0)
    with pytest.raises(ValueError):
        build_group(-3)
