"""Substitution, CHSH decomposition, and full nesting trees."""

import re

import numpy as np
import pytest

from bellpoly.compose import (
    NestingLeaf,
    NestingNode,
    chsh_decompose,
    evaluate_nesting,
    full_nesting,
    nesting_from_json,
    nesting_to_json,
    substitute,
)
from bellpoly.inequality import (
    BellTable,
    NotExtremalError,
    SignTable,
    bell_table_from_id,
    coefficients_from_signs,
    id_to_signs,
    signs_to_id,
    signs_from_coefficients,
)
from bellpoly.transform import DyadicVector

MERMIN3 = BellTable.from_numerators(3, (0, 1, 1, 0, 1, 0, 0, -1), 1)
CHSH = SignTable(2, (1, 1, 1, -1))  # 1/2 (a1 b1 + a1 b2 + a2 b1 - a2 b2)
A1 = SignTable(1, (1, 1))  # a1
A2 = SignTable(1, (1, -1))  # a2


SINGLE_SITE_LEAVES = {
    BellTable.from_numerators(1, (1, 0), 0): NestingLeaf(choice=0, sign=1),
    BellTable.from_numerators(1, (0, 1), 0): NestingLeaf(choice=1, sign=1),
    BellTable.from_numerators(1, (-1, 0), 0): NestingLeaf(choice=0, sign=-1),
    BellTable.from_numerators(1, (0, -1), 0): NestingLeaf(choice=1, sign=-1),
}


def reference_nesting(f: SignTable):
    """The nesting tree by recursing chsh_decompose down to single-site tables."""
    if f.n == 1:
        return SINGLE_SITE_LEAVES[coefficients_from_signs(f)]
    b0, b1 = chsh_decompose(f)
    return NestingNode(a0=reference_nesting(b0), a1=reference_nesting(b1))


def expanded_substitute(outer: BellTable, inner: list[BellTable]) -> BellTable:
    """substitute by expanding the coefficient products, the independent oracle.

    Each slot pair is lifted to a common power-of-two denominator; every
    nonzero outer term beta(s) then multiplies out the tables in its slots.
    Assumes valid, extremal inputs.
    """
    k_sites = outer.n
    lifted, log_den = [], outer.coefficients.log_denominator
    for k in range(k_sites):
        a, b = inner[2 * k].coefficients, inner[2 * k + 1].coefficients
        d = max(a.log_denominator, b.log_denominator)
        lifted.append(tuple(v << (d - a.log_denominator) for v in a.numerators))
        lifted.append(tuple(v << (d - b.log_denominator) for v in b.numerators))
        log_den += d
    n_total = sum(table.n for table in inner[::2])
    out = [0] * (1 << n_total)
    for s, coeff in enumerate(outer.coefficients.numerators):
        if coeff == 0:
            continue
        part = [coeff]
        for k in range(k_sites):
            slot = lifted[2 * k + ((s >> k) & 1)]
            part = [p * q for q in slot for p in part]
        for t, v in enumerate(part):
            out[t] += v
    return BellTable(DyadicVector(n_total, tuple(out), log_den))


def expanded_substitute_signs(outer: SignTable, inner: list[SignTable]) -> BellTable:
    """expanded_substitute on the coefficient tables of sign-table inputs."""
    return expanded_substitute(
        coefficients_from_signs(outer), [coefficients_from_signs(f) for f in inner]
    )


def chsh_shell(b0: SignTable, b1: SignTable) -> SignTable:
    """Wire two tables into the two slots of one CHSH site."""
    return substitute(CHSH, [b0, b1, A1, A2])


def test_decompose_mermin_example():
    b0, b1 = chsh_decompose(signs_from_coefficients(MERMIN3))
    assert b0 == CHSH
    assert coefficients_from_signs(b0) == BellTable.from_numerators(2, (1, 1, 1, -1), 1)
    assert coefficients_from_signs(b1) == BellTable.from_numerators(2, (-1, 1, 1, 1), 1)


def test_decompose_product_polynomial():
    b0, b1 = chsh_decompose(id_to_signs(3, 0))  # a1 b1 c1
    assert b0 == b1 == id_to_signs(2, 0)


def test_decompose_errors():
    with pytest.raises(ValueError):
        chsh_decompose(A1)


def test_substitute_identity_shell():
    f = id_to_signs(3, 23)
    other = id_to_signs(3, 129)
    assert substitute(A1, [f, other]) == f
    assert substitute(A2, [other, f]) == f


def test_substitute_product_construction():
    # trivial two-site product polynomial a1 b1 as the outer shell
    product_shell = id_to_signs(2, 0)
    result = substitute(product_shell, [CHSH, CHSH, A1, A1])
    assert coefficients_from_signs(result) == BellTable.from_numerators(3, (1, 1, 1, -1, 0, 0, 0, 0), 1)
    # the result sits in the CHSH-extension orbit of the tripartite census
    from bellpoly.symmetry import orbit_of_id

    assert signs_to_id(result) in orbit_of_id(3, 3)


def test_substitute_validates_inputs():
    with pytest.raises(ValueError):
        substitute(CHSH, [A1, A2])  # needs 2K = 4 tables
    with pytest.raises(ValueError):
        substitute(A1, [A1, CHSH])  # slot pair sizes differ
    with pytest.raises(ValueError, match=r"^site-count overflow: 32 > 31$"):
        substitute(id_to_signs(4, 0), [id_to_signs(8, 0)] * 8)  # 4 blocks of 8 sites


def test_shell_roundtrip_exhaustive_n3():
    for value in range(256):
        f = id_to_signs(3, value)
        b0, b1 = chsh_decompose(f)
        assert chsh_shell(b0, b1) == f


def test_substitution_extremality_closure_random():
    """The product expansion of extremal inputs is extremal, with substitute's signs."""
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        outer_sites = int(rng.integers(1, 3))
        sizes = [int(rng.integers(1, 4)) for _ in range(outer_sites)]
        if sum(sizes) > 5:
            continue
        outer = id_to_signs(
            outer_sites, int(rng.integers(0, 1 << (1 << outer_sites)))
        )
        inner = []
        for size in sizes:
            for _ in range(2):
                inner.append(
                    id_to_signs(size, int(rng.integers(0, 1 << (1 << size))))
                )
        expanded = expanded_substitute_signs(outer, inner)
        assert signs_from_coefficients(expanded) == substitute(outer, inner)


def test_substitute_matches_the_coefficient_expansion():
    """Sign-space substitution against the product expansion on 2,400 seeded cases."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 2400:
        outer_sites = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(outer_sites)]
        if sum(sizes) > 8:
            continue
        outer = id_to_signs(outer_sites, int(rng.integers(0, 1 << (1 << outer_sites))))
        inner = [
            id_to_signs(size, int(rng.integers(0, 1 << (1 << size))))
            for size in sizes
            for _ in range(2)
        ]
        result = coefficients_from_signs(substitute(outer, inner))
        assert result == expanded_substitute_signs(outer, inner)
        checked += 1


def test_chsh_decompose_matches_the_coefficient_halves():
    """Sign-table halves against beta(., 0) +- beta(., 1) on every n=2..3 table and n=4..8 samples."""
    rng = np.random.default_rng(11)
    cases = [(n, v) for n in (2, 3) for v in range(1 << (1 << n))]
    cases += [(n, int.from_bytes(rng.bytes(1 << (n - 3)), "little")) for n in range(4, 9) for _ in range(40)]
    for n, value in cases:
        beta = bell_table_from_id(n, value)
        c, half = beta.coefficients, 1 << (n - 1)
        low, high = c.numerators[:half], c.numerators[half:]
        expected = tuple(
            BellTable(DyadicVector(n - 1, tuple(op(x, y) for x, y in zip(low, high)), c.log_denominator))
            for op in (int.__add__, int.__sub__)
        )
        assert tuple(map(coefficients_from_signs, chsh_decompose(id_to_signs(n, value)))) == expected


def test_full_nesting_chsh_depth_one():
    tree = full_nesting(coefficients_from_signs(CHSH))
    assert tree == NestingNode(
        a0=NestingLeaf(choice=0, sign=1),
        a1=NestingLeaf(choice=1, sign=1),
    )


def test_full_nesting_mermin_tree():
    tree = full_nesting(MERMIN3)
    assert isinstance(tree, NestingNode)
    assert evaluate_nesting(tree.a0) == coefficients_from_signs(CHSH)
    assert evaluate_nesting(tree) == MERMIN3


def test_full_nesting_random_n4_reconstructs_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        beta = bell_table_from_id(4, int(rng.integers(0, 1 << 16)))
        assert evaluate_nesting(full_nesting(beta)) == beta


def test_full_nesting_matches_chsh_decompose_recursion():
    rng = np.random.default_rng(44)
    cases = [(2, v) for v in range(16)] + [(3, v) for v in range(256)]
    cases += [(4, int(rng.integers(0, 1 << 16))) for _ in range(200)]
    for n, value in cases:
        assert full_nesting(bell_table_from_id(n, value)) == reference_nesting(id_to_signs(n, value))


def test_full_nesting_rejects_non_extremal():
    with pytest.raises(NotExtremalError):
        full_nesting(BellTable.from_numerators(2, (1, 1, 1, 1), 2))
    with pytest.raises(NotExtremalError):
        full_nesting(BellTable.from_numerators(1, (1, 1), 1))


def test_nesting_json_roundtrip():
    tree = full_nesting(MERMIN3)
    obj = nesting_to_json(tree)
    assert obj["op"] == "chsh"
    assert nesting_from_json(obj) == tree
    assert evaluate_nesting(nesting_from_json(obj)) == MERMIN3
    leaf = obj
    while "op" in leaf:
        leaf = leaf["a0"]
    assert leaf.keys() == {"choice", "sign"}
    # files written while leaves carried "site": 1 still load
    assert nesting_from_json({"site": 1, "choice": 1, "sign": -1}) == NestingLeaf(choice=1, sign=-1)
    with pytest.raises(ValueError):
        nesting_from_json({"op": "chsh", "a0": {"site": 1}, "a1": {}})


def test_evaluate_nesting_rejects_malformed_leaves_and_nodes():
    with pytest.raises(TypeError):
        NestingLeaf(site=2, choice=0, sign=1)  # a leaf is one site and names none
    with pytest.raises(ValueError):
        evaluate_nesting(NestingLeaf(choice=3, sign=1))
    with pytest.raises(ValueError):
        evaluate_nesting(NestingLeaf(choice=0, sign=0))
    leaf = NestingLeaf(choice=0, sign=1)
    with pytest.raises(ValueError, match="branch site counts differ: 1 vs 2"):
        evaluate_nesting(NestingNode(a0=leaf, a1=NestingNode(a0=leaf, a1=leaf)))


def recursive_expand(tree):
    """The recursive expansion evaluate_nesting used before, the reference for its errors."""
    if isinstance(tree, NestingLeaf):
        if tree.choice not in (0, 1) or tree.sign not in (-1, 1):
            raise ValueError(f"malformed leaf {tree}")
        return [tree.sign, 0] if tree.choice == 0 else [0, tree.sign]
    low = recursive_expand(tree.a0)
    high = recursive_expand(tree.a1)
    if len(low) != len(high):
        raise ValueError(
            f"branch site counts differ: {len(low).bit_length() - 1}"
            f" vs {len(high).bit_length() - 1}"
        )
    return [a + b for a, b in zip(low, high)] + [a - b for a, b in zip(low, high)]


def test_evaluate_nesting_reports_the_first_error_depth_first():
    leaf = NestingLeaf(choice=0, sign=1)
    bad = NestingLeaf(choice=2, sign=1)
    # a malformed leaf inside a0 comes before the size mismatch at the root
    with pytest.raises(ValueError, match=r"^malformed leaf NestingLeaf\(choice=2, sign=1\)$"):
        evaluate_nesting(NestingNode(a0=NestingNode(a0=bad, a1=leaf), a1=leaf))
    with pytest.raises(ValueError, match="^branch site counts differ: 2 vs 1$"):
        evaluate_nesting(NestingNode(a0=NestingNode(a0=leaf, a1=leaf), a1=leaf))
    # a mismatch inside a0 comes before a malformed leaf inside a1
    with pytest.raises(ValueError, match="^branch site counts differ: 1 vs 2$"):
        evaluate_nesting(NestingNode(a0=NestingNode(a0=leaf, a1=NestingNode(a0=leaf, a1=leaf)), a1=bad))


def random_tree(rng, depth, p_bad):
    """A nesting tree of about the given depth, with uneven branches and bad leaves at rate p_bad."""
    if depth <= 1 or rng.random() < 0.08:
        if rng.random() < p_bad:
            return NestingLeaf(choice=rng.choice((0, 1, 2, -1)), sign=rng.choice((1, -1, 0, 2)))
        return NestingLeaf(choice=rng.choice((0, 1)), sign=rng.choice((1, -1)))
    return NestingNode(a0=random_tree(rng, depth - 1, p_bad), a1=random_tree(rng, depth - 1, p_bad))


def test_evaluate_nesting_matches_the_recursive_expansion():
    """Same table or same first error as the recursion, on random well- and ill-formed trees."""
    import random

    rng = random.Random(23)
    errors = 0
    for _ in range(400):
        tree = random_tree(rng, rng.randint(1, 7), rng.choice((0.0, 0.01, 0.1)))
        try:
            nums = recursive_expand(tree)
        except ValueError as exc:
            errors += 1
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                evaluate_nesting(tree)
            continue
        n = len(nums).bit_length() - 1
        assert evaluate_nesting(tree) == BellTable(DyadicVector(n, tuple(nums), n - 1))
    assert 100 < errors < 350
