"""Symmetry group: the action, orbits, and the exhaustive census."""

import copy
import hashlib
import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from bellpoly.inequality import (
    SignTable,
    bell_table_from_id,
    coefficients_from_signs,
    id_to_signs,
    mermin_sign_table,
    signs_from_coefficients,
    signs_to_id,
)
from bellpoly.symmetry import (
    GroupElement,
    _coset_minima,
    _delta_swap,
    _sign_code,
    _sweep_stages,
    _symmetric_ids,
    apply,
    classify_all,
    group_order,
    orbit_of_id,
)
from bellpoly.transform import DimensionMismatchError, bit_matrix, word_bits


def permute_word(x: int, perm: tuple[int, ...]) -> int:
    """Route bit j of x to bit perm[j] of the result, one bit at a time."""
    out = 0
    for j, target in enumerate(perm):
        if (x >> j) & 1:
            out |= 1 << target
    return out


def apply_per_bit(g: GroupElement, f: SignTable) -> SignTable:
    """apply's definition, f'(r) = sign * (-1)^<s0, pi(r)> * f(pi(r) ^ r0), word by word."""
    out = []
    for r in range(1 << f.n):
        p = permute_word(r, g.perm)
        out.append(g.sign * (-1) ** (g.s0 & p).bit_count() * f.signs[p ^ g.r0])
    return SignTable(f.n, tuple(out))


# The group algebra: the law and inverses that apply must obey.


def identity(n: int) -> GroupElement:
    return GroupElement(tuple(range(n)), 0, 0, 1)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The element acting as g2 first, then g1: apply(compose(g1, g2), f) ==
    apply(g1, apply(g2, f))."""
    if g1.n != g2.n:
        raise DimensionMismatchError(f"site counts differ: {g1.n} vs {g2.n}")
    perm = tuple(g2.perm[p] for p in g1.perm)
    r0 = permute_word(g1.r0, g2.perm) ^ g2.r0
    s0 = permute_word(g1.s0, g2.perm) ^ g2.s0
    parity = (g2.s0 & permute_word(g1.r0, g2.perm)).bit_count() & 1
    sign = g1.sign * g2.sign * (-1 if parity else 1)
    return GroupElement(perm, r0, s0, sign)


def inverse(g: GroupElement) -> GroupElement:
    inv_perm = tuple(g.perm.index(j) for j in range(g.n))
    r0 = permute_word(g.r0, inv_perm)
    s0 = permute_word(g.s0, inv_perm)
    parity = (g.s0 & g.r0).bit_count() & 1
    return GroupElement(inv_perm, r0, s0, g.sign * (-1 if parity else 1))


def random_element(n: int, rng: np.random.Generator) -> GroupElement:
    perm = tuple(int(p) for p in rng.permutation(n))
    r0 = int(rng.integers(0, 1 << n))
    s0 = int(rng.integers(0, 1 << n))
    sign = 1 if rng.integers(0, 2) == 0 else -1
    return GroupElement(perm, r0, s0, sign)


def test_group_order_table():
    assert [group_order(n) for n in (2, 3, 4, 5)] == [64, 768, 12288, 245760]
    for n in (0, 32):
        with pytest.raises(ValueError, match="site count must be in 1..31"):
            group_order(n)
    with pytest.raises(TypeError):
        group_order(2.5)


def test_permute_word_routes_bits():
    # send bit 0 to bit 2, bit 1 to bit 0, bit 2 to bit 1
    assert permute_word(0b001, (2, 0, 1)) == 0b100
    assert permute_word(0b110, (2, 0, 1)) == 0b011


def _all_elements(n):
    for perm in itertools.permutations(range(n)):
        for r0, s0, sign in itertools.product(range(1 << n), range(1 << n), (1, -1)):
            yield GroupElement(perm, r0, s0, sign)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_matches_the_per_bit_route_on_every_element(n):
    """Every element, on every table at n <= 2 and on 8 seeded tables at n = 3."""
    ids = range(1 << (1 << n)) if n <= 2 else np.random.default_rng(33).integers(0, 1 << 8, size=8)
    tables = [id_to_signs(n, int(v)) for v in ids]
    for g in _all_elements(n):
        assert all(apply(g, f) == apply_per_bit(g, f) for f in tables)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_apply_matches_the_per_bit_route_on_seeded_pairs(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(200):
        g = random_element(n, rng)
        f = id_to_signs(n, int(rng.integers(0, (1 << (1 << n)) - 1, dtype=np.uint64, endpoint=True)))
        assert apply(g, f) == apply_per_bit(g, f)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_ids_match_their_definition(n):
    """Table c of the 2^(n+1) symmetric ones has f(r) = -1 iff bit weight(r) of c is set."""
    ids = _symmetric_ids(n)
    assert not ids.flags.writeable and ids.dtype == np.uint64
    expected = [sum((c >> r.bit_count() & 1) << r for r in range(1 << n)) for c in range(2 << n)]
    assert ids.tolist() == expected and len(set(expected)) == 2 << n


def _seeded_words(n, count, seed):
    rng = np.random.default_rng(seed)
    full = (1 << (1 << n)) - 1
    drawn = rng.integers(0, full, size=count, dtype=np.uint64, endpoint=True)
    return [0, full] + [int(v) for v in drawn]


@pytest.mark.parametrize("n", range(1, 7))
def test_bit_moves_match_group_elements(n):
    """Both generator kinds as one delta swap: (i j) moves bits r with r_i = 1, r_j = 0
    by 2^j - 2^i, and the XOR shift of site k moves bits r with r_k = 0 by 2^k."""
    words = _seeded_words(n, 12, 40 + n)
    x, _, codewords = _sign_code(n)
    packed = np.array(words, dtype=codewords.dtype)  # the dtype the sweep uses
    full = (1 << (1 << n)) - 1
    moves = []
    for i, j in itertools.combinations(range(n), 2):
        perm = list(range(n))
        perm[i], perm[j] = j, i
        pi = [permute_word(r, perm) for r in range(1 << n)]
        moves.append((GroupElement(tuple(perm), 0, 0, 1), pi, (1 << j) - (1 << i), x[i] & ~x[j]))
    for k in range(n):
        pi = [r ^ 1 << k for r in range(1 << n)]
        moves.append((GroupElement(tuple(range(n)), 1 << k, 0, 1), pi, 1 << k, full ^ x[k]))
    # every move in one stage column: row i of the output is move i's image
    stage = np.array([(delta, mask, (1 << delta) + 1) for _, _, delta, mask in moves], packed.dtype).T[..., None]
    out = np.empty((len(moves), len(words)), packed.dtype)
    assert _delta_swap(packed, stage, out) is out
    assert packed.tolist() == words
    for (g, pi, _, _), row in zip(moves, out.tolist()):
        expected = [signs_to_id(apply(g, id_to_signs(n, w))) for w in words]
        assert row == expected
        # bit r of the image is bit pi(r) of the word
        for w, image in zip(words, expected):
            assert all((image >> r & 1) == (w >> pi[r] & 1) for r in range(1 << n))
    # the sweep's stages hold these moves, each once: stage m the transpositions (k m), then the shifts
    stages = _sweep_stages(n)
    assert all(not st.flags.writeable and st.dtype == packed.dtype for st in stages)
    assert [st.shape[1] for st in stages] == list(range(1, n)) + [1] * n
    swept = [tuple(move) for st in stages for move in st[..., 0].T.tolist()]
    assert sorted(swept) == sorted(tuple(move) for move in stage[..., 0].T.tolist())


def _sign_character_masks(n):
    """Every XOR mask of the outcome flips and the global sign: bit r is <s, r> ^ c."""
    size = 1 << n
    masks = set()
    for s0, c in itertools.product(range(size), (0, 1)):
        masks.add(sum((((s0 & r).bit_count() + c) & 1) << r for r in range(size)))
    return masks


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_code_is_the_sign_character_masks(n):
    _, basis, codewords = _sign_code(n)
    # the least unsigned dtype that holds a 2^n-bit word
    assert codewords.dtype.kind == "u" and codewords.dtype.itemsize == max(1, (1 << n) // 8)
    assert not codewords.flags.writeable
    assert len(basis) == n + 1
    assert len(set(codewords.tolist())) == len(codewords) == 1 << (n + 1)
    assert set(codewords.tolist()) == _sign_character_masks(n)
    # reduced echelon: each leading bit is set in its own basis word only
    leads = [b.bit_length() - 1 for b in basis]
    assert len(set(leads)) == len(basis)
    for lead in leads:
        assert sum(b >> lead & 1 for b in basis) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_coset_minima_are_brute_force_minima(n):
    words = _seeded_words(n, 40, 70 + n)
    _, _, codewords = _sign_code(n)
    packed = np.array(words, dtype=codewords.dtype)  # in place, as the sweep reduces
    assert _coset_minima(n, packed) is packed
    got = packed.tolist()
    assert got == [min(w ^ c for c in codewords.tolist()) for w in words]
    assert [_coset_minima(n, w) for w in words] == got  # Python ints, as `in` reduces them


@pytest.mark.parametrize("n", range(1, 5))
def test_coset_minima_are_the_words_with_no_leading_bit_set(n):
    """The census's seed rule: a word is its own coset minimum iff ids & pivots == 0."""
    _, basis, codewords = _sign_code(n)
    pivots = sum(1 << (b.bit_length() - 1) for b in basis)
    ids = np.arange(1 << (1 << n), dtype=codewords.dtype)
    assert np.array_equal(ids & pivots == 0, _coset_minima(n, ids.copy()) == ids)


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement((0, 0), 0, 0, 1)
    with pytest.raises(ValueError):
        GroupElement((0, 1), 4, 0, 1)
    with pytest.raises(ValueError):
        GroupElement((0, 1), 0, 0, 0)
    # r0, s0 and sign must be integers, as apply uses them in bit operations
    for fields in (((0, 1), 1.5, 0, 1), ((0, 1), 1, 2.0, -1), ((0, 1), 1, 0, 1.0)):
        with pytest.raises(TypeError):
            GroupElement(*fields)


def test_apply_identity_and_global_sign():
    f = id_to_signs(3, 23)
    assert apply(identity(3), f) == f
    flip = GroupElement((0, 1, 2), 0, 0, -1)
    assert apply(flip, f) == SignTable(3, tuple(-v for v in f.signs))


def test_apply_chsh_xor_shift():
    f = SignTable(2, (1, 1, 1, -1))
    shifted = apply(GroupElement((0, 1), 0b11, 0, 1), f)
    assert shifted.signs == (-1, 1, 1, 1)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(identity(2), id_to_signs(3, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_law_and_inverse(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        g1 = random_element(n, rng)
        g2 = random_element(n, rng)
        f = id_to_signs(n, int(rng.integers(0, 1 << (1 << n))))
        assert apply(compose(g1, g2), f) == apply(g1, apply(g2, f))
        assert apply(inverse(g1), apply(g1, f)) == f
        assert compose(g1, inverse(g1)) == identity(n)


def test_action_closure_preserves_extremality():
    rng = np.random.default_rng(17)
    for _ in range(25):
        f = id_to_signs(3, int(rng.integers(0, 256)))
        g = random_element(3, rng)
        image = apply(g, f)
        # transforming the coefficient table and re-deriving signs agrees
        assert signs_from_coefficients(coefficients_from_signs(image)) == image


@pytest.mark.parametrize(
    "value, size",
    [(0, 16), (1, 128), (3, 48), (6, 48), (23, 16)],
)
def test_orbit_sizes_n3(value, size):
    orb = orbit_of_id(3, value)
    assert orb.size == size
    assert orb.canonical_id == value
    assert group_order(3) % orb.size == 0


def test_orbit_membership_and_apply_agree():
    rng = np.random.default_rng(9)
    orb = orbit_of_id(3, 23)
    for _ in range(30):
        g = random_element(3, rng)
        assert signs_to_id(apply(g, id_to_signs(3, 23))) in orb


def test_orbit_of_mermin_n4():
    orb = orbit_of_id(4, signs_to_id(mermin_sign_table(4)))
    assert orb.canonical_id == 6014
    assert orb.size == 32


def test_orbit_rejects_ids_out_of_range():
    for table_id in (256, -1, 2**64):
        with pytest.raises(ValueError, match=f"id {table_id} out of range for n=3"):
            orbit_of_id(3, table_id)
    with pytest.raises(TypeError):
        orbit_of_id(3, 2.0)
    assert orbit_of_id(3, np.uint64(255)).canonical_id == 0


def test_orbit_rejects_large_n():
    with pytest.raises(ValueError, match="limited to n <= 6"):
        orbit_of_id(7, 0)
    with pytest.raises(ValueError):
        classify_all(5)
    for n in (0, -1):
        with pytest.raises(ValueError, match="site count must be in 1..31"):
            orbit_of_id(n, 0)
        with pytest.raises(ValueError, match="site count must be in 1..31"):
            classify_all(n)


def test_census_n2():
    records = classify_all(2)
    assert [(r.canonical_id, r.size) for r in records] == [(0, 8), (1, 8)]
    assert sum(r.size for r in records) == 16


def test_census_n3_matches_published_table():
    records = classify_all(3)
    assert [(r.canonical_id, r.size) for r in records] == [
        (0, 16),
        (1, 128),
        (3, 48),
        (6, 48),
        (23, 16),
    ]
    assert sum(r.size for r in records) == 256
    assert all(group_order(3) % r.size == 0 for r in records)
    flags = {r.canonical_id: (r.permutation_invariant, r.factorizing) for r in records}
    assert flags[0] == (True, True)  # the product a1 b1 c1
    assert flags[3] == (False, True)  # CHSH times a single site
    assert flags[23] == (True, False)  # maximal-violation orbit
    assert flags[6] == (False, False)


def _product_tables(n):
    """Every sign table f(r) = g(r & t) * h(r & ~t) over a proper bipartition t."""
    full = (1 << n) - 1
    tables = set()
    for t in range(1, full):
        left = sorted({r & t for r in range(1 << n)})
        right = sorted({r & ~t & full for r in range(1 << n)})
        for g in itertools.product((1, -1), repeat=len(left)):
            for h in itertools.product((1, -1), repeat=len(right)):
                gv, hv = dict(zip(left, g)), dict(zip(right, h))
                tables.add(tuple(gv[r & t] * hv[r & ~t & full] for r in range(1 << n)))
    return tables


def test_census_n3_flags_brute_force():
    products = _product_tables(3)
    perms = list(itertools.permutations(range(3)))
    for rec in classify_all(3):
        members = [id_to_signs(3, int(m)).signs for m in orbit_of_id(3, rec.canonical_id).member_ids]
        invariant = any(
            all(s[permute_word(r, p)] == s[r] for p in perms for r in range(8)) for s in members
        )
        assert rec.permutation_invariant == invariant
        assert rec.factorizing == any(s in products for s in members)


@pytest.mark.parametrize("n", [3, 4])
def test_factorizing_is_an_orbit_invariant(n):
    products = np.array(sorted(signs_to_id(SignTable(n, s)) for s in _product_tables(n)), dtype=np.uint64)
    kinds = set()
    for rec in classify_all(n):
        inside = np.isin(orbit_of_id(n, rec.canonical_id).member_ids, products)
        assert inside.all() or not inside.any()
        assert rec.factorizing == inside.all()
        kinds.add(bool(inside.all()))
    assert kinds == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_orbits_are_the_orbits_of_their_canonical_ids(n):
    for orb in classify_all(n):
        direct = orbit_of_id(n, orb.canonical_id)
        assert np.array_equal(orb.member_ids, direct.member_ids)
        assert orb.permutation_invariant == direct.permutation_invariant
        assert orb.factorizing == direct.factorizing


def test_orbit_flags_are_computed_on_first_read():
    orb = orbit_of_id(3, 23)
    assert not {"permutation_invariant", "factorizing", "member_ids"} & vars(orb).keys()
    assert (orb.permutation_invariant, orb.factorizing) == (True, False)
    assert vars(orb)["permutation_invariant"] is True and vars(orb)["factorizing"] is False
    assert "member_ids" not in vars(orb)  # neither flag expands the member list


def test_census_builds_no_member_list():
    for orb in classify_all(4):
        assert orb.permutation_invariant in (True, False) and orb.factorizing in (True, False)
        assert "member_ids" not in vars(orb)


def test_orbit_of_a_generic_n6_table_stays_small_until_members_are_read():
    """A generic n=6 orbit has 5,898,240 members (45 MiB as uint64) in 46,080 cosets."""
    rng = np.random.default_rng(66)
    table_id = int.from_bytes(rng.bytes(8), "little")
    tracemalloc.start()
    try:
        orb = orbit_of_id(6, table_id)
        views = (orb.size, table_id in orb, orb.canonical_id, orb.permutation_invariant, orb.factorizing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert views[:2] == (group_order(6), True) and views[2] <= table_id
    assert "member_ids" not in vars(orb)


def test_orbit_flags_outside_the_census():
    mermin = orbit_of_id(6, 1692930046964590721)
    assert signs_to_id(mermin_sign_table(6)) in mermin and mermin.size == 128
    assert mermin.permutation_invariant and not mermin.factorizing
    # CHSH (id 7) on sites 1-2 times the n=3 maximal-violation table (id 23) on sites 3-5
    chsh, maximal = id_to_signs(2, 7).signs, id_to_signs(3, 23).signs
    product = orbit_of_id(5, signs_to_id(SignTable(5, [chsh[r & 3] * maximal[r >> 2] for r in range(32)])))
    assert product.size == 640
    assert product.factorizing and not product.permutation_invariant


def _assert_well_formed(orb):
    ids = orb.member_ids
    assert ids.dtype == np.uint64
    assert not ids.flags.writeable
    assert (ids[1:] > ids[:-1]).all()
    assert orb.size == len(ids)
    assert orb.canonical_id == int(ids[0])


@pytest.mark.parametrize("n, count", [(3, 16), (4, 2)])
def test_orbit_matches_brute_force_sweep(n, count):
    rng = np.random.default_rng(100 + n)
    elements = list(_all_elements(n))
    assert len(elements) == group_order(n)
    for _ in range(count):
        table_id = int(rng.integers(0, 1 << (1 << n)))
        f = id_to_signs(n, table_id)
        expected = sorted({signs_to_id(apply(g, f)) for g in elements})
        orb = orbit_of_id(n, table_id)
        _assert_well_formed(orb)
        assert orb.member_ids.tolist() == expected


# sha256 over (n, id, canonical_id, size) and the coset minima' bytes, recorded at commit
# 5d57f15, before the sweep took one delta swap per generator stage and the coset reduction
# one table lookup; it pins n = 5 and 6, which the CLI's recorded classify digests do not reach
ORBIT_DIGEST = "13f32e62e5200fab72ac8f13dd3aa94202bd0f604717acb7c197a9318d17b350"


def test_orbits_match_the_recorded_digest():
    rng = random.Random(2026)
    cases = [(5, rng.getrandbits(32)) for _ in range(200)] + [(6, rng.getrandbits(64)) for _ in range(10)]
    for _ in range(8):  # seeded images of the Mermin table
        g = GroupElement(rng.sample(range(6), 6), rng.getrandbits(6), rng.getrandbits(6), rng.choice((-1, 1)))
        cases.append((6, signs_to_id(apply(g, mermin_sign_table(6)))))
    digest = hashlib.sha256()
    for n, table_id in cases:
        orb = orbit_of_id(n, table_id)
        digest.update(repr((n, table_id, orb.canonical_id, orb.size)).encode() + orb.coset_minima.tobytes())
    assert digest.hexdigest() == ORBIT_DIGEST


def test_generic_n6_orbit():
    rng = np.random.default_rng(6)
    table_id = int.from_bytes(rng.bytes(8), "little")
    orb = orbit_of_id(6, table_id)
    assert orb.size == group_order(6) == 5_898_240
    _assert_well_formed(orb)
    image = signs_to_id(apply(random_element(6, rng), id_to_signs(6, table_id)))
    assert table_id in orb
    assert image in orb


def _burnside_orbit_count(n):
    """Orbit count |G|^-1 * sum_g |Fix(g)|, straight from the GroupElement formula.

    g reads f at src(r) = pi(r) ^ r0 and flips the bit by m(r) = <s0, pi(r)> ^ [sign < 0].
    A table is fixed iff b(r) = b(src(r)) ^ m(r) for every r: along each cycle of src
    the flips must cancel, and then each cycle's bits are set by one free bit.
    """
    size = 1 << n
    total = 0
    for perm in itertools.permutations(range(n)):
        pr = [permute_word(r, perm) for r in range(size)]
        for r0 in range(size):
            src = [p ^ r0 for p in pr]
            cycles, seen = [], [False] * size
            for start in range(size):
                cycle, r = [], start
                while not seen[r]:
                    seen[r] = True
                    cycle.append(r)
                    r = src[r]
                if cycle:
                    cycles.append(cycle)
            for s0 in range(size):
                flips = [(s0 & p).bit_count() & 1 for p in pr]
                for neg in (0, 1):
                    if all((sum(flips[r] for r in c) + neg * len(c)) % 2 == 0 for c in cycles):
                        total += 1 << len(cycles)
    assert total % group_order(n) == 0
    return total // group_order(n)


@pytest.mark.parametrize("n, count", [(2, 2), (3, 5), (4, 39)])
def test_census_count_matches_burnside(n, count):
    assert _burnside_orbit_count(n) == count == len(classify_all(n))


def test_orbit_contains():
    orb = orbit_of_id(3, 0)
    assert 0 in orb
    assert 255 in orb  # global sign flip of the all-plus table
    assert 23 not in orb
    for outside in (-1, 256, 2**64, -(2**64)):
        assert outside not in orb
    assert (1 << 64) - 1 in orbit_of_id(6, 0)


@pytest.mark.parametrize("n, table_id", [(3, 23), (5, 0x1234_5678)])
def test_orbit_copies_keep_read_only_minima(n, table_id):
    """A pickled or deep-copied Orbit once came back with writable coset minima, and a write
    to them would unsort the array that `in` binary-searches."""
    orb = orbit_of_id(n, table_id)
    assert copy.copy(orb).coset_minima is orb.coset_minima  # a read-only array is not copied
    for twin in (pickle.loads(pickle.dumps(orb)), copy.copy(orb), copy.deepcopy(orb)):
        assert not twin.coset_minima.flags.writeable
        assert np.array_equal(twin.coset_minima, orb.coset_minima)
        with pytest.raises(ValueError):
            twin.coset_minima[0] = 0
        assert table_id in twin and int(orb.member_ids[-1]) in twin and 0 not in twin


def test_orbit_contains_rejects_non_integral_values():
    """np.uint64(2.5) is 2, so a non-integral value must not reach the lookup."""
    orb = orbit_of_id(3, 1)
    for member in (1, 2, np.uint64(1), np.uint64(2), np.int64(2)):
        assert member in orb
    for value in (2.5, 1.5, np.float64(2.5), 1 + 1e-9, float("nan"), float("inf")):
        assert value not in orb
    assert 2.0 in orb  # an integral float equals the id, as in a list of ints


# The gather route the bit moves replaced, kept as the reference sweep: every
# (perm, r0) reads the table through a gather map, a 2^r weighted sum packs
# the image, and each packed image is XORed with all 2^(n+1) sign masks.


def _perm_maps(n):
    """(n!, 2^n) gather maps: row p holds pi_p(r) for each r."""
    targets = np.left_shift(1, list(itertools.permutations(range(n))))  # 2^perm[j]
    return (targets @ bit_matrix(n).T).astype(np.uint16)


def _sort_unique(words):
    words.sort()
    return words[np.append(True, words[1:] != words[:-1])]


def _gather_orbit_ids(n, table_id):
    size = 1 << n
    shifts = np.arange(size, dtype=np.uint16)
    gather = (_perm_maps(n)[:, None, :] ^ shifts[None, :, None]).reshape(-1, size)
    weights = np.left_shift(np.uint64(1), np.arange(size, dtype=np.uint64))
    bits = bit_matrix(n)
    linear = ((bits @ bits.T) % 2).astype(np.uint64) @ weights
    masks = np.concatenate([linear, linear ^ np.uint64((1 << size) - 1)])
    table = np.frombuffer(word_bits(size, table_id), np.uint8).astype(np.uint64)
    packed = _sort_unique(table[gather] @ weights)
    return _sort_unique(np.bitwise_xor.outer(packed, masks).ravel())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_matches_gather_reference_on_every_table(n):
    """size, least id, flags and membership come from the coset minima alone, before the
    member list exists; the list, once read, is the reference's."""
    everything = range(1 << (1 << n))
    weight = [r.bit_count() for r in range(1 << n)]
    symmetric = {signs_to_id(SignTable(n, [1 - 2 * (c >> w & 1) for w in weight])) for c in range(2 << n)}
    products = {signs_to_id(SignTable(n, t)) for t in _product_tables(n)}
    for table_id in everything:
        expected = _gather_orbit_ids(n, table_id)
        members = set(expected.tolist())
        orb = orbit_of_id(n, table_id)
        assert (orb.size, orb.canonical_id) == (len(expected), int(expected[0]))
        assert orb.permutation_invariant == bool(symmetric & members)
        assert orb.factorizing == bool(products & members)
        assert [x for x in everything if x in orb] == sorted(members)
        assert "member_ids" not in vars(orb)
        _assert_well_formed(orb)
        assert orb.member_ids.tolist() == expected.tolist()


@pytest.mark.parametrize("n, count", [(4, 24), (5, 6), (6, 1)])
def test_orbit_matches_gather_reference_on_seeded_tables(n, count):
    rng = np.random.default_rng(500 + n)
    mermin = mermin_sign_table(n)
    images = [signs_to_id(apply(random_element(n, rng), mermin)) for _ in range(2)]
    for table_id in _seeded_words(n, count, 600 + n) + [signs_to_id(mermin)] + images:
        expected = _gather_orbit_ids(n, table_id)
        orb = orbit_of_id(n, table_id)
        assert (orb.size, orb.canonical_id) == (len(expected), int(expected[0]))
        # members, and non-members from other cosets: random ids, and members with one
        # sign flipped (a single bit is no codeword, so the flip leaves the coset)
        members = [table_id] + [int(v) for v in rng.choice(expected, size=16)]
        flipped = [m ^ 1 << int(r) for m, r in zip(members, rng.integers(0, 1 << n, size=len(members)))]
        drawn = rng.integers(0, (1 << (1 << n)) - 1, size=16, dtype=np.uint64, endpoint=True).tolist()
        candidates = np.array(members + flipped + drawn, dtype=np.uint64)
        inside = expected[np.minimum(np.searchsorted(expected, candidates), len(expected) - 1)] == candidates
        assert not inside.all()
        assert [int(c) in orb for c in candidates] == inside.tolist()
        assert "member_ids" not in vars(orb)
        _assert_well_formed(orb)
        assert np.array_equal(orb.member_ids, expected)


def test_violations_constant_on_orbits_via_table_structure():
    # orbit members have identical multisets of |coefficients|
    from collections import Counter

    orb = orbit_of_id(3, 6)
    reference = Counter(abs(v) for v in bell_table_from_id(3, 6).coefficients.numerators)
    rng = np.random.default_rng(1)
    for value in rng.choice(orb.member_ids, size=10, replace=False):
        table = bell_table_from_id(3, int(value))
        assert Counter(abs(v) for v in table.coefficients.numerators) == reference
