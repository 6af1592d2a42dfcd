"""Substitution of inequalities into inequalities, and its inverse.

Both act on sign tables, so extremality holds by construction.  Substituting
an extremal polynomial for each observable slot of an extremal polynomial
yields an extremal polynomial on the combined sites.  Running the
construction backwards splits off the last site as a CHSH shell around the
two halves of the sign table, f(., 0) and f(., 1), on one site fewer.
Halving down to sign pairs decomposes every inequality into nested CHSH
form with single-site leaves.
"""

from __future__ import annotations

from collections.abc import Sequence

from .inequality import BellTable, SignTable, signs_from_coefficients
from .transform import MAX_SITES, DyadicVector, _butterfly, _Value

__all__ = [
    "NestingLeaf",
    "NestingNode",
    "chsh_decompose",
    "evaluate_nesting",
    "full_nesting",
    "nesting_from_json",
    "nesting_to_json",
    "substitute",
]


def substitute(outer: SignTable, inner: Sequence[SignTable]) -> SignTable:
    """Fill each observable slot of the outer polynomial with an inner one.

    inner holds one table per (outer site, choice) slot in the order
    (site1/choice0, site1/choice1, site2/choice0, ...); the two tables of
    one outer site must have the same site count.  Site blocks are laid out
    in outer-site order, so absolute sites 1..n_1 come from outer site 1 and
    so on.  At a deterministic point r = (r_1, ..., r_K) the slots of outer
    site k read a_k(r_k) and a_k(r_k) (-1)^(r'_k), r'_k = [a_k(r_k) != b_k(r_k)],
    so the result has the signs F(r) = prod_k a_k(r_k) * f(r').
    """
    k_sites = outer.n
    if len(inner) != 2 * k_sites:
        raise ValueError(
            f"expected {2 * k_sites} inner tables (two per outer site), got {len(inner)}"
        )
    for k in range(k_sites):
        a, b = inner[2 * k], inner[2 * k + 1]
        if a.n != b.n:
            raise ValueError(
                f"slot tables of outer site {k + 1} differ in size: {a.n} vs {b.n}"
            )
    n_total = sum(table.n for table in inner[::2])
    if n_total > MAX_SITES:
        raise ValueError(f"site-count overflow: {n_total} > {MAX_SITES}")

    # (prod_k a_k(r_k), r') for every r over the blocks placed so far
    pairs = [(1, 0)]
    for k in range(k_sites):
        a, b = inner[2 * k].signs, inner[2 * k + 1].signs
        pairs = [(x * sign, word | (x != y) << k) for x, y in zip(a, b) for sign, word in pairs]
    return SignTable(n_total, tuple(sign * outer.signs[word] for sign, word in pairs))


def chsh_decompose(f: SignTable) -> tuple[SignTable, SignTable]:
    """Split off the last site: the halves f(., 0) and f(., 1) on n-1 sites.

    Their coefficient tables are beta(., 0) +- beta(., 1), and wiring them
    into the two slots of one CHSH site reconstructs f exactly.
    """
    if f.n < 2:
        raise ValueError("need at least two sites to split one off")
    half = len(f.signs) // 2
    return SignTable(f.n - 1, f.signs[:half]), SignTable(f.n - 1, f.signs[half:])


class NestingLeaf(_Value):
    """A single-site polynomial: sign * A(choice)."""

    __slots__ = ("choice", "sign")

    def __init__(self, choice: int, sign: int) -> None:
        object.__setattr__(self, "choice", choice)
        object.__setattr__(self, "sign", sign)


class NestingNode(_Value):
    """A CHSH shell: 1/2 a0 (A(0)+A(1)) + 1/2 a1 (A(0)-A(1)) on the split site."""

    __slots__ = ("a0", "a1")

    def __init__(self, a0: Nesting, a1: Nesting) -> None:
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)


Nesting = NestingLeaf | NestingNode

# the leaf of every sign pair (f(2i), f(2i+1)), shared by all trees full_nesting builds
_LEAVES = {(a, b): NestingLeaf(choice=int(a != b), sign=a) for a in (1, -1) for b in (1, -1)}


def full_nesting(beta: BellTable) -> Nesting:
    """Decompose down to single-site leaves by halving the sign table.

    The branches a0, a1 of a node are the two halves of its sign table
    (last site 0 and 1), exactly the tables chsh_decompose returns, so the
    leaves are the sign pairs (f(2i), f(2i+1)) in order: a single-site
    table with sign f(2i) on observable choice int(f(2i) != f(2i+1)).
    Raises NotExtremalError when beta has no sign table.
    """
    f = signs_from_coefficients(beta).signs
    level: list[Nesting] = list(map(_LEAVES.__getitem__, zip(f[::2], f[1::2])))
    while len(level) > 1:
        level = list(map(NestingNode, level[::2], level[1::2]))
    return level[0]


def _leaf_parts(tree: Nesting, part0: list, part1: list) -> int:
    """Append each leaf's sign to the part of its choice, 0 to the other; the site count.

    Leaves and branch sizes are checked depth first: a0, then a1, then the node.
    """
    if isinstance(tree, NestingLeaf):
        if tree.choice not in (0, 1) or tree.sign not in (-1, 1):
            raise ValueError(f"malformed leaf {tree}")
        part0.append(tree.sign if tree.choice == 0 else 0)
        part1.append(0 if tree.choice == 0 else tree.sign)
        return 1
    low, high = _leaf_parts(tree.a0, part0, part1), _leaf_parts(tree.a1, part0, part1)
    if low != high:
        raise ValueError(f"branch site counts differ: {low} vs {high}")
    return low + 1


def evaluate_nesting(tree: Nesting) -> BellTable:
    """Expand a nesting tree back into a flat coefficient table, exactly.

    Both branches of a node on m sites share the denominator 2^(m-1), so the
    expansion runs over plain integers and normalizes once, at the root.  A
    node's numerators are (low + high, low - high) of its branches', so the
    entries with s_1 = c are the transform of the choice-c leaves' signs, in
    leaf order: two half-length butterflies, interleaved on s_1.
    """
    part0, part1 = [], []
    n = _leaf_parts(tree, part0, part1)
    nums = [0] * (2 * len(part0))
    nums[0::2], nums[1::2] = _butterfly(part0), _butterfly(part1)
    return BellTable(DyadicVector(n, nums, n - 1))


def nesting_to_json(tree: Nesting) -> dict:
    if isinstance(tree, NestingLeaf):
        return {"choice": tree.choice, "sign": tree.sign}
    return {
        "op": "chsh",
        "a0": nesting_to_json(tree.a0),
        "a1": nesting_to_json(tree.a1),
    }


def nesting_from_json(obj: dict) -> Nesting:
    if obj.get("op") == "chsh":
        return NestingNode(nesting_from_json(obj["a0"]), nesting_from_json(obj["a1"]))
    try:
        choice, sign = obj["choice"], obj["sign"]
    except KeyError as exc:
        raise ValueError(f"nesting object is missing key {exc}") from exc
    leaf = type(choice) is type(sign) is int and _LEAVES.get((sign, sign * (1 - 2 * choice)))
    return leaf or NestingLeaf(choice, sign)  # a JSON true or 1.0 loads as given
