"""Canonical leaf-set bipartitions (splits) and their compatibility test.

A split is the bipartition of the leaf set {1, ..., n} induced by cutting an
internal edge of an unrooted tree. Only one side is stored, as a bitmask,
canonicalized to the smaller side (ties at n/2 go to the side containing
leaf 1). Everything in this module is immutable and pure.

Split(...), split_of_mask and make_split check what they build; the one
trusted path, Split._laminar, does not. Its callers, enumerate_splits and
parse_newick, give it sides of two or more leaves on a checked leaf count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .errors import LeafCountMismatch, LeafOutOfRange, SubsetTooSmall

MIN_LEAVES = 3
MAX_LEAVES = 64


def check_leaf_count(n: int) -> int:
    """Validate a leaf count; splits exist only for 3 <= n <= 64."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"leaf count must be an integer, got {n!r}")
    if n < MIN_LEAVES or n > MAX_LEAVES:
        raise ValueError(f"leaf count must be in [{MIN_LEAVES}, {MAX_LEAVES}], got {n}")
    return n


def full_mask(n: int) -> int:
    """Bitmask with one bit per leaf, leaf i on bit i-1."""
    return (1 << n) - 1


def mask_of(leaves: Iterable[int], n: int) -> int:
    """Bitmask of a leaf subset, validating every element against {1, ..., n}."""
    mask = 0
    for leaf in leaves:
        if not isinstance(leaf, int) or isinstance(leaf, bool) or leaf < 1 or leaf > n:
            raise LeafOutOfRange(f"leaf {leaf!r} not in 1..{n}")
        mask |= 1 << (leaf - 1)
    return mask


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def leaves_of(mask: int) -> tuple[int, ...]:
    """Sorted leaf labels encoded in a bitmask."""
    return tuple(i + 1 for i in set_bits(mask))


@dataclass(frozen=True, slots=True)
class Split:
    """One side of a leaf bipartition in canonical form.

    Construct via make_split unless the mask is already canonical. Splits
    sort by (n, side size, lexicographic side), the enumeration order used
    throughout the package; split_key is that order within one n.
    """

    n: int
    mask: int

    def __post_init__(self):
        check_leaf_count(self.n)
        if self.mask & ~full_mask(self.n):
            raise LeafOutOfRange(f"mask {self.mask:#x} has bits outside 1..{self.n}")
        size = self.mask.bit_count()
        if size < 2:
            raise SubsetTooSmall(f"a split side needs >= 2 leaves, got {size} for n={self.n}")
        if _canonical_side(self.mask, self.n) != self.mask:
            raise SubsetTooSmall(f"side of {size} is not canonical for n={self.n}; use make_split")

    @property
    def side(self) -> tuple[int, ...]:
        """The canonical side as sorted leaf labels."""
        return leaves_of(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def complement_mask(self) -> int:
        return full_mask(self.n) ^ self.mask

    @property
    def clade(self) -> int:
        """The side without leaf 1, as a mask: the leaves below this split's
        edge when the tree hangs from leaf 1."""
        return full_mask(self.n) ^ self.mask if self.mask & 1 else self.mask

    def contains(self, leaf: int) -> bool:
        """True if the canonical side contains the leaf."""
        return bool(self.mask >> (leaf - 1) & 1)

    @classmethod
    def _laminar(cls, mask: int, n: int) -> "Split":
        """split_of_mask without the checks, for sides of two or more leaves."""
        s = object.__new__(cls)
        _SET_N(s, n)  # slot setters: cheaper than object.__setattr__
        _SET_MASK(s, _canonical_side(mask, n))
        return s

    def __hash__(self) -> int:  # equal splits have equal masks
        return hash(self.mask)

    def __lt__(self, other: "Split") -> bool:
        return (self.n, *split_key(self)) < (other.n, *split_key(other))

    def __repr__(self) -> str:
        return f"Split({{{','.join(map(str, self.side))}}}, n={self.n})"


_SET_N, _SET_MASK = Split.n.__set__, Split.mask.__set__

_ORDER_BYTES = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))  # bits reversed, then flipped


def split_key(s: Split) -> tuple[int, bytes]:
    """Sort key for the splits of one n in the order Split states, compared in C: side size,
    then the side's binary digits reversed with 0 and 1 swapped, as little-endian bytes, so
    that of two sides of equal size the one holding the lowest leaf they differ in comes first."""
    return s.mask.bit_count(), s.mask.to_bytes(8, "little").translate(_ORDER_BYTES)


def make_split(subset: Iterable[int], n: int) -> Split:
    """Build the canonical Split for a leaf subset of {1, ..., n}.

    The stored side is the smaller of subset/complement; on a size tie the
    side containing leaf 1 wins. Raises SubsetTooSmall unless both sides
    have at least two leaves.
    """
    check_leaf_count(n)
    return split_of_mask(mask_of(subset, n), n)


def _canonical_side(mask: int, n: int) -> int:
    """The side of a bipartition of {1, ..., n} that a Split stores, given
    either side as a mask: the smaller one; on a size tie, the one with leaf 1."""
    size = mask.bit_count()
    if 2 * size > n or (2 * size == n and not mask & 1):
        return full_mask(n) ^ mask
    return mask


def split_of_mask(mask: int, n: int) -> Split:
    """The canonical Split of either side of a bipartition, given as a leaf
    mask within full_mask(n).

    Keeps the smaller side; on a size tie, the side containing leaf 1.
    Split raises SubsetTooSmall unless that side has at least two leaves.
    """
    return Split(n, _canonical_side(mask, n))


def are_compatible(a: Split, b: Split) -> bool:
    """True if the two splits can appear together in one tree.

    Tests the defining condition directly: at least one of the four
    pairwise intersections of sides must be empty. Whole sets are decided
    by the clade-tree walk of bhvkit.topology; this names a crossing pair.
    """
    if a.n != b.n:
        raise LeafCountMismatch(f"splits over n={a.n} and n={b.n}")
    am, bm = a.mask, b.mask
    ac, bc = a.complement_mask, b.complement_mask
    return not (am & bm) or not (am & bc) or not (ac & bm) or not (ac & bc)


def enumerate_splits(n: int) -> list[Split]:
    """All canonical splits on n leaves, ordered by (size, lexicographic side).

    This is the vertex set of the link graph; its length is 2^(n-1) - n - 1.
    """
    bits = [1 << i for i in range(check_leaf_count(n))]  # leaf i on bit i-1
    out: list[Split] = []
    for k in range(2, n // 2 + 1):  # a side of n/2 leaves is canonical when it holds leaf 1
        out += [Split._laminar(sum(side), n) for side in combinations(bits, k) if 2 * k < n or side[0] == 1]
    return out


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}, stored as the image tuple (images[i-1] = sigma(i))."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, leaf: int) -> int:
        return self.images[leaf - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise LeafCountMismatch(f"permutations of {self.n} and {other.n} leaves")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Iterable[int]) -> "Permutation":
        """Permutation of 1..n from disjoint cycles, e.g. from_cycles(6, (1, 6))."""
        images = list(range(1, n + 1))
        for cycle in cycles:
            cycle = tuple(cycle)
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                images[src - 1] = dst
        return cls(tuple(images))


def all_permutations(n: int) -> Iterator[Permutation]:
    """Every permutation of {1, ..., n}, in itertools order."""
    for images in permutations(range(1, n + 1)):
        yield Permutation(images)


def apply_permutation(sigma: Permutation, s: Split) -> Split:
    """Relabel a split's leaves through sigma and re-canonicalize."""
    if sigma.n != s.n:
        raise LeafCountMismatch(f"permutation of {sigma.n} leaves vs split on {s.n}")
    mask = 0
    for i in set_bits(s.mask):
        mask |= 1 << (sigma.images[i] - 1)
    return split_of_mask(mask, s.n)
