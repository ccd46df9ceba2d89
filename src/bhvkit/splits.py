"""Canonical leaf-set bipartitions (splits) and their compatibility test.

A split is the bipartition of the leaf set {1, ..., n} induced by cutting an
internal edge of an unrooted tree. Only one side is stored, as a bitmask,
canonicalized to the smaller side (ties at n/2 go to the side containing
leaf 1). Everything in this module is immutable and pure.

Split(n, mask), given either side, and make_split check what they build; the
one trusted path, Split._laminar, does not. Its callers, enumerate_splits and
parse_newick, give it sides of two or more leaves on a checked leaf count.

check_int is the one rule for every integer argument of the package: a leaf
count, a leaf, a mask, a permutation image, k, p, m. It takes a plain int in
its range and raises BhvError otherwise, "{what} must be an int, got {value!r}"
or "{what} must be in [{least}, {most}], got {value}", where an int with too
many digits for str() reads as its bit length; a bool or any other int
subclass is refused. check_shape is its like for a container argument,
check_type for a bhvkit value or a string, and check_same_n the one
leaf-count match, raising LeafCountMismatch wherever two values over
different leaf counts meet. The seven value types share _FrozenValue's
equality, hash, repr, pickling and frozen attributes.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import combinations, permutations, repeat
from operator import attrgetter

from .errors import BhvError, LeafCountMismatch

MIN_LEAVES = 3
MAX_LEAVES = 64


def check_int(value: int, least: float, most: float, what: str) -> int:
    """value if it is a plain int in [least, most], else BhvError naming it by what."""
    if type(value) is not int:
        raise BhvError(f"{what} must be an int, got {value!r}")
    if not least <= value <= most:
        raise BhvError(f"{what} must be in [{_digits(least)}, {_digits(most)}], got {_digits(value)}")
    return value


def _digits(x: float) -> str:
    """str(x) of an int or a float, or an int's sign and bit length where it has too many digits for str()."""
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits(); no float gets here
        return f"{'a negative' if x < 0 else 'an'} int of {x.bit_length()} bits"


def check_shape(convert: Callable, value, what: str, shape: str):
    """convert(value), such as iter(value), or BhvError where convert raises TypeError."""
    try:
        return convert(value)
    except TypeError:
        raise BhvError(f"{what} must be {shape}, got {value!r}") from None


def check_type(value, kind: type, what: str):
    """value if it is a kind, else BhvError naming it by what."""
    if isinstance(value, kind):
        return value
    raise BhvError(f"{what} must be a {kind.__name__}, got {value!r}")


def check_same_n(n: int, m: int) -> None:
    """LeafCountMismatch unless two values combined are over the same number of leaves."""
    if n != m:
        raise LeafCountMismatch(f"leaf counts {n} and {m} do not match")


def check_leaf_count(n: int) -> int:
    """Validate a leaf count; splits exist only for 3 <= n <= 64."""
    return check_int(n, MIN_LEAVES, MAX_LEAVES, "leaf count")


def full_mask(n: int) -> int:
    """Bitmask with one bit per leaf, leaf i on bit i-1."""
    return (1 << n) - 1


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


def _words(value: int, code: str, count: int) -> array:
    """The count lowest words of a non-negative int, lowest first, as an array of typecode code."""
    words = array(code)
    words.frombytes(value.to_bytes(count * words.itemsize, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


class _FrozenValue:
    """An immutable value: the fields its class names in _fields decide its equality, hash,
    repr and pickled form, rebuilt through the checked constructor. __init__ sets them with
    _set or slot setters; assigning or deleting any attribute raises AttributeError."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        if len(cls._fields) > 1:  # the fields read in C; for one field attrgetter gives no tuple
            cls._values = property(attrgetter(*cls._fields))

    @property
    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Split(_FrozenValue):
    """One side of a leaf bipartition in canonical form.

    Split(n, mask) takes either side as a mask, make_split as leaves. Splits
    sort by (n, side size, lexicographic side), the enumeration order used
    throughout the package; split_key is that order within one n.
    """

    __slots__ = _fields = __match_args__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        mask = _canonical_side(check_int(mask, 0, full_mask(check_leaf_count(n)), "mask"), n)
        size = mask.bit_count()
        if size < 2:
            raise BhvError(f"a split needs >= 2 leaves on each side, got sides of {size} and {n - size}")
        _SET_N(self, n)
        _SET_MASK(self, mask)

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
    def _laminar(cls, n: int, masks: list[int]) -> list["Split"]:
        """Split(n, mask) for each of masks, sides of two or more leaves, built
        without the checks in one batch of C-level maps."""
        splits = list(map(object.__new__, repeat(cls, len(masks))))
        deque(map(_SET_N, splits, repeat(n)), 0)  # slot setters: cheaper than object.__setattr__
        deque(map(_SET_MASK, splits, map(_canonical_side, masks, repeat(n))), 0)
        return splits

    def __eq__(self, other) -> bool:  # no tuples built: sets compare the splits of one hash
        same = other.__class__ is self.__class__
        return self.mask == other.mask and self.n == other.n if same else NotImplemented

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
    """The Split of either side of a bipartition of {1, ..., n}, given as leaves."""
    mask, n = 0, check_leaf_count(n)
    for leaf in check_shape(iter, subset, "subset", "iterable"):
        mask |= 1 << (check_int(leaf, 1, n, "leaf") - 1)
    return Split(n, mask)


def _canonical_side(mask: int, n: int) -> int:
    """The side of a bipartition of {1, ..., n} that a Split stores, given
    either side as a mask: the smaller one; on a size tie, the one with leaf 1."""
    size = mask.bit_count()
    if 2 * size > n or (2 * size == n and not mask & 1):
        return full_mask(n) ^ mask
    return mask


def are_compatible(a: Split, b: Split) -> bool:
    """True if the two splits can appear together in one tree.

    Tests the defining condition directly: at least one of the four
    pairwise intersections of sides must be empty. Whole sets are decided
    by the clade-tree walk of bhvkit.topology; this names a crossing pair.
    """
    check_same_n(check_type(a, Split, "a").n, check_type(b, Split, "b").n)
    am, bm = a.mask, b.mask
    ac, bc = a.complement_mask, b.complement_mask
    return not (am & bm) or not (am & bc) or not (ac & bm) or not (ac & bc)


def enumerate_splits(n: int) -> list[Split]:
    """All canonical splits on n leaves, ordered by (size, lexicographic side).

    This is the vertex set of the link graph; its length is 2^(n-1) - n - 1.
    """
    bits = [1 << i for i in range(check_leaf_count(n))]  # leaf i on bit i-1
    masks: list[int] = []
    for k in range(2, (n - 1) // 2 + 1):
        masks += map(sum, combinations(bits, k))
    if n % 2 == 0:  # a side of n/2 leaves is canonical when it holds leaf 1: 1 plus n/2 - 1 others
        masks += map(sum, combinations(bits[1:], n // 2 - 1), repeat(1))
    return Split._laminar(n, masks)


class Permutation(_FrozenValue):
    """A bijection of {1, ..., n}, stored as the image tuple of plain ints (images[i-1] = sigma(i))."""

    __slots__ = _fields = __match_args__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = check_shape(tuple, images, "images", "iterable")
        n = len(images)
        for image in images:
            check_int(image, 1, n, "image")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self._set(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, leaf: int) -> int:
        return self.images[check_int(leaf, 1, len(self.images), "leaf") - 1]  # no wrap-around

    @classmethod
    def from_cycles(cls, n: int, *cycles: Iterable[int]) -> "Permutation":
        """Permutation of 1..n from disjoint cycles, e.g. from_cycles(6, (1, 6)); no entry wraps
        around, and an entry in two places, in one cycle or across cycles, is refused."""
        images = list(range(1, check_int(n, 0, math.inf, "n") + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = tuple(check_int(x, 1, n, "cycle entry") for x in check_shape(iter, cycle, "cycle", "iterable"))
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                if src in seen:
                    raise BhvError(f"cycle entry {src} appears twice")
                seen.add(src)
                images[src - 1] = dst
        return cls(tuple(images))


def all_permutations(n: int) -> Iterator[Permutation]:
    """Every permutation of {1, ..., n}, in itertools order, unchecked: itertools yields bijections."""
    for images in permutations(range(1, n + 1)):
        sigma = object.__new__(Permutation)
        object.__setattr__(sigma, "images", images)
        yield sigma


def apply_permutation(sigma: Permutation, s: Split) -> Split:
    """Relabel a split's leaves through sigma and re-canonicalize."""
    check_same_n(check_type(sigma, Permutation, "sigma").n, check_type(s, Split, "s").n)
    return _relabel(sigma, s)


def _relabel(sigma: Permutation, s: Split) -> Split:
    """apply_permutation of a checked pair, for the callers that check sigma once for many splits."""
    moved = sum(1 << (sigma.images[i] - 1) for i in set_bits(s.mask))  # distinct bits: the sum is their OR
    return Split(s.n, moved)
