"""Exception hierarchy shared by all bhvkit modules.

Every bhvkit error is a ValueError: BhvError (a refused integer, container or
length, by splits.check_int, splits.check_shape or measure._lengths), its
subclasses below, each kept where a caller tells it apart, and the plain
ValueError of a few shape checks.
Every size cap raises TooLarge, the searches' NODE_CAP included.
"""


class BhvError(ValueError):
    """Base class for all bhvkit errors."""


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

class LeafCountMismatch(BhvError):
    """Two values built over different leaf counts were combined."""


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

class IncompatiblePair(BhvError):
    """A split set contains two splits that cannot coexist in one tree."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        super().__init__(f"incompatible splits {a} and {b}")


# ---------------------------------------------------------------------------
# link graph
# ---------------------------------------------------------------------------

class TooLarge(BhvError):
    """Input lies outside the sizes this desk-scale routine supports: past a leaf
    cap (MAX_CENSUS_LEAVES, MAX_LINK_LEAVES) or a search's NODE_CAP nodes, or,
    for the CLI's aut, below n = 5."""


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

class EpsilonTooLarge(BhvError):
    """Radius is not smaller than the shortest edge, so the closed-form
    ball volume does not apply."""

    def __init__(self, min_edge):
        self.min_edge = min_edge
        super().__init__(f"epsilon must be smaller than the minimum edge length {min_edge}")


# ---------------------------------------------------------------------------
# newick
# ---------------------------------------------------------------------------

class NewickSyntaxError(BhvError):
    """Malformed Newick input; carries the 0-based offset of the problem."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class DuplicateLeaf(BhvError):
    """The same leaf name appears twice in one tree."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate leaf name {name!r}")


class DegreeTwoInternal(BhvError):
    """A Newick node has a single child, which no unrooted tree can
    produce; carries the 0-based offset of the node's ')'."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"node with a single child (at offset {position})")


class NegativeLength(BhvError):
    """Branch lengths must be nonnegative."""


class UnknownLeafName(BhvError):
    """A leaf name could not be resolved to an index in {1, ..., n}."""
