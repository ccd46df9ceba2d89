"""Exception hierarchy shared by all bhvkit modules.

The errors below derive from BhvError, so callers can catch one base class
for them. Every size cap raises TooLarge, the census's and the link graph's
alike. Some checks raise plain ValueError instead: check_leaf_count,
Permutation, TreePoint (its lengths and from_json) and the finite-float
guards of measure. The CLI reports either as rejected input (exit 5) unless
a more specific exit code applies.
"""


class BhvError(Exception):
    """Base class for all bhvkit errors."""


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

class SubsetTooSmall(BhvError):
    """A split side or its complement has fewer than 2 leaves."""


class LeafOutOfRange(BhvError):
    """A leaf label lies outside {1, ..., n}."""


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


class TooManySplits(BhvError):
    """More than n-3 splits supplied for a topology on n leaves."""


class NegativeOrEven(BhvError):
    """Double factorial argument must be odd and >= -1."""


# ---------------------------------------------------------------------------
# link graph
# ---------------------------------------------------------------------------

class KOutOfRange(BhvError):
    """Partition size k outside the valid range for this query."""


class TooLarge(BhvError):
    """Input lies outside the sizes this desk-scale routine supports: past a leaf
    cap (MAX_CENSUS_LEAVES, MAX_LINK_LEAVES), or, for the CLI's aut, below n = 5."""


class SearchBudgetExceeded(BhvError):
    """A backtracking search exhausted its node budget."""


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

class NonpositiveRadius(BhvError):
    """Ball radius must be strictly positive and finite."""


class EpsilonTooLarge(BhvError):
    """Radius is not smaller than the shortest edge, so the closed-form
    ball volume does not apply."""

    def __init__(self, min_edge):
        self.min_edge = min_edge
        super().__init__(
            f"epsilon must be smaller than the minimum edge length {min_edge}"
        )


class POutOfRange(BhvError):
    """Edge count p outside 0 <= p <= n-3."""


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
