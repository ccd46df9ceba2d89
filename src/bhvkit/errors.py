"""Exception hierarchy shared by all bhvkit modules.

Every bhvkit error is a ValueError: BhvError (a refused integer, container or
length, by splits.check_int, splits.check_shape or measure._lengths, and a
repeated or unresolved Newick leaf name), its subclasses below, each kept
only where a caller tells it apart, by the CLI's exit code or by an
attribute no other class carries, and the plain ValueError of a few shape
checks.
Every size cap raises TooLarge, the searches' NODE_CAP included.
"""


class BhvError(ValueError):
    """Base class for all bhvkit errors."""


class LeafCountMismatch(BhvError):
    """Two values built over different leaf counts were combined."""


class IncompatiblePair(BhvError):
    """A split set contains two splits that cannot coexist in one tree."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        super().__init__(f"incompatible splits {a} and {b}")


class TooLarge(BhvError):
    """Input lies outside the sizes this desk-scale routine supports: past a leaf
    cap (MAX_CENSUS_LEAVES, MAX_LINK_LEAVES) or a search's NODE_CAP nodes, or,
    for the CLI's aut, below n = 5."""


class EpsilonTooLarge(BhvError):
    """Radius is not smaller than the shortest edge, so the closed-form
    ball volume does not apply."""

    def __init__(self, min_edge):
        self.min_edge = min_edge
        super().__init__(f"epsilon must be smaller than the minimum edge length {min_edge}")


class NewickSyntaxError(BhvError):
    """Malformed Newick input, a node with a single child or a negative
    length included; carries the 0-based offset of the problem."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")
