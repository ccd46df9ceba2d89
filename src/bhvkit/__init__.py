"""Combinatorics and local geometry of phylogenetic tree space.

Splits and compatibility, tree topologies with orthant counting, the split
compatibility graph and its automorphisms, epsilon-ball volumes with exact
rational coefficients, and Newick ingestion. Every closed-form count or
bound has a brute-force oracle in the test suite.
"""

from .errors import (
    BhvError,
    EpsilonTooLarge,
    IncompatiblePair,
    LeafCountMismatch,
    NewickSyntaxError,
    TooLarge,
)
from .linkgraph import (
    AutomorphismGroup,
    LinkGraph,
    brute_force_automorphisms,
    build_link_graph,
    certify_aut,
    degree_formula,
    ekr_independent_sets,
    kneser_subgraph,
    maximum_independent_sets,
    permutation_to_automorphism,
    verify_degrees,
)
from .measure import (
    BallVolume,
    TreePoint,
    ball_volume,
    ball_volume_bounds,
    distance_upper_bound,
    euclidean_ball_volume,
    is_cone_point,
    same_orthant_distance,
)
from .newick import parse_newick, to_newick
from .splits import (
    Permutation,
    Split,
    all_permutations,
    apply_permutation,
    are_compatible,
    enumerate_splits,
    make_split,
)
from .topology import (
    Topology,
    clade_children,
    count_refining_orthants,
    degree_sequence,
    double_factorial,
    enumerate_binary_refinements,
    enumerate_binary_topologies,
    is_binary,
    make_topology,
)

__version__ = "0.1.0"
