"""Exact reduced-expression-graph and Bott-Samelson morphism computations.

The package builds reduced-expression graphs of symmetric-group
elements, realizes braid-move morphisms between Bott-Samelson bimodules
as exact matrices over a polynomial ring, composes path morphisms, and
checks whether complete paths with equal endpoints induce equal
morphisms (they do not always: the element 12321 of S_4 is the known
exception, which the harness reproduces).
"""

from .bsbimod import BSElement, dot_cap, from_tensor, left_mul, right_mul
from .braidmor import (
    ConflatedMorphisms,
    MorphismMatrix,
    apply_edge,
    derive_local_table,
    edge_matrix,
    path_morphism,
)
from .polyring import Polynomial, parse_polynomial
from .rexgraph import (
    CONFLATED,
    EXPANDED,
    Cloud,
    ConflatedGraph,
    NoDirectSubpathError,
    NonUniqueOrientationError,
    Path,
    RexGraph,
    UnsupportedElementError,
    build_conflated,
    build_rex_graph,
    clouds,
    enumerate_complete_paths,
    graph_for_word,
    lift_conflated_path,
    simplify_path,
    source_sink,
    to_dot,
)
from .symgroup import (
    BraidMove,
    Permutation,
    Word,
    braid_moves,
    is_reduced,
    longest_element,
    reduced_words,
    word_to_perm,
)

__version__ = "0.1.0"
