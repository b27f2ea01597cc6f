"""In-situ programs: compute a mapping of (Z/sZ)^n by overwriting one
component of the input vector at a time, with no other storage.

Compilers: route_bijection (2n - 1 steps), compile_general5 (5n - 4),
compile_general4_sorted and compile_general4_flexible (4n - 3), and
decompose for linear mappings mod s (at most 2n - 1 assignment
matrices).  minsim checks programs as the routings of the stage networks
of their signatures and draws them; oracle gives each method's
signature, brute-force minimal lengths and whole-universe suites.
"""

from .core import (
    Alphabet,
    Assignment,
    InSituError,
    InSituProgram,
    Mapping,
    NotBijective,
    NotBoolean,
    SignatureNotGroupable,
    assignment_table,
    component_permutation,
    concat,
    execute,
    execute_all,
    invert_program,
    merge_adjacent,
    permutation_length_bound,
    regroup,
    vector_of,
)
from .benes import SuffixGraph, edge_color, route_bijection, route_bijection_reversed, suffix_graph
from .factor import (
    ClassFactorisation,
    backward_restricted_program,
    collapse_mapping,
    compile_general4_sorted,
    compile_general5,
    factor_by_classes,
    forward_program,
    preimage_classes,
)
from .blockseq import (
    BlockSequence,
    compile_general4_flexible,
    compose_forward_program,
    is_suffix_compatible,
    make_block_sequence,
    permute_block_tree,
    tree_choice_count,
)
from .linmod import (
    AssignmentMatrix,
    LinearProgram,
    MatrixMod,
    ModRing,
    NotInvertible,
    coefficient_program,
    decompose,
    invert_linear_program,
    linear_mapping,
    product,
    to_in_situ,
    unit_multipliers,
)
from .minsim import RoutingReport, export_dot, routing_of, verify
from .oracle import BudgetExceeded, SuiteReport, exhaustive_suite, full_universe, method_signature, min_length_bfs
from .rng import SplitMix64, random_bijection, random_mapping, random_matrix

__version__ = "0.1.0"
