"""blockforge: strong s-blocking sets in PG(k-1, q).

Expander-plus-hypergraph constructions, tree-like rank certificates,
exhaustive and sampled verification, and the conversion to s-minimal codes
and affine blocking sets.
"""

__version__ = "0.1.0"

from .budgets import Budgets, DEFAULT_BUDGETS
from .construct import (BlockingSet, construct_ball_power, construct_cherry,
                        construct_neighborhood, edge_span_union, lower_bound)
from .errors import (BlockforgeError, BudgetExceededError, CertificateError,
                     DualityMismatchError)
from .expander import (Graph, Hypergraph, MixingReport, SpectralReport, ball,
                       blowup, check_mixing, complete_graph,
                       cycle_graph, find_star_vertex, largest_component,
                       lps_graph, path_graph, power_graph, second_eigenvalue)
from .gf import FieldSpec, field_create
from .lincomb import (Certificate, EdgeWitness, EliminationOrder,
                      build_plc_hypergraph, certify, exactly_s_plus_one_edge,
                      plc_edge, tree_like_order)
from .linalg import (MatrixGF, SubspaceBasis, gaussian_binomial, kernel_basis,
                     matmul, quotient_map, rank, rref, subspace_from_rows)
from .mincode import (LinearCode, MinimalityReport, blocking_to_code,
                      code_to_blocking, duality_check, is_s_minimal, support)
from .supply import (GeneralPositionReport, PointSupply, supply_mds,
                     supply_random_verified, verify_general_position)
from .verify import (SearchResult, VerificationReport, blocks_affine,
                     is_strong_blocking, is_strong_blocking_sampled,
                     minimum_size_search, to_affine_blocking)
