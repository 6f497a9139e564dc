"""Make two vertices far apart by deleting few edges.

The library revolves around one question: given an undirected graph with
positive integer edge lengths, two terminals s and t, a deletion budget k
and a target ell, can at most k edge deletions force every remaining s-t
path to have length at least ell?  Alongside the decision solvers it ships
the two optimization views (fewest deletions for a target; largest distance
within a budget), a distance-preserving kernelization, approximation
routines with certificates, instance generators, and a file format plus CLI.
"""

from .approx import (CERT_APPROX_FACTOR, CERT_OPTIMAL, Certificate,
                     greedy_ell_approx, param_approx_max_length)
from .errors import (DeadlineExceeded, InputError, ParseError,
                     PreconditionError)
from .exact import (SolveStats, brute_force, cvd_fpt, max_length, min_cost,
                    normalize_twins, search_tree, staircase, xp_by_max_degree)
from .fileformat import emit_instance, parse_instance
from .generators import (FAMILIES, TripartiteGraph, gen_complete_reduction,
                         gen_gap_reduction, gen_random, gen_split_reduction,
                         gen_subdivision, gen_vc_reduction)
from .graph import (INF, ClusterDecomposition, Graph, Instance, Solution,
                    TwinClass, cluster_vertex_deletion_set,
                    connected_components, diameter, diameter_at_most_two,
                    edge_key, evaluate_solution, feedback_edge_set, min_st_cut,
                    min_st_cut_size, shortest_distances, st_distance,
                    twin_classes)
from .kernel import KernelTrace, kernelize, lift_solution
from .pipeline import solve
from .poly import (solve_complete_unit, solve_diameter2, sp_max_length,
                   sp_min_cost)
from .sptree import PARALLEL, SERIAL, SpTree, build_sp_tree

__version__ = "1.0.0"
