"""Exact tools for cell combinatorics and small-spectrum candidate matrices.

The package computes, with integer and rational arithmetic only:

* tables of elements with a unique reduced expression in finite Coxeter
  systems, organized into boxes by first and last letter (``coxeter``);
* the alternating two-variable analogue of the Chebyshev recursion, its
  irreducible factors, and Sturm-sequence root counting (``fibpoly``);
* classification of 0-1 matrices whose Gram spectrum lies in [0, 4),
  together with an exhaustive search oracle (``staircase``);
* candidate matrices for dihedral quotients at a given level, the matrix
  model of the generators, and the truncated based algebra (``dihedral``);
* cells, apexes and transitivity of based algebras and their finite based
  modules (``based_algebra``);
* candidate matrices for higher-rank quotients assembled from dihedral
  blocks, with an exact search and verifier (``higher_rank``);
* double quivers with zigzag relations, their Cartan matrices, and the
  simply laced Dynkin classification (``quiver``).
"""

from .based_algebra import BasedAlgebra, BasedModule, CellPartition
from .coxeter import (
    CellTable,
    CoxeterSystem,
    cell_table,
    enumerate_J,
    has_unique_reduced_expression,
    is_reduced,
    tits_orbit,
)
from .dihedral import (
    DihedralCandidate,
    DihedralRep,
    annihilation_test,
    based_algebra_of,
    based_module_of,
    enumerate_B,
    recover_n,
    structure_constants,
    theta_generator_matrices,
    theta_word_matrix,
)
from .fibpoly import (
    IntPolynomial,
    check_fg_relation,
    count_real_roots,
    count_roots_in,
    eval_at_matrix,
    fib_f,
    fib_g,
    fib_irreducible_factor,
    max_root_bracket,
    max_root_strictly_less,
    squarefree_part,
    sturm_chain,
)
from .higher_rank import (
    AssemblyCandidate,
    SharedEigenvalue,
    assembly_search,
    assembly_violations,
    b_family_matrix,
    conjugation_canonical,
    reflection_sign_matrix,
    shared_top_eigenvalue,
    special_modules,
)
from .intmat import (
    IntMatrix,
    charpoly,
    gram,
    is_irreducible_nonneg,
    minpoly_symmetric,
    pf_vector,
    spectrum_in_range,
)
from .quiver import NotSimplyLacedDynkinError, ZigzagAlgebra, dynkin_type_of_graph
from .staircase import (
    MatrixClass,
    NonBinaryEntryError,
    ReducibleGramError,
    SpectrumOutOfRangeError,
    brute_force_under4,
    canonical_form,
    classes_of_type,
    classify_under4,
    exceptional,
    generators_for_shape,
    gram_spectrum_below_4,
    make_extended_staircase,
    make_staircase,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyCandidate",
    "BasedAlgebra",
    "BasedModule",
    "CellPartition",
    "CellTable",
    "CoxeterSystem",
    "DihedralCandidate",
    "DihedralRep",
    "IntMatrix",
    "IntPolynomial",
    "MatrixClass",
    "NonBinaryEntryError",
    "NotSimplyLacedDynkinError",
    "ReducibleGramError",
    "SharedEigenvalue",
    "SpectrumOutOfRangeError",
    "ZigzagAlgebra",
    "annihilation_test",
    "assembly_search",
    "assembly_violations",
    "b_family_matrix",
    "based_algebra_of",
    "based_module_of",
    "brute_force_under4",
    "canonical_form",
    "cell_table",
    "charpoly",
    "check_fg_relation",
    "classes_of_type",
    "classify_under4",
    "conjugation_canonical",
    "count_real_roots",
    "count_roots_in",
    "dynkin_type_of_graph",
    "enumerate_B",
    "enumerate_J",
    "eval_at_matrix",
    "exceptional",
    "fib_f",
    "fib_g",
    "fib_irreducible_factor",
    "generators_for_shape",
    "gram",
    "gram_spectrum_below_4",
    "has_unique_reduced_expression",
    "is_irreducible_nonneg",
    "is_reduced",
    "make_extended_staircase",
    "make_staircase",
    "max_root_bracket",
    "max_root_strictly_less",
    "minpoly_symmetric",
    "pf_vector",
    "recover_n",
    "reflection_sign_matrix",
    "shared_top_eigenvalue",
    "special_modules",
    "spectrum_in_range",
    "squarefree_part",
    "structure_constants",
    "sturm_chain",
    "theta_generator_matrices",
    "theta_word_matrix",
    "tits_orbit",
]
