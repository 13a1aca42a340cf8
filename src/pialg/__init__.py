"""Exact realizability checking for two-stage homotopy operation data.

The package decides, with certificates, whether a pair of abelian groups in
degrees n and n+k together with its operation structure map comes from an
actual space, working entirely in exact integer arithmetic: Smith normal
form drives finitely generated abelian groups, quadratic tensor products
supply the metastable functors, and curated stable tables with explicit
partial-knowledge states feed the factorization criterion.
"""

from .errors import (
    BoundExceeded,
    InconsistentTables,
    MalformedStructureMap,
    MissingTableData,
    NotStableRange,
    PialgError,
    ProblemFormatError,
    TableFormatError,
    UnsupportedRegime,
)
from .fgab import (
    Factorizer,
    FgAbGroup,
    GroupHom,
    HomGroup,
    Presentation,
    TRIVIAL,
    Z,
    canonicalize,
    cokernel,
    cyclic,
    direct_sum,
    factor_through,
    free_group,
    from_cyclic_orders,
    hom_group,
    image,
    is_split_injective,
    kernel,
    mod_reduction,
    multiplication_by,
    stack_homs,
    subgroup,
    tensor,
    tensor_induced,
    tor,
    two_torsion_subgroup,
)
from .intlinalg import IntMatrix, SnfResult, smith_normal_form
from .pi_functors import GammaTildeResult, Regime, SemanticGenerator, gamma_tilde, gamma_tilde_induced
from .quadratic import (
    BUILTIN_QUADRATIC_MODULES,
    PI3_S2,
    PI5_S3,
    Q2_S3,
    QuadTensorResult,
    QuadraticModule,
    Z_GAMMA,
    Z_LAMBDA,
    brute_force_quad_tensor,
    exterior_square,
    involution,
    quad_tensor,
    quad_tensor_free,
    quad_tensor_induced,
    whitehead_gamma,
)
from .realizability import (
    Obstruction,
    Status,
    StemAnswer,
    StemVerdict,
    ThreeStageProblem,
    TwoStagePiAlgebra,
    Verdict,
    all_realizable_in_stem,
    build_structure_map,
    check,
    check_k1,
    check_k2,
    check_stable,
    problem_from_json,
    survey_stem,
    three_stage_obstruction,
    verdict_from_json,
    verdict_to_json,
)
from .tables import (
    GammaKnowledge,
    StableTables,
    TabulatedGroup,
    admissible_gamma_completions,
    alpha_family_overlay,
    dumps_tables,
    load_defaults,
    load_from_file,
    load_tables,
    loads_tables,
    merge,
    verify_pi_ring_relations,
)

__version__ = "0.1.0"
