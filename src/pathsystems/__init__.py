"""Path systems on graphs: consistency, resumes, exact-rational
metrizability tests with certificates, generators, counting, and
VC-class machinery."""

from .core import (
    Consistency,
    Graph,
    InconsistentSystemError,
    PathSystem,
    Resume,
    ResumeRecoveryError,
    TripleSet,
    all_pairs,
    all_pointed_triples,
    all_resumes,
    colinear_triples,
    diameter,
    extract_resume,
    is_consistent,
    is_neighborly,
    make_path,
    pair,
    path_edges,
    path_interior,
    pointed_triple,
    recover_from_resume,
    require_consistent,
)
from .counting import (
    asymptotic_check,
    boxed_count,
    count_d2,
    enumerate_consistent,
    signature_separation_experiment,
    sym_count,
)
from .generators import (
    MatchingError,
    MonotoneMatrix,
    admissible_pairs,
    enumerate_diam2,
    enumerate_monotone,
    gen_bipartite,
    gen_gnp,
    gen_join,
    gen_join_gamma,
    matching_weights,
    monotone_system,
    perfect_matching,
)
from .metrize import (
    InduceResult,
    Pseudometric,
    RealizabilityResult,
    SearchOutcome,
    StrictnessResult,
    WeightFunction,
    WitnessAlpha,
    build_lp,
    closure,
    delta,
    induce_system,
    integral_witness_search,
    is_metric,
    is_realizable,
    is_strictly_metric,
    realize_weights,
    resume_signature,
    triple_signature,
    triples_of_metric,
    verify_witness,
)
from .rational import (
    Q,
    VerificationError,
    parse_rational,
    rational_to_json,
    rational_to_text,
)
from .ratlp import (
    FarkasCertificate,
    FeasibilityResult,
    LinearSystem,
    OptimizeResult,
    maximize,
    solve_feasibility,
    verify_certificate,
)
from .vc import (
    NoCompatibleExtension,
    SetSystem,
    SimplicialComplex,
    build_maximum_class,
    compatible_vertices,
    family_of_system,
    is_maximum_class,
    sample_lm,
    sauer_bound,
    shatters,
    vc_dim,
)

__version__ = "1.0.0"
