"""Fractional repetition code toolkit.

Build FR and weak FR codes (partial regular graph, ring placement,
shifted placement), brute-force their coverage and reconstruction
degree, check universal goodness, plan exact single-node repair, and
regenerate or audit parameter tables.
"""

from .analysis import (
    DEFAULT_BUDGET,
    CoverageProfile,
    GoodnessReport,
    KPrediction,
    PrgMargin,
    coverage_profile,
    goodness_arithmetic,
    goodness_rhs,
    goodness_structural,
    min_coverage,
    predicted_k_ring,
    prg_margin,
    reconstruction_degree,
    ring_margin_case1,
    ring_margin_case2,
)
from .constructions import (
    PrgSpec,
    RingSpec,
    TSpec,
    build_prg,
    build_ring,
    build_t_code,
    export_code,
    import_code,
)
from .core import (
    CodeProfile,
    FrCode,
    IdentityReport,
    check_identities,
    code_from_matrix,
    incidence_matrix,
    make_code,
    profile,
    single_deficit_shape,
)
from .errors import (
    BudgetExceeded,
    DegenerateOffsets,
    DegreeRange,
    EmptySystem,
    FrcError,
    IndexOutOfRange,
    InvariantViolation,
    KOutOfRange,
    MalformedRow,
    OrphanPacket,
    ParityError,
    ParseError,
    RhoRange,
    Unreachable,
    Unrepairable,
)
from .repair import (
    RepairPlan,
    plan_repair,
    plan_repair_greedy,
)
from .sweep import (
    BUNDLED_TABLES,
    FAMILY_RING,
    FAMILY_T,
    PROVENANCE_GENERATED,
    PROVENANCE_TRANSCRIBED,
    AuditFinding,
    ConjectureFinding,
    DedupAudit,
    FilterAudit,
    TableRow,
    audit_dedup,
    audit_rhs_filter,
    audit_table,
    bundled_table_family,
    conjecture_harness,
    dedup_rows,
    default_theta_rule,
    filter_rhs,
    load_bundled_table,
    read_rows_csv,
    restrict_rho,
    sweep_ring,
    write_rows_csv,
)

__version__ = "0.1.0"
