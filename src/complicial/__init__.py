"""Finite stratified simplicial sets, complicial lifting, homotopy monoids."""

__version__ = "0.1.0"

from .core import (  # noqa: E402,F401
    SimplexId,
    SimplicialMap,
    TruncatedSSet,
    build_map,
    build_sset,
    identity_map,
    make_simplicial_map,
)
from .strat import (  # noqa: F401
    StratifiedMap,
    StratifiedSSet,
    gproduct,
    make_stratified,
    make_stratified_map,
    max_strat,
    min_strat,
    regular_subset,
)
from .standard import (  # noqa: F401
    boundary,
    complicial_delta,
    complicial_horn,
    delta,
    delta_dprime,
    delta_prime,
    delta_t,
    horn_prime,
    key_inclusion,
)
from .lifting import (  # noqa: F401
    FailedInstance,
    VerificationReport,
    VerificationRow,
    assemble_horn_map,
    horn_instances,
    verify_weak_complicial,
)
from .homotopy import (  # noqa: F401
    AuditReport,
    MonoidTable,
    Tau0Result,
    associativity_witness,
    audit_well_defined,
    classifying_map,
    find_inverses,
    multiply,
    multiply_with_filler,
    sphere_elements,
    sphere_relation,
    tau0,
    tau_table,
)
from .adapters import (  # noqa: F401
    FiniteCategory,
    arrow_category,
    assert_kan,
    assert_quasicategory,
    boolean_monoid,
    cyclic_group,
    from_permutations,
    homotopy_category,
    make_category,
    monoid_category,
    nerve,
    pi_oracle,
    quasicat_e,
    symmetric_group_3,
    th0,
    trivial_monoid,
)
from . import errors  # noqa: F401
