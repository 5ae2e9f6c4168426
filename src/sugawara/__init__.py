"""Exact Segal-Sugawara vectors for nilpotent centralizers in gl_N.

The package constructs, for the centralizer of a nilpotent matrix
described by a pyramid of Jordan block sizes, the generators of the
critical-level center of the associated affine vertex algebra, and
verifies the defining identities by exact rational arithmetic:
annihilation by nonnegative modes, the raising-operator ladder,
commutativity, the skew-variable cross-check, shift-of-argument
subalgebras and the center of the enveloping algebra.
"""

from .pyramid import GenId, Pyramid, bracket, form
from .pbw import (
    Element,
    LieContext,
    LoopGen,
    delta,
    element_from_obj,
    element_text,
    element_to_obj,
    get_context,
    translation_T,
)
from .detcalc import (
    build_entry_matrix,
    build_tau_matrix,
    cdet,
    cdet_tau,
    column_determinant,
)
from .suga import (
    SugaTable,
    clear_caches,
    delta_ladder,
    phi_table,
    selected_pairs,
    selected_vectors,
    tau_cross_check,
)
from .shift import (
    AChiGen,
    a_chi_generators,
    apply_automorphism,
    center_generators,
    jacobian_rank,
    random_point,
    rho_chi,
    symbols,
    zseries_eval,
)
from .reports import Report
from .verify import (
    annihilation_check,
    centrality_check,
    commutativity_check,
    raising_recursion_check,
)

__version__ = "0.1.0"
