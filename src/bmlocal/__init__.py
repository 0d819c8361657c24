"""bmlocal: exact-arithmetic multiplicity identities and local models.

An exact-arithmetic library and CLI that computes cycle-multiplicity
identities for two-dimensional Hodge types and verifies, at desk scale,
the calculational ingredients behind them: Weyl-character decomposition,
Hilbert-defect degree bounds, derivation-locus cell dimensions in
lattice models, Frobenius-matrix conjugation torsors over truncated
series, and p-adic interpolation at uniformiser conjugates.
"""

__version__ = "0.1.0"

from .bm_mult import (  # noqa: F401
    BMIdentity,
    SerreTuple,
    bm_identity,
    bm_multiplicities,
    candidate_support,
    is_steinberg,
)
from .breuil_kisin import (  # noqa: F401
    BKMatrix,
    height_check,
    inverse_direction_check,
    phi_conjugate,
    torsor_solve,
)
from .characters import (  # noqa: F401
    Character,
    decompose,
    scale_exponents,
    tensor_multiplicities,
    weyl_character,
    weyl_dim,
)
from .grassmannian import (  # noqa: F401
    Lattice,
    NablaCell,
    filtration_to_lattice,
    generic_base,
    lattice_dual,
    nabla_cell_dimension,
    nabla_check,
    psi_lattice,
    smith_type,
    special_base,
)
from .hilbert import (  # noqa: F401
    DefectSeries,
    defect_degree,
    dim_product,
    equality_forcing_check,
    overcount_detected,
    shifted_identity_check,
)
from .interpolation import (  # noqa: F401
    LocalPoly,
    geometric_kernel,
    interpolate_claim,
    nu_invariant,
)
from .laurent import LaurentPoly  # noqa: F401
from .localfield import (  # noqa: F401
    LocalFieldElement,
    TameFieldContext,
    lf_valuation,
)
from .series import LaurentSeriesMatrix, TruncSeries, series_phi  # noqa: F401
from .weights import (  # noqa: F401
    EmbeddingData,
    HodgeType,
    dominance_leq,
    dual_weight,
    flag_dim,
    rho,
    tilde_lift,
    validate_hodge_bound,
)
