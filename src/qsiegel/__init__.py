"""Jordan-algebra calculus and multiplicity-freeness certificates for
quasi-symmetric Siegel domains."""

from .jordan import (
    EuclideanJordanAlgebra,
    PeirceSystem,
    SpectralDecomposition,
    diagonal_algebra,
    herm_complex_algebra,
    make_algebra,
    sym_real_algebra,
)
from .representation import (
    GroupElement,
    HermitianMapQ,
    JordanRepresentation,
    SiegelPoint,
    standard_model,
)
from .subspaces import RealSubspace, complement_wrt, derive_spaces, kernel_of_form
from .kernels import (
    GramReport,
    KernelParams,
    build_kernel_params,
    classify_lambda,
    eval_kernel,
    fock_kernel,
    gram_psd_report,
    invariant_kernel_raw,
    frame_scalar_check,
    kernel_matrix,
)
from .integrals import BergmanEstimate, ConeIntegrals, bergman_kernel, cone_integrals
from .certify import (
    BaseMetric,
    Certificate,
    CombinedReport,
    base_metric,
    bergman_metric_scale,
    certify_all,
    check_coisotropic,
    check_imq_vanishes,
    check_orbit_multiplicity,
    check_orthocomplement_identity,
)
from .catalog import CatalogEntry, WVariant, catalog_get, catalog_list

__all__ = [
    "EuclideanJordanAlgebra",
    "SpectralDecomposition",
    "PeirceSystem",
    "diagonal_algebra",
    "sym_real_algebra",
    "herm_complex_algebra",
    "make_algebra",
    "JordanRepresentation",
    "HermitianMapQ",
    "SiegelPoint",
    "GroupElement",
    "standard_model",
    "RealSubspace",
    "complement_wrt",
    "kernel_of_form",
    "derive_spaces",
    "KernelParams",
    "GramReport",
    "classify_lambda",
    "build_kernel_params",
    "eval_kernel",
    "kernel_matrix",
    "invariant_kernel_raw",
    "fock_kernel",
    "gram_psd_report",
    "frame_scalar_check",
    "ConeIntegrals",
    "BergmanEstimate",
    "cone_integrals",
    "bergman_kernel",
    "Certificate",
    "BaseMetric",
    "CombinedReport",
    "base_metric",
    "bergman_metric_scale",
    "check_imq_vanishes",
    "check_coisotropic",
    "check_orbit_multiplicity",
    "check_orthocomplement_identity",
    "certify_all",
    "CatalogEntry",
    "WVariant",
    "catalog_list",
    "catalog_get",
    "__version__",
]

__version__ = "0.1.0"
