"""Exact index and kernel computations for the spin-3/2 operator.

The package has two legs.  One computes index-theoretic invariants of
complete intersections from characteristic classes, in exact rational
arithmetic throughout.  The other decomposes the spin-3/2 bundle under
the special holonomy groups and turns harmonic-theory statements into
Betti- and Hodge-number formulas for the kernel.  A checked-in
regression manifest ties every headline number to an independent route.
"""

from .charclass import (
    ChernProfile,
    euler_characteristic,
    product_rs_index,
    rs_index,
    verify_dimension_identities,
)
from .errors import ConsistencyError, InputError, NotApplicableError
from .holonomy import (
    HolonomyModel,
    ParallelCounts,
    TopologicalInput,
    family_index,
    holonomy_model,
    hyperkahler_kernel_identity,
    kernel_dimension,
    product_parallel_rs,
    qk_kernel_analysis,
    sphere_check,
    spin7_betti_identity,
    symmetric_space_catalog,
)
from .intersections import (
    CIManifold,
    CISpec,
    build_ci,
    ci_invariants,
    ci_rs_kernel,
    fermat_signature,
    hodge_numbers,
    quadric,
)
from .lie import (
    RepSum,
    RootSystem,
    g2,
    irreducible,
    product_system,
    tensor_decompose,
    type_a,
    type_b,
    type_c,
    type_d,
)
from .manifest import RegressionManifest

__version__ = "0.1.0"

__all__ = [
    "ChernProfile",
    "CIManifold",
    "CISpec",
    "ConsistencyError",
    "HolonomyModel",
    "InputError",
    "NotApplicableError",
    "ParallelCounts",
    "RegressionManifest",
    "RepSum",
    "RootSystem",
    "TopologicalInput",
    "build_ci",
    "ci_invariants",
    "ci_rs_kernel",
    "euler_characteristic",
    "family_index",
    "fermat_signature",
    "g2",
    "hodge_numbers",
    "holonomy_model",
    "hyperkahler_kernel_identity",
    "irreducible",
    "kernel_dimension",
    "product_parallel_rs",
    "product_rs_index",
    "product_system",
    "qk_kernel_analysis",
    "quadric",
    "rs_index",
    "sphere_check",
    "spin7_betti_identity",
    "symmetric_space_catalog",
    "tensor_decompose",
    "type_a",
    "type_b",
    "type_c",
    "type_d",
    "verify_dimension_identities",
]
