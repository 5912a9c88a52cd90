"""Kernel-space geometry: delta embeddings, indefinite metrics, dynamics.

The library realizes, at desk scale, the embedding of flat and curved
coordinate spaces into Hilbert and Krein spaces of functionals: Gaussian
and periodic-Sobolev reproducing kernels, closed-form inner products on
Gaussian-jet elements, induced metrics on delta images, extensions of
space-time group actions to delta spans, and Schroedinger evolution
recovered on time-sliced subspaces.
"""

__version__ = "0.1.0"

from .algebra import (
    even_odd_split,
    inner_product,
    inner_products,
    l2_inner_product,
    norm_squared,
)
from .catalog import (
    BUILTIN_EXPRESSIONS,
    CatalogEntry,
    builtin,
    builtin_names,
    parse_embedding,
)
from .dynamics import (
    EvolutionPath,
    HamiltonianSpec,
    PerturbedPath,
    TimeSlicedElement,
    coherent_state,
    free_packet,
    galileo_on_slice,
    orthogonality_check,
    path_derivative,
    path_velocity,
    pde_residual_fd,
    schrodinger_residual,
    slice_inner_product,
    slice_inner_products,
    slice_norm_squared,
    spatial_spec,
)
from .elements import DeltaJetTerm, GaussianTerm, SpaceElement
from .errors import (
    CatalogConsistencyError,
    DegenerateImmersionError,
    DivergentNormError,
    ExpressionError,
    IntegralOverflowError,
    KernelSpaceError,
    NonAffineMapError,
    ReportError,
)
from .expressions import evaluate, parse_expression, to_string
from .geometry import (
    EmbeddingMap,
    MetricTensor,
    PulledBackKernel,
    analytic_pullback_metric,
    chordal_distance,
    delta_oplus,
    delta_scale,
    embed_delta,
    induced_metric,
)
from .groups import (
    AffineMap,
    DeltaSpanOperator,
    DiffeoMap,
    GalileoElement,
    PoincareElement,
    act_on_element,
    apply_point,
    check_gram_invariance,
    extend_to_span,
    parse_group_element,
    transform_gram,
)
from .kernels import KernelSpec, Signature, gram_matrix, kernel_eval
from .quadrature import QuadratureGrid, quadrature_inner_product

__all__ = [
    "__version__",
    # kernels
    "KernelSpec", "Signature", "kernel_eval", "gram_matrix",
    # elements and algebra
    "SpaceElement", "GaussianTerm", "DeltaJetTerm",
    "inner_product", "inner_products", "norm_squared", "l2_inner_product", "even_odd_split",
    # quadrature oracle
    "QuadratureGrid", "quadrature_inner_product",
    # geometry
    "EmbeddingMap", "PulledBackKernel", "MetricTensor",
    "embed_delta", "induced_metric", "analytic_pullback_metric",
    "chordal_distance", "delta_oplus", "delta_scale",
    # catalog
    "CatalogEntry", "builtin", "builtin_names", "parse_embedding",
    "BUILTIN_EXPRESSIONS",
    # expressions
    "parse_expression", "evaluate", "to_string",
    # groups
    "PoincareElement", "GalileoElement", "AffineMap", "DiffeoMap",
    "DeltaSpanOperator", "apply_point", "extend_to_span", "act_on_element",
    "check_gram_invariance", "transform_gram", "parse_group_element",
    # dynamics
    "TimeSlicedElement", "HamiltonianSpec", "EvolutionPath", "PerturbedPath",
    "free_packet", "coherent_state", "schrodinger_residual", "pde_residual_fd",
    "path_velocity", "path_derivative", "orthogonality_check",
    "slice_inner_product", "slice_norm_squared", "spatial_spec",
    "galileo_on_slice", "slice_inner_products",
    # errors
    "KernelSpaceError", "DivergentNormError", "IntegralOverflowError",
    "DegenerateImmersionError", "NonAffineMapError", "ExpressionError",
    "CatalogConsistencyError", "ReportError",
]
