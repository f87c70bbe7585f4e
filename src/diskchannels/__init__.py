"""Equivariant quantum channels on weighted Bergman spaces over the unit disk.

Finite-truncation realizations of the grade-k intertwining channels
T(A) = P_k (A x I) P_k*, the covariant-symbol / Toeplitz / Berezin / Husimi
transform stack, and weight-sweep experiments for their trace limits.
"""

__version__ = "0.1.0"

from .bergman import (
    BandedOperator,
    TruncatedOperator,
    coherent_vector,
    group_action_matrix,
    kernel_eval,
    monomial_norm_sq,
)
from .channel import (
    ChannelParams,
    apply_channel,
    banded_trace,
    functional_trace,
    pk_star_vector,
    projection_coefficients,
    sqrt_series_coefficient,
)
from .disk import DiskQuadrature, GroupElement, build_quadrature, mobius, transporter
from .specfun import (
    berezin_eigenvalue,
    channel_constant_sq,
    gauss_2f1_unit,
    plancherel_density,
    pochhammer,
)
from .spectral import (
    chained_kernel_integral,
    eigen_relation_residual,
    eigenfunction,
    inverse_multiplier,
    spherical_function,
)
from .transforms import (
    DiskFunction,
    berezin_transform,
    covariant_symbol,
    e_transform,
    eigen_function,
    husimi,
    radial_poly,
    toeplitz_operator,
)

__all__ = [
    "__version__",
    "BandedOperator",
    "TruncatedOperator",
    "coherent_vector",
    "group_action_matrix",
    "kernel_eval",
    "monomial_norm_sq",
    "ChannelParams",
    "apply_channel",
    "banded_trace",
    "functional_trace",
    "pk_star_vector",
    "projection_coefficients",
    "sqrt_series_coefficient",
    "DiskQuadrature",
    "GroupElement",
    "build_quadrature",
    "mobius",
    "transporter",
    "berezin_eigenvalue",
    "channel_constant_sq",
    "gauss_2f1_unit",
    "plancherel_density",
    "pochhammer",
    "chained_kernel_integral",
    "eigen_relation_residual",
    "eigenfunction",
    "inverse_multiplier",
    "spherical_function",
    "DiskFunction",
    "berezin_transform",
    "covariant_symbol",
    "e_transform",
    "eigen_function",
    "husimi",
    "radial_poly",
    "toeplitz_operator",
]
