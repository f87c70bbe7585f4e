"""Equivariant quantum channels on weighted Bergman spaces over the unit disk.

Finite-truncation realizations of the grade-k intertwining channels
T(A) = P_k (A x I) P_k*, the Toeplitz / Berezin / Husimi transform stack,
and weight-sweep experiments for their trace limits.
"""

__version__ = "0.1.0"

from .bergman import (
    BandedOperator,
    TruncatedOperator,
    group_action_matrix,
)
from .channel import (
    ChannelParams,
    apply_channel,
    banded_trace,
)
from .disk import DiskQuadrature, GroupElement, build_quadrature, mobius, transporter
from .specfun import (
    berezin_eigenvalue,
    channel_constant_sq,
    pochhammer,
)
from .spectral import (
    chained_kernel_integral,
    eigen_relation_residual,
    eigenfunction,
)
from .transforms import (
    DiskFunction,
    berezin_transform,
    e_transform,
    husimi_grid,
    radial_poly,
    toeplitz_operator,
)

__all__ = [
    "__version__",
    "BandedOperator",
    "TruncatedOperator",
    "group_action_matrix",
    "ChannelParams",
    "apply_channel",
    "banded_trace",
    "DiskQuadrature",
    "GroupElement",
    "build_quadrature",
    "mobius",
    "transporter",
    "berezin_eigenvalue",
    "channel_constant_sq",
    "pochhammer",
    "chained_kernel_integral",
    "eigen_relation_residual",
    "eigenfunction",
    "DiskFunction",
    "berezin_transform",
    "e_transform",
    "husimi_grid",
    "radial_poly",
    "toeplitz_operator",
]
