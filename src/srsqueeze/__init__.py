"""Numerics for squeezed coherent states that saturate the
Schrodinger-Robertson uncertainty relation of the Heisenberg algebra.

Closed-form parametrizations, wavefunctions and overlap kernels, each
cross-checked against truncated Fock-space matrices and deterministic
Gaussian quadrature.
"""

from .params import (
    Constants,
    DerivedAngles,
    Labels,
    Moments,
    NotSaturated,
    OutOfDomain,
    QuadratureNotConverged,
    derived_angles,
    labels_to_moments,
    lambda0,
    moments_to_labels,
    squeezed_frame_label,
)

__all__ = [
    "Constants",
    "DerivedAngles",
    "Labels",
    "Moments",
    "NotSaturated",
    "OutOfDomain",
    "QuadratureNotConverged",
    "derived_angles",
    "labels_to_moments",
    "lambda0",
    "moments_to_labels",
    "squeezed_frame_label",
]

__version__ = "0.1.0"
