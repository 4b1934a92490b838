"""Exact Bessel-function treatment of the 1D well V(x) = -g^2 exp(-|x|).

Submodules:
    specfun   Bessel J of real/complex order, validators
    bound     bound-state spectra as order-zeros, eigenfunctions, overlaps
    scatter   reflection/transmission amplitudes, unitarity, pole matching
    crum      associated isospectral systems from eigenfunction Wronskians
    oracle    Bessel-free ODE cross-checks (one Numerov half-line sweep)
    cli       the `expwell` command-line front end
"""

from .bound import (
    BoundState,
    OrderZeros,
    PotentialParams,
    Spectrum,
    count_nodes,
    eigenfunction,
    even_condition,
    find_spectrum,
    inner_product,
    normalize,
    odd_condition,
    order_zeros,
    potential,
    rho,
)
from .crum import (
    CrumSystem,
    associated_eigenfunction,
    associated_orthogonality_residuals,
    associated_potential,
    build_crum_system,
    crum_wronskian_x,
    eigen_equation_residual,
    origin_continuity_residual,
    shape_invariance_residual,
    v1_closed_form,
    wronskian_bessel,
)
from .oracle import (
    ShootingConfig,
    numerov_eigenvalue,
    numerov_wavefunction,
    shooting_kappa,
    transmission_numeric,
)
from .scatter import (
    PoleReport,
    ScatterPoint,
    amplitudes,
    find_poles,
    wronskian_identity_residual,
)
from .specfun import bessel_j, bessel_j_dn, lommel_residual

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "CrumSystem",
    "OrderZeros",
    "PoleReport",
    "PotentialParams",
    "ScatterPoint",
    "ShootingConfig",
    "Spectrum",
    "amplitudes",
    "associated_eigenfunction",
    "associated_orthogonality_residuals",
    "associated_potential",
    "bessel_j",
    "bessel_j_dn",
    "build_crum_system",
    "count_nodes",
    "crum_wronskian_x",
    "eigen_equation_residual",
    "eigenfunction",
    "even_condition",
    "find_poles",
    "find_spectrum",
    "inner_product",
    "lommel_residual",
    "normalize",
    "numerov_eigenvalue",
    "numerov_wavefunction",
    "odd_condition",
    "order_zeros",
    "origin_continuity_residual",
    "potential",
    "rho",
    "shape_invariance_residual",
    "shooting_kappa",
    "transmission_numeric",
    "v1_closed_form",
    "wronskian_bessel",
    "wronskian_identity_residual",
]
