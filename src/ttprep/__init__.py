"""Tensor-train encodings of Gaussian orbitals in plane-wave bases.

Subpackage map:

- ``tt_core``          tensor-train engine (construction, arithmetic, rounding)
- ``func_encode``      signed momentum grid (sign-magnitude codewords)
- ``gauss_pw``         Gaussian-to-plane-wave projection and 1D/3D train assembly
- ``orbital_builder``  molecular-orbital assembly with error accounting
- ``resource_model``   closed-form Toffoli/qubit cost formulas
- ``oracle``           independent referee against exact k-space sums
- ``pipeline``         input loading and validation, the priced pipeline
- ``cli``              commands, report writers, error-to-exit-code mapping
"""

from . import (  # noqa: F401
    func_encode,
    gauss_pw,
    orbital_builder,
    resource_model,
    tt_core,
)

__version__ = "0.1.0"
