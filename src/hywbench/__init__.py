"""Numerical workbench for the operator-valued Fourier transform on group
extensions, with exact discrete verification of the norm inequalities that
connect it to the classical Hausdorff-Young theorem.

Import every name from the module that defines it (``hywbench.grids``,
``hywbench.verify``, ...); the package root holds only ``make_group``.
"""

from .groups import make_group

__all__ = ["make_group"]

__version__ = "0.1.0"
