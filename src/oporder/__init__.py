"""Numerical laboratory for order relations between strictly positive
matrices under nested power-sandwich inequality chains."""

from . import chains, dsl, spectral, verify

__all__ = ["chains", "dsl", "spectral", "verify"]
__version__ = "0.1.0"
