"""kslab: a numerical laboratory for the Kuramoto-Sakaguchi kinetic equation
and the finite-N Kuramoto model."""

__version__ = "0.1.0"
