"""Numerical laboratory for modulation-space dispersive estimates.

Subpackages build on each other roughly bottom-up:

- ``grid``: periodic lattice, the batched unitary FFT pair, L^p quadrature,
  and ``Trajectory``, the one type for a sampled path
- ``modspace``: isometric window decomposition, modulation norms, frequency
  projections
- ``propagator``: free Schroedinger flow, Galilean twist, Duhamel integral,
  product norms of free flows, paraboloid extension norms, mass
- ``variation``: p-variation / atomic calculus for field-valued paths
- ``datagen``: reproducible initial-data families and field serialization
- ``estimates``: ratio sweeps and log-log exponent fits for every measured
  inequality
- ``solver``: Picard contraction solver, split-step oracle, large-data
  frequency-cutoff protocol
- ``cli``: batch experiment runner
"""

__version__ = "0.1.0"
