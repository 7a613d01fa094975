"""conewave: a numerical laboratory for focusing power-law wave equations.

Simulates blow-up and decay solutions of d_tt phi = Lap phi + V |phi|^{p-1} phi
in radial symmetry, evaluates weighted energy functionals over Minkowski
cones, annuli, and slabs, and verifies the governing weighted inequalities
by deterministic quadrature.

The package root re-exports nothing, so importing a submodule loads only
what it uses: library names come from their modules (`conewave.solver`,
`conewave.carleman`, ...).
"""

__version__ = "0.1.0"
