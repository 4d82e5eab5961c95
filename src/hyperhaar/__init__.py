"""hyperhaar: exact dyadic Haar analysis on grids.

Exact piecewise-constant grids (integer arrays over explicit scales)
with Haar synthesis and exact power sums, hyperbolic Haar sums and
r-functions, the two Riesz-product test-function constructions,
coincidence/graph combinatorics, and discrepancy evaluation, plus a CLI
(``hyperhaar``) that drives verification suites and experiments.

Importing the package loads no module of it: import the ones you use, as
``from hyperhaar import grid, hyperbolic``.
"""

__version__ = "0.1.0"
