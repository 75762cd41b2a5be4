"""Generic ranks of random quantum k-SAT formulas.

Library layout:
  hypergraph   data model, random generation, k=2 components
  rank_oracle  float and finite-field generic-rank backends
  gadgets      closed-form gadget ranks, gadget graphs and verify's cases
  peeling      the two randomized peeling algorithms and empirical bounds
  analysis     analytic threshold bounds and root-finding
  cli          `qksat` command-line entry point
"""

__version__ = "0.1.0"
