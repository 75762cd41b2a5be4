"""Generic ranks of random quantum k-SAT formulas.

Library layout:
  rng          seeded streams and the shared guards require_int, check_memory
  hypergraph   data model, random generation, k=2 components
  rank_oracle  float and finite-field generic-rank backends
  _modlin      exact elimination over GF(P) for rank_oracle's field trials
  gadgets      closed-form gadget ranks, gadget graphs and verify's cases
  peeling      the two randomized peeling algorithms and empirical bounds
  analysis     analytic threshold bounds and root-finding
  cli          `qksat` command-line entry point
"""

__version__ = "0.1.0"
