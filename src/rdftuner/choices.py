"""Names of the search strategies, the entailment modes and the workload
generator settings.

Defined here, apart from `search`, `reasoning` and `workload`, so that the
command line parser lists them as choices without importing the search
stack or reasoning.
"""

STRATEGIES = ("exnaive", "exstr", "dfs", "gstr")
# how implicit triples are handled: not at all, by saturating the store, or
# by reformulating the workload before the search or the views after it
MODES = ("plain", "saturate", "pre", "post")
SHAPES = ("star", "chain", "cycle", "random_sparse", "random_dense", "mixed")
COMMONALITY = ("low", "medium", "high")
