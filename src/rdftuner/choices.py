"""Names of the search strategies and workload generator settings.

Defined here, apart from `search` and `workload`, so that the command line
parser lists them as choices without importing the search stack.
"""

STRATEGIES = ("exnaive", "exstr", "dfs", "gstr")
SHAPES = ("star", "chain", "cycle", "random_sparse", "random_dense", "mixed")
COMMONALITY = ("low", "medium", "high")
