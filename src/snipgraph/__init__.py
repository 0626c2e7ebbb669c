"""snipgraph: weighted social graphs from search-result snippets.

Grow an entity graph by issuing connectivity queries ("<name>" and), reading
who co-occurs with whom in the returned snippets, and expanding outward from
seed entities under a request budget. Patterns that connect names can be
bootstrapped from the graph itself. Runs replay a stored snippet corpus by
default; live search is opt-in.

The API lives in the submodules (snipgraph.engine, snipgraph.search,
snipgraph.catalog, ...); the package root exports only __version__.
"""

__version__ = "0.1.0"
