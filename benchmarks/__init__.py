"""The repository's one benchmark: :mod:`benchmarks.e2e` (``BENCHMARK.json``)."""
