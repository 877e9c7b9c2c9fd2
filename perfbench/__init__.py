"""Benchmark of the repository's mesher (see ``perfbench/README.md``)."""
