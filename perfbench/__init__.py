"""Benchmark of the SMT reproduction's host cost; see ``perfbench/run.py``."""
