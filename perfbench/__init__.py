"""Benchmark for periodic-gfa; entry point perfbench/run.py (see README.md)."""
