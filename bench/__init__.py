"""Benchmark harness for the holonomy library and CLI; see bench/run.py."""
