"""Benchmark harness for fgpan: workloads, correctness checks, tracing and
metric reports. Entry point: ``python3 perfbench/run.py``."""
