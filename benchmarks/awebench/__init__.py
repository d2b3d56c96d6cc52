"""Benchmark harness for awekit: workloads, span tracing and reporting."""
