"""Benchmark for the Stellar simulator: host time on four seeded
workloads, split by layer in a separate traced run (see README.md)."""
