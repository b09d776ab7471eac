"""Optimization layer: the pipeline's programs, their engines and error types."""
