"""Desk-scale hearing-aid listening-scene benchmark.

Simulates noisy domestic scenes as Ambisonic sound fields with listener
head rotation, renders binaural hearing-aid inputs, applies a fixed
NAL-R style amplification baseline, and scores the result with
audiogram-aware surrogate intelligibility/quality metrics.

The package root loads nothing else: import the submodule you use
(`clarity_bench.scenes` to render, `clarity_bench.harness` to score,
`clarity_bench.cli` for the command line).
"""

__version__ = "0.1.0"
