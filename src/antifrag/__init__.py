"""Antifragility analytics for populations of market agents.

The package measures how each agent's satisfaction (changes of its
normalized price) co-moves with system-wide perturbation, per analysis
window and time scale, and pairs the result with conventional performance
metrics, quantile-bin summaries, distributions, and top-performer
comparison statistics. Everything is emitted as plot-ready CSV/JSON.
"""
