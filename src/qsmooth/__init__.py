"""Gradient-free stochastic optimization with q-Gaussian smoothed-functional
gradient estimates, plus the M/G/1 feedback-network benchmark used to
validate it."""

__version__ = "0.1.0"
