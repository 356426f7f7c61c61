"""Measurement-feedback control of small open quantum systems.

Subpackages cover dense state/operator helpers (states), seeded Wiener noise
and exactly sampled measurement records (stochastic), a small
stochastic-master-equation engine (sme), discrete qubit stabilization
(stabilization), continuous rapid purification (purification),
feedback-driven entanglement generation (entanglement), and the
measurement-induced nonlinear map with its sphere dynamics (chaos).  The cli
module exposes all of it as a command line tool.
"""

__version__ = "0.1.0"
