"""Measurement-feedback control of small open quantum systems.

Its modules cover dense state/operator helpers (states), seeded Wiener noise
and exactly sampled measurement records (stochastic), a small
stochastic-master-equation engine (sme), discrete qubit stabilization
(stabilization), continuous rapid purification (purification),
feedback-driven entanglement generation (entanglement), and the
measurement-induced nonlinear map with its sphere dynamics (chaos).  The cli
module runs the studies as commands of a command line tool; the Lyapunov
estimate (chaos.lyapunov_estimate) has no command and is called from Python.
"""

__version__ = "0.1.0"
