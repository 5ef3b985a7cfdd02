"""Spectral backward-Euler solver and verification harness for monotone-drift
SPDEs driven by compensated Poisson jumps.

The package is organized bottom-up:

- :mod:`levypme.parallel` — worker processes, OpenBLAS pinned to one thread
- :mod:`levypme.operators` — diagonal operator models
- :mod:`levypme.spaces` — the norm family
- :mod:`levypme.nonlinearity` — monotone scalar nonlinearities + audits
- :mod:`levypme.noise` — compensated Poisson models, sampling, audits
- :mod:`levypme.stepper` — the implicit scheme and trajectory records
- :mod:`levypme.variational` — drift hypothesis audits and constants
- :mod:`levypme.cascade` — regularization-ladder studies
- :mod:`levypme.scenario` / :mod:`levypme.cli` — runnable entry points

Each name is imported from its own module; the package itself defines only
``__version__``.
"""

__version__ = "0.1.0"
