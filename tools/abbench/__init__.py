"""abbench: interleaved A/B runs of the repository benchmark.

Wall clock on a shared host drifts by tens of percent between minutes, so
a base and a candidate timed one after the other cannot be compared.
``python -m abbench`` runs them turn about and reports each end-to-end
metric's median and spread per side.
"""

from abbench.cli import main

__all__ = ["main"]
