"""Observability: Prometheus text exposition over records kept elsewhere.

:mod:`repro.obs.metrics` holds :func:`render` and the fixed-bucket
:class:`Histogram`; it imports nothing from the rest of the library.
"""

from repro.obs.metrics import Histogram, render

__all__ = ["Histogram", "render"]
