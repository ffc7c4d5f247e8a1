"""The characterization framework -- the paper's methodological core.

The paper's contribution is a *methodology*: a microbenchmark suite
plus end-to-end workloads, run on two platforms, reported as rooflines,
utilization heatmaps, and device-vs-device comparisons.  This package
is that methodology as a library:

* :mod:`repro.core.metrics` -- utilization/throughput metric helpers.
* :mod:`repro.core.roofline` -- the roofline model of Figure 4.
* :mod:`repro.core.microbench` -- the Table 2 microbenchmark registry.
* :mod:`repro.core.report` -- plain-text tables and heatmaps.
"""

from repro.core.metrics import geometric_mean, ratio, tflops, utilization
from repro.core.microbench import MICROBENCHMARKS, MicrobenchmarkSpec
from repro.core.roofline import Roofline
from repro.core.report import render_heatmap, render_table

__all__ = [
    "MICROBENCHMARKS",
    "MicrobenchmarkSpec",
    "Roofline",
    "geometric_mean",
    "ratio",
    "render_heatmap",
    "render_table",
    "tflops",
    "utilization",
]
