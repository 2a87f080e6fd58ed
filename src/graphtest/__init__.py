"""Nonparametric hypothesis testing for samples of simple undirected graphs.

The test statistic is the largest gap, over all graphs, between the mean
edge-disagreement distances from a graph to two samples (or to a sample and a
reference distribution). It reduces to the 1-norm distance between edge
marginal vectors, which this package computes exactly in rational arithmetic.
On top of it sit Monte Carlo one-sample tests, permutation two-sample tests,
a per-edge binomial baseline, random-graph models (independent-edge and
exponential-family), power-curve estimation, and a pipeline that turns
multichannel time series into graph samples via windowed rank correlations.

Each module's ``__all__`` is the one list of the names it exports; the
package exports their union.
"""

__version__ = "0.1.0"

from . import errors, graphs, statistic, models, inference, timeseries, formats
from .errors import *
from .graphs import *
from .statistic import *
from .models import *
from .inference import *
from .timeseries import *
from .formats import *

__all__ = ["__version__"] + [
    name
    for module in (errors, graphs, statistic, models, inference, timeseries, formats)
    for name in module.__all__
]
