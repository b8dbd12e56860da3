"""repro: a reproduction of "On Termination of a Flooding Process" (PODC 2019).

Amnesiac Flooding (AF) is flooding without memory: a node forwards the
message to exactly those neighbours it did not just receive it from,
then forgets.  This package implements the process, the synchronous
and asynchronous execution models it lives in, the paper's baselines
and proposed applications, and an experiment harness that regenerates
every figure and theorem-level claim of the paper.

Quickstart
----------
>>> from repro import graphs, core
>>> triangle = graphs.paper_triangle()
>>> run = core.simulate(triangle, ["b"])
>>> run.termination_round          # Figure 2: 3 rounds = 2*D + 1 with D = 1
3

Package map
-----------
``repro.api``         FloodSpec / FloodResult / FloodSession facade over all tiers
``repro.graphs``      topology substrate (generators, properties, double cover)
``repro.sync``        synchronous message-passing engine
``repro.core``        amnesiac flooding + termination analysis (the paper)
``repro.fastpath``    CSR-indexed flooding engines (pure / numpy)
``repro.parallel``    sharded multi-core sweep pool over the fast path
``repro.service``     async flood-query service over the sweep pool
``repro.asynchrony``  asynchronous AF and adversaries (Section 4)
``repro.baselines``   classic flooding, BFS broadcast, rumor spreading
``repro.variants``    k-memory, lossy, dynamic, multi-message extensions
``repro.analysis``    metrics, bound checking, bipartiteness detection
``repro.viz``         ASCII round art and DOT export
``repro.apps``        broadcast facade + echo termination detection
``repro.experiments`` figure/claim registry and report runner
"""

from repro._version import __version__
from repro import graphs
from repro import sync
from repro import core
from repro import fastpath
from repro import parallel
from repro import service
from repro import asynchrony
from repro import baselines
from repro import variants
from repro import analysis
from repro import viz
from repro import apps
from repro import experiments
from repro import api

__all__ = [
    "__version__",
    "api",
    "graphs",
    "sync",
    "core",
    "fastpath",
    "parallel",
    "service",
    "asynchrony",
    "baselines",
    "variants",
    "analysis",
    "viz",
    "apps",
    "experiments",
]
