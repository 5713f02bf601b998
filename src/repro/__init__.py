"""repro — shared whiteboard models for distributed graph computation.

A full reimplementation of

    Becker, Kosowski, Matamala, Nisse, Rapaport, Suchan, Todinca.
    *Allowing each node to communicate only once in a distributed
    system: shared whiteboard models.*  SPAA 2012; journal version
    Distributed Computing 28(3), 2015.

Layout
------
``repro.graphs``      labeled graphs, families, reference algorithms
``repro.encoding``    bit-exact message codec, power-sum codes (Thm 2)
``repro.core``        the four models, adversaries, round simulator
``repro.protocols``   the paper's protocols (Thms 2, 5, 7, 9, 10, ...)
``repro.reductions``  Lemma 3 counting, Figure 1/2 gadgets, compilers
``repro.hierarchy``   Lemma 4 adapters, the Table 2 lattice
``repro.runtime``     execution plans, serial/process backends, sinks
``repro.analysis``    verification harness, Table 2 / figure regeneration

Subpackages load on first use: ``import repro`` imports none of them,
and ``from repro import core`` or ``repro.core`` loads ``repro.core``
and what it needs.  A verdict (``stress``, ``campaign``) therefore never
loads the report layers or numpy.

Quickstart
----------
>>> from repro import graphs, core, protocols
>>> g = graphs.random_k_degenerate(20, 3, seed=1)
>>> result = core.run(g, protocols.DegenerateBuildProtocol(3),
...                   core.SIMASYNC, core.RandomScheduler(0))
>>> result.output == g
True
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "experiments",
    "core",
    "encoding",
    "graphs",
    "hierarchy",
    "protocols",
    "reductions",
    "runtime",
    "__version__",
]

#: Every subpackage, so ``repro.<name>`` resolves after a bare
#: ``import repro`` whether or not ``__all__`` lists it.
_SUBPACKAGES = frozenset({
    "adversaries", "analysis", "campaigns", "core", "encoding",
    "experiments", "faults", "graphs", "hierarchy", "protocols",
    "reductions", "runtime", "telemetry",
})


def __getattr__(name: str):
    """Import a subpackage on first attribute access (PEP 562)."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
