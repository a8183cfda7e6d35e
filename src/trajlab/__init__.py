"""Trajectory ensembles, measures on them, and worked physical systems.

The package treats a dynamical theory as a set of allowed trajectories and
a statistical theory as a measure on that set. ``core`` holds the shared
vocabulary (trajectories, outcome rates, measures); the remaining
modules each realize one worked system on top of it. Each name is
imported from its module, whose ``__all__`` lists its public names.
"""

__version__ = "0.1.0"
