"""Repository benchmark: drives the synthesis stack from outside the program.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (see ``perfbench/README.md``).  Nothing under ``src/`` imports
this package, and this package changes nothing under ``src/``: the per-layer
breakdown comes from wrappers this package installs around the program's
public calls for the duration of a traced phase.
"""
