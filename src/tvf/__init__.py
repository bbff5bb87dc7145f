"""Exact combinatorial toolkit for constrained Tverberg verification.

Library layout mirrors the pipeline: graphs -> vd (decomposability
certificates) -> squids (removal schedules on G x K_q) -> schemes
(block-size budgets) -> complexes (independence-complex checks) ->
tverberg (exact witness search), unified by the `tvf` CLI.

The library is used by module (`from tvf.vd import is_vd`); the package
root exports nothing but __version__.
"""

__version__ = "0.1.0"
