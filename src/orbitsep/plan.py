"""One plan per group: what every layer keeps for a group it has seen.

Its parts depend on the group alone, are built on first use and are
read-only: act's phase steps, G/K, the exponent tables per tuple size, Theta's
default weights, one slot for Phi's seeded reduction, the Hermite data and
the orbit metric's arrays.  Builders and the draw are looked up when called,
here or in the hermite or metric module, so wrappers installed there see
every real build and draw.
"""

import functools

from .exponents import _read_only, build_exponent_table, compile_quotient
from .groups import phase_steps
from .transforms import default_beta, default_reduction


class Plan:
    def __init__(self, group):
        self.group = group
        self._tables = {}  # max_tuple_size -> ExponentTable
        self._reduction = None  # (seed, ell)

    @functools.cached_property
    def phase_steps(self):  # act's exact phase increments
        return _read_only(phase_steps(self.group))

    @functools.cached_property
    def quotient(self):  # G/K, as exponents.faithful_quotient gives it
        return compile_quotient(self.group)

    @functools.cached_property
    def hermite(self):  # the rational invariants' HermiteData
        from . import hermite  # hermite imports metric, which imports this module
        return hermite.hermite_multiplier(self.group)

    @functools.cached_property
    def metric(self):  # the orbit metric's arrays, as metric._compile builds them
        from . import metric
        return metric._compile(self)

    def table(self, max_tuple_size=3):
        if max_tuple_size not in self._tables:
            self._tables[max_tuple_size] = build_exponent_table(self.group, max_tuple_size)
        return self._tables[max_tuple_size]

    @functools.cached_property
    def beta(self):  # Theta's default weights on the full table
        beta = default_beta(self.table())
        for weights in beta.blocks:
            weights.flags.writeable = False
        return beta

    def reduction(self, seed):
        """Phi's reduction for seed: the held matrix if seed was the last
        drawn, else a new draw that replaces it."""
        held = self._reduction
        if held is None or held[0] != seed:
            held = self._reduction = None  # the old matrix goes before the new one is drawn
            ell = default_reduction(self.table(), seed)
            ell.flags.writeable = False
            held = self._reduction = (seed, ell)
        return held[1]


@functools.lru_cache(maxsize=8)
def plan(group) -> Plan:
    """The group's plan, kept while it is among the 8 most recently used."""
    return Plan(group)
