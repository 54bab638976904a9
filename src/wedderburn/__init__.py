"""Wedderburn decompositions of metacyclic group algebras over finite fields.

The group is either x^n = y^2 = 1, xy = yx^s (split) or x^{2n} = 1,
y^2 = x^n, xy = yx^s (nonsplit), with s^2 = 1 mod N and gcd(2N, q) = 1.
`decompose` returns the simple components with explicit 1x1 and 2x2
generator images, `complete_idempotent_set` the central primitive
idempotents plus their non-central splittings, and everything is checked
against the table-based `oracle` module.
"""

from .battery import battery_instances, check_instance, run_battery
from .cyclotomic import classify
from .decompose import decompose
from .fields import ext_field, make_field, split_prime_power
from .groups import NONSPLIT, SPLIT, make_group, parse_group
from .idempotents import (central_idempotents, complete_idempotent_set,
                          cyclic_idempotent, noncentral_pair)

__version__ = "0.1.0"

__all__ = [
    "NONSPLIT",
    "SPLIT",
    "battery_instances",
    "central_idempotents",
    "check_instance",
    "classify",
    "complete_idempotent_set",
    "cyclic_idempotent",
    "decompose",
    "ext_field",
    "make_field",
    "make_group",
    "noncentral_pair",
    "parse_group",
    "run_battery",
    "split_prime_power",
]
