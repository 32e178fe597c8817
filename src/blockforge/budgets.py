"""Enumeration budgets.

Every potentially explosive loop (subspace enumeration, span point dumps,
hypergraph edge listing, general-position and minimality sweeps) is capped.
Defaults are generous for desk-scale instances; the CLI overrides them from
BLOCKFORGE_BUDGET_* environment variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

ENV_PREFIX = "BLOCKFORGE_BUDGET_"


@dataclass(frozen=True)
class Budgets:
    subspaces: int = 10_000_000  # codim-s subspaces the verifier may enumerate
    points: int = 10_000_000     # projective points a construction may emit
    cliques: int = 1_000_000     # hypergraph edges a graph operator may list
    subsets: int = 1_000_000     # column subsets (sizes <= k) up to which the
    # general-position check is exact; that path ranks none of them and reads
    # both numbers off one codeword sweep (MacWilliams); past it, the sampled
    # path ranks drawn subsets
    codewords: int = 1_000_000   # codewords per minimum-distance sweep
    minimal_subspaces: int = 10_000  # s-dim subspaces per minimality check

    @classmethod
    def from_env(cls, environ=None) -> "Budgets":
        environ = os.environ if environ is None else environ
        overrides = {}
        for f in fields(cls):
            raw = environ.get(ENV_PREFIX + f.name.upper())
            if raw is not None:
                value = int(raw)
                if value <= 0:
                    raise ValueError(f"{ENV_PREFIX + f.name.upper()} must be positive")
                overrides[f.name] = value
        return cls(**overrides)


DEFAULT_BUDGETS = Budgets()
