"""Self time per ``repro`` subpackage, from a cProfile of one pass.

Span wrappers cannot split ``sim.run``'s self time among the hw, core,
net and cluster callbacks it dispatches without wrapping calls made
about 10^5 times per pass, so this table comes from a separate profiled
pass.  cProfile adds a fixed cost to every call, which inflates small
hot functions, so the table reports shares only.

A stdlib or builtin function's self time is charged to the ``repro``
packages up its call chains (``heappush`` from ``sim``; the builtin
``random()`` that ``random.gauss`` calls, when ``net`` called
``gauss``), split by the time of each caller edge.  Time no ``repro``
function is found above goes to ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, FrozenSet, Optional, Tuple

PACKAGES = (
    "sim", "hw", "net", "nf", "core", "cluster",
    "flow", "fabric", "runner", "obs", "exp", "other",
)

Func = Tuple[str, int, str]


def package_of(func: Func) -> Optional[str]:
    """The ``repro`` subpackage a profiled function belongs to, ``other``
    for ``repro``'s top-level modules, None outside ``repro``."""
    parts = os.path.normpath(func[0]).split(os.sep)
    if "repro" not in parts:
        return None
    below = parts[len(parts) - 1 - parts[::-1].index("repro") + 1 :]
    if len(below) >= 2 and below[0] in PACKAGES:
        return below[0]
    return "other"


def self_shares(stats: pstats.Stats) -> Dict[str, float]:
    """``package -> share of all profiled self time``."""
    table = stats.stats  # type: ignore[attr-defined]
    splits: Dict[Func, Dict[str, float]] = {}

    def split_of(func: Func, seen: FrozenSet[Func]) -> Dict[str, float]:
        """How the time of a function outside ``repro`` splits over the
        ``repro`` packages that called it, directly or through other
        functions outside ``repro``."""
        if func in splits:
            return splits[func]
        callers = table[func][4] if func in table else {}
        weights = {caller: edge[2] for caller, edge in callers.items() if caller not in seen}
        total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            package = package_of(caller)
            parts = {package: 1.0} if package else split_of(caller, seen | {func})
            for name, share in parts.items():
                split[name] = split.get(name, 0.0) + share * weight / total
        splits[func] = split
        return split

    seconds = dict.fromkeys(PACKAGES, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        package = package_of(func)
        parts = {package: 1.0} if package else split_of(func, frozenset())
        for name, share in parts.items():
            seconds[name] += tottime * share
    total = sum(seconds.values())
    return {
        package: (value / total if total else 0.0) for package, value in seconds.items()
    }
