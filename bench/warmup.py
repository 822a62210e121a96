"""Workload configurations and the lazy set-up each workload pays once per process.

Run as a script (``python bench/warmup.py <workload>``) it performs exactly that
set-up in a fresh interpreter; the benchmark times such runs as ``setup_s``.
The module imports only numpy and fneg, so a fresh run pays what a user pays.
"""

from __future__ import annotations

import sys

#: bipartite_n10: mode count and the four transpose targets.  Leading and
#: trailing are complements, as are the two interleaved targets, so each
#: negativity has a partner to check against; all but the leading target take
#: the mode-permutation path.
BIPARTITE_MODES = 10
BIPARTITE_TARGETS = {
    "leading": (1, 2, 3, 4, 5),
    "trailing": (6, 7, 8, 9, 10),
    "interleaved_odd": (1, 3, 5, 7, 9),
    "interleaved_even": (2, 4, 6, 8, 10),
}
BIPARTITE_PAIRS = (("leading", "trailing"), ("interleaved_odd", "interleaved_even"))

#: tripartite_mixed: party sizes (modes of A, B, C) of the mixed states drawn
#: each round.  (3,3,2) appears twice so that the median of a round's ten
#: reports falls inside one group of like reports, not between two groups.
TRIPARTITE_MIXED_ROUND = ((2, 2, 2), (3, 3, 2), (3, 3, 2), (3, 3, 3))
#: Each round also draws one pure state with one mode per party, in the even
#: and the odd parity sector on alternate rounds.
TRIPARTITE_PURE_SIZES = (1, 1, 1)

FLAVORS = ("fermionic", "bosonic")


def tripartite_labels(sizes) -> tuple[str, ...]:
    return tuple(lab for lab, size in zip("ABC", sizes) for _ in range(size))


def warm_up(workload: str) -> None:
    """One transpose per (N, target, flavor) configuration of ``workload``.

    The input is the maximally mixed state, so building it costs nothing; the
    call fills the lazily built transpose and permutation tables.
    """
    if workload == "cli_defaults":
        import fneg.cli  # noqa: F401  every command pays this import
        return
    import numpy as np
    from fneg import FockOperator, ModeLayout, SubsystemSpec, partial_transpose

    if workload == "bipartite_n10":
        n = BIPARTITE_MODES
        configs = [(ModeLayout(n, ("A",) * (n // 2) + ("B",) * (n - n // 2)),
                    [SubsystemSpec(t) for t in BIPARTITE_TARGETS.values()])]
    elif workload == "tripartite_mixed":
        configs = []
        for sizes in sorted(set(TRIPARTITE_MIXED_ROUND)) + [TRIPARTITE_PURE_SIZES]:
            layout = ModeLayout(sum(sizes), tripartite_labels(sizes))
            configs.append((layout, [layout.spec(lab) for lab in "ABC"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for layout, specs in configs:
        rho = FockOperator(layout, np.eye(layout.dim, dtype=complex) / layout.dim, copy=False)
        for spec in specs:
            for flavor in FLAVORS:
                partial_transpose(rho, spec, flavor)


if __name__ == "__main__":
    warm_up(sys.argv[1])
