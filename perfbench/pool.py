"""The statement pools behind every workload, and the seeded streams.

The benchmark does not invent SQL at run time.  ``reference.json`` (made
by ``python3 perfbench/run.py --write-reference``) holds a fixed pool of
statements together with what each one must return: its result digest,
its exact ``work.*`` counters and the rows it touched.  A run's
``--seed`` only decides which pool entries are sent and in which order,
so every statement a run sends has a reference answer, whatever the
seed.

Two pools:

* ``worstcase`` — distinct ``CREATE CADVIEW ... SET pivot = Make``
  builds over the five-make pool (Ford, Chevrolet, Toyota, Honda, Jeep)
  whose result sets run from about 5K rows up to the whole pool.  Every
  build names the same view, so each replaces the last and the catalog
  does not grow with the number of builds a run completes.
* ``explore`` — analyst episodes: facet-style ``SELECT``s that narrow
  the previous selection, a small ``CREATE CADVIEW``, ``HIGHLIGHT
  SIMILAR IUNITS`` (Algorithm 1), ``REORDER ROWS`` (Algorithm 2), a
  drill-down ``SELECT``, ``SHOW CADVIEWS`` and ``DROP CADVIEW``.  Each
  episode owns one view name, so two clients never touch each other's
  views.

Both pools are cut into strata by the rows their build reads.  A stream
visits the strata centre-out, one entry per stratum per block, and the
seed picks which entry of each stratum comes next.  Runs with different
seeds therefore send different predicates but the same mix of build
sizes, which is what keeps medians and throughput steady across seeds.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Sequence, Tuple

FORMAT = 1
DATA_SEED = 7
DEFAULT_ROWS = 40_000
MAKES = ("Ford", "Chevrolet", "Toyota", "Honda", "Jeep")
MAKES_SQL = "Make IN (" + ", ".join(MAKES) + ")"
STRATA = 10

# fig8's worst case: every attribute may compare, l = 15 candidates,
# k = 6 shown, no sampling.  Worker processes build with
# CADViewConfig(seed=WorkerSpec.seed), so the explore config is the
# default config with the data seed.
WORSTCASE_CONFIG = {
    "compare_limit": 11, "generated_l": 15, "iunits_k": 6,
    "seed": DATA_SEED,
}
EXPLORE_CONFIG = {"seed": DATA_SEED}

WORSTCASE_VIEW = "worst"
PREPARE_LIVE = 4
PREPARE_DROPPED = 4


def load_reference(path: str) -> Dict[str, object]:
    """Read a reference file and check its format."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref.get("format") != FORMAT:
        raise ValueError(f"{path}: unsupported reference format")
    return ref


def centre_out(strata: int) -> List[int]:
    """Stratum visiting order: middle first, then alternately outward.

    Every prefix of one block is centred on the middle stratum, so a run
    cut short mid-block still has the pool's median build size.
    """
    mid = (strata - 1) // 2
    order = [mid]
    for step in range(1, strata):
        for cand in (mid + step, mid - step):
            if 0 <= cand < strata and len(order) < strata:
                order.append(cand)
    return order


def stratified_streams(
    strata_of: Sequence[int],
    seed: int,
    clients: int,
) -> Tuple[int, List[Iterator[int]]]:
    """``(probe, streams)``: pool indices for a probe and each client.

    ``strata_of[i]`` is pool entry ``i``'s stratum.  The probe is the
    first pool entry of the middle stratum whatever the seed, so the
    cold-build metric always times the same statement; it never appears
    in a stream.  Each
    client owns its own share of every stratum, so two clients never
    send the same entry; a stream that outlives its share wraps around,
    which the run reports as repeated predicates.
    """
    nstrata = max(strata_of) + 1
    members: List[List[int]] = [[] for _ in range(nstrata)]
    for idx, stratum in enumerate(strata_of):
        members[stratum].append(idx)
    order = [s for s in centre_out(nstrata) if members[s]]
    probe = members[order[0]].pop(0)
    for stratum, idxs in enumerate(members):
        random.Random(seed * 7919 + stratum).shuffle(idxs)

    def stream(client: int) -> Iterator[int]:
        shares = [members[s][client::clients] for s in order]
        block = 0
        while True:
            for share in shares:
                if share:
                    yield share[block % len(share)]
            block += 1

    return probe, [stream(c) for c in range(clients)]


def stratum_of(values: Sequence[int], strata: int) -> List[int]:
    """Equal-count strata of ``values`` (0 = smallest)."""
    ranked = sorted(range(len(values)), key=lambda i: (values[i], i))
    out = [0] * len(values)
    for rank, idx in enumerate(ranked):
        out[idx] = rank * strata // len(values)
    return out


# -- pool generation (only for --write-reference) ---------------------------


def _window(rng: random.Random, values, frac: float) -> Tuple[int, int]:
    """An integer ``[lo, hi]`` holding about ``frac`` of sorted ``values``."""
    n = len(values)
    width = max(1, min(n, int(round(frac * n))))
    start = rng.randrange(0, n - width + 1)
    lo = int(values[start])
    hi = int(-(-values[start + width - 1] // 1))
    return lo, hi


def worstcase_candidates(table, count: int, seed: int = 1) -> Iterator[str]:
    """WHERE clauses over the five-make pool, sizes spread 5K..pool."""
    import numpy as np
    from repro.query.parser import parse_predicate

    pool_mask = parse_predicate(MAKES_SQL).mask(table)
    pool_rows = int(pool_mask.sum())
    low = min(5_000, pool_rows // 4)
    rng = random.Random(seed)
    sorted_cols = {
        name: np.sort(table[name].numbers[pool_mask])
        for name in ("Price", "Mileage")
    }
    yield MAKES_SQL  # the whole pool, once
    made = 0
    while made < count:
        stratum = made % STRATA
        target = low + (pool_rows - low) * (stratum + rng.random()) / STRATA
        attr = rng.choice(sorted(sorted_cols))
        lo, hi = _window(rng, sorted_cols[attr], target / pool_rows)
        made += 1
        yield f"{MAKES_SQL} AND {attr} BETWEEN {lo} AND {hi}"


_FACETS = (
    ("BodyType", ("SUV", "Sedan", "Truck")),
    ("Drivetrain", ("2WD", "AWD", "4WD")),
    ("Engine", ("V4", "V6", "V8")),
    ("Transmission", ("Automatic",)),
    ("Color", ("White", "Black", "Silver", "Gray", "Blue", "Red")),
)


def _facet(rng: random.Random, table, used: set) -> str:
    """One narrowing conjunct on an attribute not used yet."""
    choices = [f for f in _FACETS if f[0] not in used]
    choices += [(n, None) for n in ("Price", "Mileage", "Year")
                if n not in used]
    name, values = rng.choice(choices)
    used.add(name)
    if values is not None:
        picked = sorted(rng.sample(values, rng.randint(1, min(2, len(values)))))
        # values such as 4WD do not lex as identifiers; quote them
        picked = [v if v[0].isalpha() else f"'{v}'" for v in picked]
        if len(picked) == 1:
            return f"{name} = {picked[0]}"
        return f"{name} IN ({', '.join(picked)})"
    col = table[name].numbers
    if name == "Year":
        year = rng.randint(2006, 2011)
        return f"Year >= {year}"
    import numpy as np
    lo, hi = _window(rng, np.sort(col), rng.uniform(0.4, 0.8))
    return f"{name} BETWEEN {lo} AND {hi}"


def explore_candidates(table, seed: int = 2) -> Iterator[List[str]]:
    """Conjunct chains: a make comparison, then two or three facets."""
    rng = random.Random(seed)
    popular = MAKES + ("Nissan", "Hyundai", "Subaru", "Kia", "GMC")
    while True:
        makes = sorted(rng.sample(popular, rng.randint(2, 4)))
        chain = [f"Make IN ({', '.join(makes)})"]
        used = {"Make"}
        for _ in range(rng.randint(2, 3)):
            chain.append(_facet(rng, table, used))
        yield chain
