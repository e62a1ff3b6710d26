"""Build ``reference.json``: the statement pools and their answers.

Run through ``python3 perfbench/run.py --write-reference``.  Every
candidate statement is executed once, sequentially, on an in-process
:class:`~repro.core.explorer.DBExplorer`; a candidate that fails,
degrades, or would repeat another build's row set is dropped, so the
committed pool holds only statements that succeed.  Each kept entry
records its digest, its exact ``work.*`` counters and its row count.

The reference is therefore the answer of the code it was written with.
A change that alters a digest or a counter fails every run until the
file is regenerated on purpose, with the reason stated.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional

from perfbench import checks, pool
from repro.errors import ReproError

SELECT_COLS = "Make, Model, Year, Price, Mileage"


def _execute(dbx, sql: str, kind: str, own_view: Optional[str], names):
    """Run one statement; its reference entry plus the live result."""
    result = dbx.execute(sql)
    entry = {
        "sql": sql,
        "kind": kind,
        "digest": checks.result_digest(kind, result, own_view),
        "work": checks.work_vector(dbx.session().last_work, names),
    }
    if kind == "cadview":
        if result.report is not None and result.report.degraded:
            raise ValueError("degraded build")
        entry["rows"] = int(result.report.trace.attrs["rows_in"])
    elif kind == "select":
        entry["rows"] = len(result)
    return entry, result


def _worstcase(table, count: int, names) -> List[Dict[str, object]]:
    from repro.core.cadview import CADViewConfig
    from repro.core.explorer import DBExplorer
    from repro.query.parser import parse_predicate

    dbx = DBExplorer(CADViewConfig(**pool.WORSTCASE_CONFIG))
    dbx.register("data", table)
    builds: List[Dict[str, object]] = []
    row_sets = set()
    for where in pool.worstcase_candidates(table, 4 * count):
        if len(builds) >= count:
            break
        mask = parse_predicate(where).mask(table)
        key = hashlib.sha256(mask.tobytes()).hexdigest()
        if key in row_sets:
            continue
        sql = (
            f"CREATE CADVIEW {pool.WORSTCASE_VIEW} AS SET pivot = Make "
            f"SELECT * FROM data WHERE {where} LIMIT COLUMNS 11 IUNITS 6"
        )
        try:
            entry, cad = _execute(dbx, sql, "cadview", pool.WORSTCASE_VIEW,
                                  names)
        except (ReproError, ValueError) as exc:
            print(f"  skip build ({type(exc).__name__}): {where}")
            continue
        if len(cad.pivot_values) != len(pool.MAKES):
            continue
        row_sets.add(key)
        builds.append(entry)
    if len(builds) < count:
        raise RuntimeError(f"only {len(builds)} of {count} builds usable")
    for entry, stratum in zip(
        builds, pool.stratum_of([b["rows"] for b in builds], pool.STRATA)
    ):
        entry["stratum"] = stratum
    return builds


def _episode(dbx, table, chain, view: str, rng: random.Random, names,
             lo: int, hi: int) -> Optional[List[Dict[str, object]]]:
    """One validated explore episode, or None when the chain is unusable."""
    from repro.query.parser import parse_predicate

    sizes = [
        int(parse_predicate(" AND ".join(chain[:d])).mask(table).sum())
        for d in range(1, len(chain) + 1)
    ]
    if any(b >= a for a, b in zip(sizes, sizes[1:])):
        return None
    if not lo <= sizes[-1] <= hi:
        return None
    where = " AND ".join(chain)
    out: List[Dict[str, object]] = []

    def run(sql: str, kind: str):
        entry, result = _execute(dbx, sql, kind, view, names)
        out.append(entry)
        return result

    try:
        for depth in range(1, len(chain) + 1):
            run(f"SELECT {SELECT_COLS} FROM data "
                f"WHERE {' AND '.join(chain[:depth])} LIMIT 100", "select")
        cad = run(
            f"CREATE CADVIEW {view} AS SET pivot = Make SELECT * FROM data "
            f"WHERE {where} LIMIT COLUMNS 4 IUNITS 3", "cadview",
        )
        values = list(cad.pivot_values)
        if len(values) < 2:
            raise ValueError("fewer than two pivot values")
        anchor = rng.choice(values)
        run(f"HIGHLIGHT SIMILAR IUNITS IN {view} WHERE SIMILARITY({anchor}, "
            f"{rng.randint(1, len(cad.rows[anchor]))}) > "
            f"{rng.uniform(1.0, 3.0):.1f}", "highlight")
        run(f"REORDER ROWS IN {view} ORDER BY SIMILARITY({rng.choice(values)})",
            "reorder")
        anchor = rng.choice(values)
        run(f"HIGHLIGHT SIMILAR IUNITS IN {view} WHERE SIMILARITY({anchor}, "
            f"{rng.randint(1, len(cad.rows[anchor]))}) > "
            f"{rng.uniform(1.0, 3.0):.1f}", "highlight")
        run(f"SELECT {SELECT_COLS} FROM data WHERE {where} AND "
            f"Make = {rng.choice(values)} ORDER BY Price LIMIT 100", "select")
        run("SHOW CADVIEWS", "show")
        run(f"DROP CADVIEW {view}", "drop")
    except (ReproError, ValueError) as exc:
        print(f"  skip episode ({type(exc).__name__}: {exc}): {where}")
        if view in dbx.views.snapshot():
            dbx.execute(f"DROP CADVIEW {view}")
        return None
    return out


def _explore(table, count: int, names):
    from repro.core.cadview import CADViewConfig
    from repro.core.explorer import DBExplorer

    dbx = DBExplorer(CADViewConfig(**pool.EXPLORE_CONFIG))
    dbx.register("data", table)
    rows = len(table)
    lo, hi = rows // 40, rows // 5
    rng = random.Random(3)
    episodes: List[Dict[str, object]] = []
    prepare: List[List[str]] = []
    chains = pool.explore_candidates(table)
    while len(episodes) < count or len(prepare) < pool.PREPARE_LIVE + pool.PREPARE_DROPPED:
        chain = next(chains)
        filling_prepare = len(episodes) >= count
        view = (f"prep{len(prepare)}" if filling_prepare
                else f"e{len(episodes):03d}")
        stmts = _episode(dbx, table, chain, view, rng, names, lo, hi)
        if stmts is None:
            continue
        if filling_prepare:
            prepare.append([s["sql"] for s in stmts if s["kind"] == "cadview"])
        else:
            episodes.append({"view": view, "statements": stmts})
    builds = [
        next(s for s in ep["statements"] if s["kind"] == "cadview")
        for ep in episodes
    ]
    for ep, stratum in zip(
        episodes, pool.stratum_of([b["rows"] for b in builds], pool.STRATA)
    ):
        ep["stratum"] = stratum
    # the prepared state directory: PREPARE_LIVE + PREPARE_DROPPED views,
    # the dropped ones interleaved with later creates
    creates = [p[0] for p in prepare]
    dropped = [f"prep{i}" for i in range(pool.PREPARE_DROPPED)]
    script: List[str] = creates[:pool.PREPARE_DROPPED]
    for i, sql in enumerate(creates[pool.PREPARE_DROPPED:]):
        script.append(f"DROP CADVIEW {dropped[i]}")
        script.append(sql)
    live = [f"prep{i}" for i in range(pool.PREPARE_DROPPED, len(creates))]
    return episodes, {"statements": script, "live": live}


def write_reference(path: str, rows: int = pool.DEFAULT_ROWS,
                    builds: int = 200, episodes: int = 500) -> Dict[str, object]:
    """Generate, execute and save the pools; returns the reference."""
    from repro.dataset.generators import generate_usedcars
    from repro.obs.work import WORK_COUNTERS

    names = list(WORK_COUNTERS)
    table = generate_usedcars(rows, seed=pool.DATA_SEED)
    build_pool = _worstcase(table, builds, names)
    episode_pool, prepare = _explore(table, episodes, names)
    ref = {
        "format": pool.FORMAT,
        "dataset": {"generator": "usedcars", "rows": rows,
                    "seed": pool.DATA_SEED},
        "work_counters": names,
        "worstcase": {"config": pool.WORSTCASE_CONFIG,
                      "pool_rows": max(b["rows"] for b in build_pool),
                      "builds": build_pool},
        "explore": {"config": pool.EXPLORE_CONFIG,
                    "episodes": episode_pool},
        "prepare": prepare,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return ref
