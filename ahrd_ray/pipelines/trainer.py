"""Parameter trainer — simulated annealing (reference operators E7/E8).

Mirrors Trainer.java:93-138 re-expressed for Ray Data:

* inputs are parsed ONCE: the deduped candidate table is materialized and
  re-scored each iteration with mutated parameters (the reference's key
  precedent — parsing happens once, only scoring repeats, SURVEY.md §3.3);
* the objective is the mean (2^-20-quantized, hence exactly-summable)
  evaluation F-score over all documents (Trainer.java:215-245);
* acceptance: better always; worse with p = exp(diff * sf / T)
  (Trainer.java:179-199); temperature cools by ``cool_down_by`` per step;
* mutation: one of {token-score weight triple (renormalized to sum 1,
  Parameters.java:211-221), a source weight, a source dsbs weight} mutated
  by a Gaussian step (Parameters.java:284-303) — with a SEEDED generator
  (documented deviation from the reference's unseeded Random,
  Utils.java:21; required for retry-safe determinism);
* each iteration logs temperature, score, accepted-flag and all parameters
  (TrainerOutputWriter analogue, W4).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pandas as pd

import ray

import pyarrow as pa

from ahrd_ray.config import EngineConfig, SourceConfig, q20_scalar
from ahrd_ray.functions.scoring import score_partition
from ahrd_ray.stages.evaluate import _fbeta, gold_token_pairs
from ahrd_ray.stages.score import get_broadcast


def _normalized_weights(w: list[float]) -> list[float]:
    s = sum(w)
    return [round(x / s, 4) for x in w]


def draw_mutation(rng: np.random.Generator, n_src: int) -> tuple:
    """Consume the mutation draws for ONE annealing step.

    Split from :func:`apply_mutation` so the RNG stream is a pure function
    of the seed (never of the data): the SQL path oracle replays the same
    draws over every acceptance branch (sql_trainer_path).  The number of
    values consumed depends only on ``choice``, which is itself a draw."""
    choice = int(rng.integers(0, 1 + 2 * n_src))
    if choice == 0:
        return (choice, int(rng.integers(0, 3)), float(rng.normal(0.0, 0.1)))
    if choice <= n_src:
        return (choice, None, float(rng.normal(0.0, 10.0)))
    return (choice, None, float(rng.normal(0.0, 0.1)))


def apply_mutation(cfg: EngineConfig, draw: tuple) -> EngineConfig:
    """One parameter mutated (Parameters.java:132-170), deterministic given
    the captured draw."""
    n_src = len(cfg.sources)
    choice, aux, step = draw
    if choice == 0:
        w = [
            cfg.token_score_bit_score_weight,
            cfg.token_score_database_score_weight,
            cfg.token_score_overlap_score_weight,
        ]
        w[aux] = max(0.001, w[aux] + step)
        w = _normalized_weights(w)
        # keep the exact-sum contract: adjust the last weight
        w[2] = round(1.0 - w[0] - w[1], 4)
        return replace(
            cfg,
            token_score_bit_score_weight=w[0],
            token_score_database_score_weight=w[1],
            token_score_overlap_score_weight=w[2],
        )
    idx = (choice - 1) % n_src
    src = cfg.sources[idx]
    if choice <= n_src:
        new_src = replace(src, weight=max(1, int(src.weight + step)))
    else:
        new = min(1.0, max(0.0, src.description_score_bit_score_weight + step))
        new_src = replace(src, description_score_bit_score_weight=round(new, 4))
    sources = tuple(new_src if i == idx else s for i, s in enumerate(cfg.sources))
    return replace(cfg, sources=sources)


def mutate(cfg: EngineConfig, rng: np.random.Generator) -> EngineConfig:
    """One random parameter mutated (Parameters.java:132-170)."""
    return apply_mutation(cfg, draw_mutation(rng, len(cfg.sources)))


def _objective(cands, catalog_ref, n_docs: int, cfg: EngineConfig) -> float:
    """Mean eval F-score under cfg (one Ray pass over cached candidates).

    Gold token sets arrive as marker rows (cand_ord == -1) riding the SAME
    spart partitions as the candidates — derived distributed at setup, never
    a driver-built dict / whole-corpus broadcast (VERDICT r2 item #3)."""

    def part_score(df: pd.DataFrame) -> pd.DataFrame:
        bundle = get_broadcast(catalog_ref)
        gmask = df["cand_ord"].to_numpy() < 0
        grows = df[gmask]
        gold = {
            int(d): (frozenset(g.split(" ")) if g else frozenset())
            for d, g in zip(grows["doc_id"].astype(int), grows["gold"])
        }
        cdf = df[~gmask].drop(columns=["gold"])
        winners = score_partition(cdf, bundle.arrays, cfg, carry_cols=())
        ssum = 0.0
        for doc, w in zip(winners["doc_id"].astype(int), winners["cand_ord"].astype(int)):
            ssum += q20_scalar(_fbeta(bundle.eval_tokens[w], gold[doc]))
        return pd.DataFrame({"s": [ssum], "n": [len(winners)]})

    parts = cands.groupby("spart").map_groups(part_score, batch_format="pandas").to_pandas()
    # docs without a winner contribute 0 (EvaluationScoreCalculator zeroes)
    return float(parts["s"].sum() / n_docs)


def _gold_marker_batch(batch: pa.Table, num_parts: int) -> pa.Table:
    """documents batch -> CANDIDATE_SCHEMA-compatible gold marker rows
    (cand_ord = -1, gold = space-joined gold token set; tokens never
    contain spaces — the splitter splits on whitespace)."""
    rows, toks, _ = gold_token_pairs(batch["text"])
    agg = pd.DataFrame({"row": rows, "token": toks}).groupby("row")["token"].agg(" ".join)
    g = np.full(len(batch), "", dtype=object)
    if len(agg):
        g[agg.index.to_numpy()] = agg.to_numpy()
    d = batch["doc_id"].to_numpy().astype(np.int64)
    n = len(d)
    z32 = pa.array(np.zeros(n, dtype=np.int32), type=pa.int32())
    z64 = pa.array(np.zeros(n, dtype=np.int64), type=pa.int64())
    zf = pa.array(np.zeros(n, dtype=np.float64), type=pa.float64())
    empty = pa.array([""] * n, type=pa.string())
    return pa.table(
        {
            "doc_id": pa.array(d, type=pa.int64()),
            "lang": empty,
            "source": empty,
            "cand_ord": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
            "e_rank": zf,
            "match_score": zf,
            "span_start": z32,
            "span_end": z32,
            "cand_start": z32,
            "cand_end": z32,
            "ingest_seq": z64,
            "doc_len": z64,
            "spart": pa.array((d % num_parts).astype(np.int32), type=pa.int32()),
            "gold": pa.array(g, type=pa.string()),
        }
    )


def train(
    sf_dir: str,
    iterations: int = 20,
    temperature: float = 1000.0,
    cool_down_by: float = 50.0,
    scaling_factor: float = 200.0,
    seed: int = 42,
) -> pd.DataFrame:
    """Run the annealing loop; returns the path log (one row per iteration,
    best row flagged).  The last row holds the best parameters found."""
    import ray.data

    from ahrd_ray.pipelines.kg import cached_context, candidates_dataset

    ctx = cached_context(sf_dir)
    num_parts = ctx.cfg.num_score_partitions

    def with_gold_col(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "gold", pa.array([""] * len(batch), type=pa.string())
        )

    gold_ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(
        lambda b: _gold_marker_batch(b, num_parts), batch_format="pyarrow"
    )
    # parse once (the reference's precedent): candidates + gold marker rows
    # materialize TOGETHER, already co-partitioned by spart — each annealing
    # iteration re-scores the cached table, nothing touches the driver
    cands = (
        candidates_dataset(ctx, from_pages=False)
        .map_batches(with_gold_col, batch_format="pyarrow")
        .union(gold_ds)
        .materialize()
    )
    n_docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).count()

    rng = np.random.default_rng(seed)
    cfg = ctx.cfg
    score = _objective(cands, ctx.catalog_ref, n_docs, cfg)
    best_cfg, best_score = cfg, score
    rows = []
    T = temperature
    for it in range(iterations):
        cand_cfg = mutate(cfg, rng)
        cand_score = _objective(cands, ctx.catalog_ref, n_docs, cand_cfg)
        diff = cand_score - score
        # the acceptance uniform is drawn UNCONDITIONALLY (not only when
        # diff < 0) so the RNG stream is a pure function of the seed — the
        # SQL path oracle replays the identical draw sequence across every
        # acceptance branch (documented deviation from Trainer.java's
        # short-circuit; the accepted/rejected decisions are unchanged)
        u = float(rng.random())
        accept = diff >= 0 or (
            T > 0 and u < math.exp(diff * scaling_factor / T)
        )
        if accept:
            cfg, score = cand_cfg, cand_score
        if score > best_score:
            best_cfg, best_score = cfg, score
        rows.append(
            {
                "iteration": it,
                "temperature": T,
                "score": cand_score,
                "accepted": bool(accept),
                "w_bit": cand_cfg.token_score_bit_score_weight,
                "w_db": cand_cfg.token_score_database_score_weight,
                "w_ov": cand_cfg.token_score_overlap_score_weight,
                **{
                    f"weight_{s.name}": s.weight for s in cand_cfg.sources
                },
                **{
                    f"dsbs_{s.name}": s.description_score_bit_score_weight
                    for s in cand_cfg.sources
                },
            }
        )
        T -= cool_down_by
    log = pd.DataFrame(rows)
    log["best_score"] = best_score
    log["best_w_bit"] = best_cfg.token_score_bit_score_weight
    log["best_w_db"] = best_cfg.token_score_database_score_weight
    log["best_w_ov"] = best_cfg.token_score_overlap_score_weight
    return log


def random_start_configs(n: int, seed: int = 7) -> list[EngineConfig]:
    """E8 — TrainerBatcher analogue: n distinct random parameter sets
    (Parameters.randomParameters, Parameters.java:54-69)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        w = _normalized_weights([float(rng.random()) + 0.01 for _ in range(3)])
        w[2] = round(1.0 - w[0] - w[1], 4)
        sources = tuple(
            SourceConfig(
                name,
                int(rng.integers(1, 101)),
                round(float(rng.random()), 4),
            )
            for name in ("wide", "mid", "niche")
        )
        out.append(
            EngineConfig(
                token_score_bit_score_weight=w[0],
                token_score_database_score_weight=w[1],
                token_score_overlap_score_weight=w[2],
                sources=sources,
            )
        )
    return out


# Token-score weight grid for the parallel sweep (each triple sums to 1,
# the reference's weight-sum contract, TokenScoreCalculator.java:192).
GRID_COMBOS: tuple[tuple[float, float, float], ...] = (
    (0.5, 0.3, 0.2),
    (0.6, 0.2, 0.2),
    (0.4, 0.4, 0.2),
    (0.25, 0.25, 0.5),
)


def grid_search(
    sf_dir: str, combos: tuple[tuple[float, float, float], ...] = GRID_COMBOS
) -> pa.Table:
    """(combo_id, w_bit, w_db, w_ov, objective, n_docs) — the
    TrainerBatcher-style parameter sweep (E8): evaluate the trainer
    objective (mean eval F-score, identical to eval_summary's
    mean_eval_score — proven equal in-session) at each token-score weight
    combo.  Parse-once / score-many: candidates + gold marker rows
    materialize ONCE, each combo is one distributed re-score pass over the
    cached spart partitions — the annealing loop's evaluation step, fanned
    over a deterministic grid instead of a random walk, and fully
    SQL-oracle-gated (one eval-chain replica per combo)."""
    import ray.data

    from ahrd_ray.pipelines.kg import cached_context, candidates_dataset

    ctx = cached_context(sf_dir)
    num_parts = ctx.cfg.num_score_partitions

    def with_gold_col(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "gold", pa.array([""] * len(batch), type=pa.string())
        )

    gold_ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(lambda b: _gold_marker_batch(b, num_parts), batch_format="pyarrow")
    cands = (
        candidates_dataset(ctx, from_pages=False)
        .map_batches(with_gold_col, batch_format="pyarrow")
        .union(gold_ds)
        .materialize()
    )
    n_docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).count()

    rows = []
    for i, (wb, wd, wo) in enumerate(combos):
        c = replace(
            ctx.cfg,
            token_score_bit_score_weight=wb,
            token_score_database_score_weight=wd,
            token_score_overlap_score_weight=wo,
        )
        rows.append(
            {
                "combo_id": np.int64(i),
                "w_bit": float(wb),
                "w_db": float(wd),
                "w_ov": float(wo),
                "objective": _objective(cands, ctx.catalog_ref, n_docs, c),
                "n_docs": np.int64(n_docs),
            }
        )
    return pa.Table.from_pandas(
        pd.DataFrame(rows), preserve_index=False
    ).replace_schema_metadata(None)
