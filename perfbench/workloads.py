"""Workload table and the seeded input generator.

Each workload is a directory holding the three tables the KG pipeline reads
(``documents``, ``part``, ``orders``) plus the corpus split into Parquet
shard files for ``kg_triples_sharded``.  The tables follow the shape of the
repo's synthetic TPC-H-style test corpus: documents of 10-100 words drawn
from a 30-word vocabulary (plus a rare extra word), catalog names made of an
adjective and a noun, dense ``p_partkey`` and ``o_orderkey``.  Everything is
drawn from ``numpy.random.default_rng(seed)``, so one seed always gives the
same bytes.

Why these workloads (sizes chosen so that every run fits the benchmark's
time budget on a 1-core host; see NOTES.md):

* ``headline`` — the ROADMAP headline shape: a 20,000-entity catalog, about
  2,900 valid candidates per document for one winner, so the per-candidate
  kernels (mention gather + scoring) dominate a pass.
* ``wide_small_catalog`` — many documents against a 200-entity catalog:
  about 30 candidates per document, so per-chunk and per-task fixed costs,
  page synthesis/extraction, triple emit, the global sort, the write and the
  setup's corpus-wide vocab scan dominate.  An optimisation of the
  per-candidate kernels should not move it.
* ``resume`` — the ``headline`` shape through ``kg_triples_sharded`` over 8
  shard files; every timed pass first deletes 2 of the 8 winner partitions
  (a job killed mid-stage) and resumes.  The only workload that writes and
  reads ``state.checkpoint`` partitions in its timed region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DOC_WORDS = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
RARE_WORD, RARE_WORD_P = "dup", 0.05
LANGS, LANG_P = ("en", "zh", "es", "fr", "de"), (0.41, 0.15, 0.15, 0.15, 0.14)
ADJECTIVES = ("red", "small", "hot", "cold", "old", "new", "large", "blue")
NOUNS = ("gear", "gizmo", "widget", "ring", "plate", "anvil", "bolt", "rod")
TYPES = ("LARGE", "MEDIUM", "ECONOMY", "PROMO", "SMALL", "STANDARD")
ORDERS_PER_PART = 7.5
NUM_SHARDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    parts: int
    sharded: bool = False  # timed passes resume through kg_triples_sharded


# "full" is what the benchmark measures; "tiny" is for the smoke test only.
WORKLOADS = {
    "full": {
        "headline": Workload("headline", docs=800, parts=20_000),
        "wide_small_catalog": Workload("wide_small_catalog", docs=8_000, parts=200),
        "resume": Workload("resume", docs=800, parts=20_000, sharded=True),
    },
    "tiny": {
        "headline": Workload("headline", docs=48, parts=2_000),
        "wide_small_catalog": Workload("wide_small_catalog", docs=300, parts=200),
        "resume": Workload("resume", docs=48, parts=2_000, sharded=True),
    },
}


def documents_table(rng: np.random.Generator, n: int) -> pa.Table:
    lengths = rng.integers(10, 101, size=n)
    words = np.asarray(DOC_WORDS, dtype=object)[
        rng.integers(0, len(DOC_WORDS), size=int(lengths.sum()))
    ]
    rare = rng.random(n) < RARE_WORD_P
    ends = np.cumsum(lengths)
    texts = []
    for i, (s, e) in enumerate(zip(ends - lengths, ends)):
        doc = list(words[s:e])
        if rare[i]:
            doc.append(RARE_WORD)
        texts.append(" ".join(doc))
    langs = np.asarray(LANGS, dtype=object)[rng.choice(len(LANGS), size=n, p=LANG_P)]
    doc_id = np.arange(n, dtype=np.int64)
    return pa.table(
        {
            "doc_id": doc_id,
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array([f"src{d % 20}" for d in doc_id], type=pa.string()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )


def part_table(rng: np.random.Generator, n: int) -> pa.Table:
    pk = np.arange(n, dtype=np.int64)
    adj = np.asarray(ADJECTIVES, dtype=object)[rng.integers(0, len(ADJECTIVES), size=n)]
    noun = np.asarray(NOUNS, dtype=object)[rng.integers(0, len(NOUNS), size=n)]
    return pa.table(
        {
            "p_partkey": pk,
            "p_name": pa.array([f"{a} {b}" for a, b in zip(adj, noun)], type=pa.string()),
            "p_brand": pa.array(
                [f"Brand#{b}" for b in rng.integers(1, 26, size=n)], type=pa.string()
            ),
            "p_type": pa.array(
                np.asarray(TYPES, dtype=object)[rng.integers(0, len(TYPES), size=n)],
                type=pa.string(),
            ),
            "p_size": pa.array(rng.integers(1, 51, size=n), type=pa.int32()),
            "p_retailprice": 900.0 + (pk % 1000) / 10.0,
        }
    )


def orders_table(rng: np.random.Generator, n: int) -> pa.Table:
    return pa.table(
        {
            "o_orderkey": np.arange(n, dtype=np.int64),
            "o_custkey": rng.integers(0, max(1, n // 10), size=n).astype(np.int64),
        }
    )


def shard_paths(in_dir: str) -> list[str]:
    return [
        os.path.join(in_dir, "shards", f"documents-{k:05d}.parquet")
        for k in range(NUM_SHARDS)
    ]


def generate(w: Workload, seed: int, in_dir: str) -> dict:
    """Write the workload's inputs for ``seed`` under ``in_dir``."""
    rng = np.random.default_rng(seed)
    docs = documents_table(rng, w.docs)
    part = part_table(rng, w.parts)
    orders = orders_table(rng, int(w.parts * ORDERS_PER_PART))
    os.makedirs(os.path.join(in_dir, "shards"), exist_ok=True)
    pq.write_table(docs, os.path.join(in_dir, "documents.parquet"))
    pq.write_table(part, os.path.join(in_dir, "part.parquet"))
    pq.write_table(orders, os.path.join(in_dir, "orders.parquet"))
    bounds = np.linspace(0, w.docs, NUM_SHARDS + 1).astype(int)
    for path, lo, hi in zip(shard_paths(in_dir), bounds[:-1], bounds[1:]):
        pq.write_table(docs.slice(lo, hi - lo), path)
    return {"docs": w.docs, "catalog_entities": w.parts, "orders": orders.num_rows}
