"""ahrd_ray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the scoring machinery of groupschoof/AHRD (reference at
/root/reference, v3.11) as the entity-linking / canonicalization stages of a
triple extractor over Parquet web pages:

* a web page row ``(url, warc_ts, html, text, lang)`` plays the role of the
  reference's query protein (``Protein.java:17-28``);
* entity-catalog source tables (each with a weight and its own
  blacklist/filter regex chains) play the role of the searched BLAST
  databases (``Settings.java:248-376``);
* a candidate entity link (mention span x catalog entry with a match score)
  plays the role of a ``BlastResult`` HSP (``BlastResult.java:27-83``);
* the token-frequency / lexical / description scoring
  (``TokenScoreCalculator.java``, ``LexicalScoreCalculator.java``,
  ``DescriptionScoreCalculator.java``) becomes the entity-link ranker;
* GO-term transfer via the GOA map (``AHRD.java:233-240``) becomes
  attribute/predicate transfer during canonicalization;
* the output table is a deduplicated, sorted ``(subj, pred, obj)`` Parquet
  edge table with per-partition lineage.

Layout:
    functions/  pure kernels (no Ray imports): regex chains, tokenizer,
                scoring math, evaluation F-beta, HTML text extraction.
    sources/    readers + deterministic synthetic derivations of the input
                tables (pages, catalog, attrs) from the test corpus.
    stages/     Ray Data map_batches / groupby stages (mention detection,
                partitioned scoring, canonicalization, dedup, similarity
                search, text stats, multimodal plumbing).
    pipelines/  end-to-end Dataset graphs and the query registry used by
                __ray_entry__.
    state/      checkpoint manifests + per-partition lineage records.
"""

__version__ = "0.1.0"

# Driver-side guard against Ray 2.49's empty-block hash-join poisoning (the
# round-3 flaky kg_kcore failure).  Must be live before the first join plan
# is built; importing stages/partitioning.py installs it (see its docstring
# for the root cause).
from ahrd_ray.stages import partitioning as _partitioning  # noqa: F401
