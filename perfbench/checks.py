"""Output checks, all run outside the timed region.

* ``read_triples`` reads a written triples directory and checks that it is
  one globally sorted, duplicate-free (subj, pred, obj) sequence; its digest
  is the sha256 of that sequence.
* ``expected_links`` derives, independently of the pipeline, which
  documents have at least one valid candidate (a lexicon token of the
  document maps to a valid catalog entry) and how many candidates there are
  in total; ``linked_entity_check`` requires exactly one
  ``kg:linked_entity`` triple for each of those documents and none for any
  other subject.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter

import numpy as np
import pyarrow.parquet as pq

PRED_LINKED = "kg:linked_entity"
URL_PREFIX = "https://corpus.local/"


class CheckFailed(AssertionError):
    pass


def parquet_files(path: str) -> list[str]:
    out = []
    for dirpath, _dirs, names in os.walk(path):
        out.extend(os.path.join(dirpath, n) for n in names if n.endswith(".parquet"))
    return sorted(out)


def rows_sorted_distinct(rows: list[tuple[str, str, str]]) -> bool:
    return all(a < b for a, b in zip(rows, rows[1:]))


def read_triples(path: str) -> tuple[list[tuple[str, str, str]], str]:
    """Rows of a written triples directory in global order, and their digest.

    Ray writes one file per block with no order in the file names, so each
    file must be sorted on its own and the files' key ranges must not
    overlap; ordering the files by their first row then gives the total
    order.  Strictly increasing rows also prove there are no duplicates."""
    chunks = []
    for f in parquet_files(path):
        t = pq.read_table(f, columns=["subj", "pred", "obj"])
        rows = list(zip(*(t[c].to_pylist() for c in ("subj", "pred", "obj"))))
        if rows:
            chunks.append(rows)
    chunks.sort(key=lambda rows: rows[0])
    rows = [r for c in chunks for r in c]
    if not rows_sorted_distinct(rows):
        raise CheckFailed(f"{path}: triples are not distinct and sorted by (subj, pred, obj)")
    return rows, digest(rows)


def digest(rows: list[tuple[str, str, str]]) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update("\t".join(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def expected_links(docs, bundle, splitter: str) -> tuple[set[str], int]:
    """(urls of documents with >= 1 valid candidate, total valid candidates).

    Mirrors the detector's contract, not its code: a document's distinct
    lowercased tokens, each fanned out to the catalog entries its alias
    names, counting only entries whose description survived the catalog
    filters (the other validity clauses hold by construction of the
    synthetic link features)."""
    valid = np.asarray(bundle.arrays.valid)
    per_token = {w: int(valid[ords].sum()) for w, ords in bundle.alias_index.items()}
    split = re.compile(splitter)
    urls, total = set(), 0
    for doc_id, text, lang in zip(
        docs["doc_id"].to_pylist(), docs["text"].to_pylist(), docs["lang"].to_pylist()
    ):
        n = sum(per_token.get(t, 0) for t in set(split.split(text.lower())) if t)
        if n:
            urls.add(f"{URL_PREFIX}{lang}/{doc_id}")
            total += n
    return urls, total


def linked_entity_check(rows, expected_urls: set[str]) -> None:
    linked = Counter(s for s, p, _ in rows if p == PRED_LINKED)
    multi = [s for s, c in linked.items() if c != 1]
    if multi:
        raise CheckFailed(f"{len(multi)} subjects have more than one linked_entity, e.g. {multi[0]}")
    if set(linked) != expected_urls:
        missing = expected_urls - set(linked)
        extra = set(linked) - expected_urls
        raise CheckFailed(
            f"linked_entity subjects differ from documents with candidates: "
            f"{len(missing)} missing, {len(extra)} unexpected"
        )
