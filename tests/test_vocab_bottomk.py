"""The corpus vocabulary against an independent reference: the distinct
tokens of ``doc_token_batch``.  ``corpus_vocab_bottomk`` must equal its
sorted prefix exactly — the flagship setup's alias picks depend on it
bit-for-bit."""

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from ahrd_ray.sources import spec
from ahrd_ray.sources.tables import distinct_tokens, doc_token_batch

SF = "/root/testdata/sf0.001"

# tabs, \v, NBSP, runs of separators, non-ASCII capitals, an empty and a
# null text
EDGE_TEXTS = [
    "Red  GEAR\tbolt\t\tring",
    "a\vb \v c\x0c\r\nd",
    "x\xa0y z w",
    "--/;\\,:\"'.||()  a-b//c..d",
    "ÉCOLE Straße ΣΟΦΙΑ İstanbul ǅemal",
    "",
    None,
    " lead and trail ",
]


def reference(texts: list) -> list[str]:
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    return sorted(set(doc_token_batch(batch)["token"].to_pylist()))


def test_distinct_tokens_edge_texts():
    edge = reference(EDGE_TEXTS)
    assert sorted(distinct_tokens(pa.array(EDGE_TEXTS, pa.string())).to_pylist()) == edge
    chunked = pa.chunked_array([EDGE_TEXTS[:3], EDGE_TEXTS[3:]], pa.string())
    assert sorted(distinct_tokens(chunked).to_pylist()) == edge
    assert distinct_tokens(pa.array([], pa.string())).to_pylist() == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(
    alphabet="aZé Σİ-/;\\,:\"'.|() \t\v\x0c\r\n\xa0 ", max_size=24)), max_size=6))
def test_distinct_tokens_matches_doc_token_batch(texts):
    assert sorted(distinct_tokens(pa.array(texts, pa.string())).to_pylist()) == reference(texts)


def test_bottomk_matches_full_sorted_prefix(ray_session, tmp_path):
    from ahrd_ray.sources.tables import corpus_vocab, corpus_vocab_bottomk

    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])["text"].to_pylist()
    full = reference(texts)
    assert corpus_vocab(SF) == full
    assert corpus_vocab_bottomk(SF, spec.ALIAS_MOD) == full[: spec.ALIAS_MOD]
    assert corpus_vocab_bottomk(SF, 5) == full[:5]
    # sub-k corpus: len(result) = |vocab| so the r < len(vocab) guard in
    # build_catalog behaves identically
    assert corpus_vocab_bottomk(SF, 10_000) == full

    # edge texts over four files, so over several blocks; the smallest
    # tokens, "0only" to "3only", each sit in one file
    docs_dir = tmp_path / "documents.parquet"
    docs_dir.mkdir()
    for i in range(4):
        texts = EDGE_TEXTS[i:] + [f"{i}only"]
        pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                                 "text": pa.array(texts, pa.string()),
                                 "lang": ["en"] * len(texts)}), docs_dir / f"{i}.parquet")
    edge = reference(EDGE_TEXTS + [f"{i}only" for i in range(4)])
    assert corpus_vocab(str(tmp_path)) == edge
    assert corpus_vocab_bottomk(str(tmp_path), 3) == edge[:3]
    assert corpus_vocab_bottomk(str(tmp_path), 10_000) == edge
