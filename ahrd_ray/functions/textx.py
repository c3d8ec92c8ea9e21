"""Deterministic HTML synthesis + extraction.

The graft's per-row invariant (BASELINE.json ``input_hint``): extracted text
must be byte-identical per url.  The extractor is a pure, versioned function
of the ``html`` bytes only — no locale, charset guessing or environment
dependence.  ``synthesize_html`` is its exact inverse-image generator used to
build the test ``pages`` table from the corpus (analogue of the reference's
FASTA entry -> Protein parse, Protein.java:63-113).
"""

from __future__ import annotations

import html as _html
import re

_ARTICLE_RE = re.compile(rb"<article\b[^>]*>(.*?)</article>", re.DOTALL)
_TAG_RE = re.compile(r"<[^>]+>")


def synthesize_html(doc_id: int, text: str, lang: str) -> bytes:
    """Deterministic Common-Crawl-style page wrapper around ``text``.

    Besides the ``<article>`` payload the page carries link structure a
    web-graph pipeline must parse: a canonical ``<link>`` naming the page's
    own host and ``spec.LINK_K`` footer anchors (all outside the article,
    so extracted text stays byte-identical).
    """
    from ahrd_ray.sources import spec

    body = _html.escape(text, quote=False)
    canon = (
        f'<link rel="canonical" href="https://{spec.link_host(doc_id)}/p/{doc_id}">'
    )
    rt = spec.redirect_target(doc_id)
    if rt is not None:
        canon += (
            f'<link rel="redirect" href="https://{spec.link_host(rt)}/p/{rt}">'
        )
    anchors = "".join(
        f'<a rel="o{j}" href="https://{spec.link_dst_host(doc_id, j)}'
        f'/p/{spec.link_target(doc_id, j)}">{j}</a>'
        for j in range(1, spec.LINK_K + 1)
    )
    page = (
        "<!DOCTYPE html>\n"
        f'<html><head><meta charset="utf-8">{canon}'
        f"<title>doc {doc_id}</title></head>\n"
        f'<body><nav>corpus</nav><article lang="{lang}"><p>{body}</p></article>'
        f"<footer>eof{anchors}</footer></body></html>"
    )
    return page.encode("utf-8")


def extract_text(html_bytes: bytes) -> str:
    """Extract the article text, byte-identical to the original document text.

    Pure function of the input bytes: utf-8 decode (strict), take the first
    ``<article>`` element, strip tags, unescape the five XML/HTML entities
    produced by ``html.escape``.
    """
    m = _ARTICLE_RE.search(html_bytes)
    if not m:
        return ""
    inner = m.group(1).decode("utf-8")
    return _html.unescape(_TAG_RE.sub("", inner))


# unescape order matters: &amp; LAST, so pre-escaped input ("&amp;lt;")
# round-trips exactly like html.unescape's single pass
_ENTITIES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&#x27;", "'"), ("&amp;", "&"))


def extract_text_arrow(html_col):
    """Vectorized extractor: Arrow re2 kernels end-to-end, byte-identical to
    :func:`extract_text` for pages produced by :func:`synthesize_html`
    (tested per batch of the conformance suite).  html -> first <article>
    inner -> strip tags -> unescape the html.escape entity set."""
    import pyarrow as pa
    import pyarrow.compute as pc

    s = html_col.cast(pa.string())  # strict utf-8 validation, like .decode()
    m = pc.extract_regex(s, pattern=r"(?s)<article\b[^>]*>(?P<inner>.*?)</article>")
    inner = pc.fill_null(pc.struct_field(m, "inner"), "")
    txt = pc.replace_substring_regex(inner, pattern="<[^>]+>", replacement="")
    for ent, ch in _ENTITIES:
        txt = pc.replace_substring(txt, ent, ch)
    return txt
