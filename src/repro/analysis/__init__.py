"""Analysis pipeline: crawl products → the paper's tables and figures.

Each module computes one family of results from a :class:`NodeDB` /
:class:`CrawlStats` (and, where relevant, world ground truth):

* :mod:`repro.analysis.clients` — client parsing, Tables 4-5, Figure 10;
* :mod:`repro.analysis.ecosystem` — Table 3, Figure 9, §6.1 uselessness;
* :mod:`repro.analysis.comparison` — Table 2 and Table 6;
* :mod:`repro.analysis.geography` — Figures 12-13;
* :mod:`repro.analysis.freshness` — Figure 14;
* :mod:`repro.analysis.validation` — Figures 5-8;
* :mod:`repro.analysis.distance` — Figure 11 and the §6.3 friction study;
* :mod:`repro.analysis.ingest` — measurement-journal replay: folds a
  crawl's JSONL event stream back into the same :class:`NodeDB` /
  :class:`CrawlStats` view, so every module above runs unchanged from a
  live database or a replayed journal;
* :mod:`repro.analysis.report` — the canonical ``nodefinder analyze``
  report (shared with the golden-file regression tests).
"""
