"""termassoc: find words and phrases that associate with document quality grades.

The pipeline links quality-scored records to bibliographic metadata, removes
duplicate submissions, cleans journal boilerplate from abstracts, extracts
sentence-bounded words and phrases, and tests each term's presence across
merged score groups with a Pearson chi-square statistic under a Bonferroni
multiple-testing correction. A synthetic-corpus harness with planted effects
measures detector recall and family-wise error.
"""

__version__ = "0.1.0"
