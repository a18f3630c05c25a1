"""Content classification: language identification and topic assignment.

The paper used Langdetect (character-n-gram naive Bayes) for languages and
Mallet / uClassify for topics.  Both are reimplemented from scratch on a
shared multinomial naive Bayes core and trained on the built-in synthetic
corpus, so the whole pipeline runs offline.
"""
