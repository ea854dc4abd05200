"""Reference implementations of the product's hot paths and decoder.

Each module holds the straightforward original a product kernel was
derived from, or an independent second implementation of the same
job.  They are test code only: the equivalence suites swap one in with
``monkeypatch`` or run it beside the product, and require identical
results.
"""
