"""Reference implementations of the product's hot paths.

Each module holds the straightforward original a fast product kernel
was derived from.  They are test code only: the equivalence suite
swaps one in with ``monkeypatch`` and requires bit-identical results.
"""
