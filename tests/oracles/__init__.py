"""Reference implementations the equivalence suites compare ``src/`` to.

Nothing under ``src/repro`` imports from here (``tests/test_layout.py``
checks): these are the direct, slow formulations the production kernels
were derived from, kept so every derivation stays a tested equality.
"""
