"""Code that only tests call: fault injectors and reference oracles.

The product under ``src/repro`` never imports this package
(``tests/test_package_graph.py`` fails on any ``tests`` import there):

* :mod:`tests.support.chaos` — the TCP chaos proxy and the datagram
  fault wrapper the ``chaos``-marked tests drive the live stack through;
* :mod:`tests.support.clock` — ``ReferenceClock``, the binary-heap
  scheduler the scheduler-equivalence harness checks ``WheelClock``
  against;
* :mod:`tests.support.keccak` — the spec-shaped Keccak-f[1600]
  permutation the generated one is checked against.
"""
