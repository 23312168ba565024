"""The simulated Ethereum P2P ecosystem (substitute for the 2018 Internet).

The paper measured a live network that no longer exists; this package
rebuilds it as a deterministic discrete-event world:

* :mod:`repro.simnet.clock` — event-driven simulation time;
* :mod:`repro.simnet.geo` — country / autonomous-system / latency model
  calibrated to the paper's §7.2 marginals;
* :mod:`repro.simnet.population` — the node-mix generator: DEVp2p services
  (Table 3), Ethereum networks and genesis hashes (Figure 9), clients and
  versions (Tables 4-5, Figure 10), freshness (Figure 14), reachability,
  churn, and the abusive node-ID factories of §5.4;
* :mod:`repro.simnet.node` — per-node behaviour: peer limits with
  Too-many-peers disconnects, HELLO/STATUS content, DAO-check answers,
  neighbour tables under Geth's or Parity's distance metric;
* :mod:`repro.simnet.world` — the assembled world NodeFinder crawls;
* :mod:`repro.simnet.casestudy` — the §3 single-client instrumentation
  (Figures 2-4, Table 1);
* :mod:`repro.simnet.releases` — the 2018 Geth/Parity release calendar
  driving version-adoption dynamics (Figure 10).

Every stochastic choice flows from one seeded RNG, so worlds are exactly
reproducible.
"""
