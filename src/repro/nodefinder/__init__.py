"""NodeFinder: the paper's measurement tool, rebuilt.

NodeFinder is a Geth-derived crawler that (§4):

* ignores the maximum-peer limit and accepts every incoming connection;
* harvests exactly three exchanges per peer — DEVp2p HELLO, Ethereum
  STATUS, and one GET_BLOCK_HEADERS for the DAO fork block — then
  disconnects, holding peer slots for under a second;
* re-dials every previously-seen node as a "static dial" every 30 minutes,
  dropping addresses whose last successful TCP connection is over 24h old;
* logs every HELLO/STATUS/DISCONNECT/DAO event with timestamp, node ID,
  IP, port, connection type, latency, and duration.

The crawl policy in that list — what is dialed, what joins StaticNodes,
what is due, gated or pruned — is defined once, free of IO, in
:class:`repro.nodefinder.core.CrawlerCore`.  Two drivers ask it:
:mod:`repro.nodefinder.scanner` drives the simulated world (all
benchmarks), and :mod:`repro.nodefinder.live` schedules
:mod:`repro.nodefinder.wire`, which performs the same harvest over the
real asyncio RLPx stack against live TCP nodes (integration tests and
examples).

Both crawlers fold every dial result into the one ``NodeDB`` through
:class:`~repro.nodefinder.shard.NodeDBWriter`.  The live crawler runs one
dial loop and journals to one file; the simulated one may spread its
journal over N files by node-ID prefix, one
:class:`~repro.nodefinder.shard.ShardPlan` fixed for the crawl (an
unsharded crawl is the 1-shard plan).  The paper scaled out with more
instances (§4), which is :mod:`repro.nodefinder.fleet`.
"""
