"""repro — a reproduction of *Content and popularity analysis of Tor hidden
services* (Biryukov, Pustogarov, Thill, Weinmann; ICDCS 2014).

The library has three layers:

* **Substrates** — a deterministic Tor network simulator:
  :mod:`repro.sim` (time/RNG), :mod:`repro.crypto` (v2 onion and
  descriptor-ID math), :mod:`repro.net` (addresses, transport, GeoIP),
  :mod:`repro.relay` / :mod:`repro.dirauth` (relays, flags, consensus),
  :mod:`repro.hsdir` / :mod:`repro.hs` / :mod:`repro.client` (directories,
  services, clients), and :mod:`repro.population` (the calibrated synthetic
  hidden-service world).
* **Measurement pipeline** — the paper's contribution: :mod:`repro.trawl`
  (shadow-relay harvesting), :mod:`repro.scan` (port scanning),
  :mod:`repro.crawl` + :mod:`repro.classify` (content analysis),
  :mod:`repro.popularity` (request-rate ranking), :mod:`repro.tracking`
  (client deanonymisation) and :mod:`repro.detection` (consensus-history
  tracking detection).
* **Experiments** — :mod:`repro.experiments` regenerates every table and
  figure; :mod:`repro.analysis` holds the reporting helpers.

Quickstart::

    from repro.crypto.keys import KeyPair
    from repro.hs.service import HiddenService
    from repro.sim.clock import SimClock, parse_date
    from repro.sim.rng import derive_rng
    from repro.tornet import TorNetwork

    net = TorNetwork(clock=SimClock(parse_date("2013-02-04")))
    ...

Import from the module that defines a name: package ``__init__`` modules
re-export nothing heavy, so a process loads only the code it runs (a
store replay never loads the simulator).  See README.md and the
``examples/`` directory.
"""

__version__ = "1.0.0"
