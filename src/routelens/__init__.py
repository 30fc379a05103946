"""AS-level deanonymization analysis toolkit for Tor-like anonymity networks.

Submodules:
    core         shared IPv4/AS domain types and longest-prefix matching
    correlation  TCP byte-progress extraction and rank-correlation matching
    textcols     line-oriented text as numpy columns, the readers' frame
    tracefile    the packet-trace JSONL codec
    bgp          update tables, route spans and per-session routing state
    churn        simultaneous-observation compromise metric over time
    paths        traceroute-derived forward/reverse path vulnerability
    detect       relay concentration, hijack heuristics, prefix lengths
    simulate     seeded generators with ground truth for every analysis
    evaluation   harness tying generator ground truth to analysis output
    cli          file-based command line front end
"""

__version__ = "0.1.0"
