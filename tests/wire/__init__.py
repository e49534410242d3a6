"""Bit-level wire model that checks DTP survives the real PHY and MAC.

The simulation works at tick granularity and never runs these codecs.
They exist so tests can show, byte for byte, what PAPER.md §4.4 and §7
claim: DTP counters ride ``/E/`` idle blocks (10 GbE) or 8b/10b ordered
sets (1 GbE) intact through scrambling, block lock, comma alignment and
the MAC's view of the stream.

* :mod:`blocks` — the 66-bit block as an object, and DTP's idle embedding;
* :mod:`scrambler` — the Clause 49 self-synchronous scrambler;
* :mod:`block_sync` — the Clause 49 block-lock state machine;
* :mod:`pcs_stream` — frames and DTP messages as 66-bit block streams;
* :mod:`encoding_8b10b` — the Clause 36 codec and its comma aligner;
* :mod:`dtp_1g` — DTP messages in 1 GbE ordered sets;
* :mod:`mac` — MAC frames with a real CRC-32 FCS.
"""
