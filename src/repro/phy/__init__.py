"""PHY substrate: specs, 64b/66b blocks, CDC, BER, pipelines.

Nothing is re-exported here; import from the submodules (``repro.phy.specs``,
``repro.phy.blocks``, ``repro.phy.cdc``, ...).
"""

__all__: list = []
