"""GPS receiver model: the nanosecond-but-unscalable baseline
(:mod:`repro.gps.receiver`)."""

__all__: list = []
