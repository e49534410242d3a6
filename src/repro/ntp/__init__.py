"""NTP baseline: software-timestamped four-timestamp synchronization
(:mod:`repro.ntp.protocol`)."""

__all__: list = []
