"""End-to-end, host-calibrated benchmark of the repro library (see README.md)."""
