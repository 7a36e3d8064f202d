"""KathDB benchmark: seeded workloads, answer checks and per-layer tracing."""
