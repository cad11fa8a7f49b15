"""Wall-clock benchmark for the wave-index serving stack (see README.md)."""
