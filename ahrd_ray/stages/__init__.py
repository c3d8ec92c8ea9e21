"""Ray Data stages (map_batches fns + per-worker callable classes)."""
