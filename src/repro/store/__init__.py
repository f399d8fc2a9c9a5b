"""Empty since the persistence tier was deleted; see :mod:`repro.store.tiers`."""
