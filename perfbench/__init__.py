"""End-to-end benchmark of the theorem drivers, stream churn and the
serve plane, with a traced per-layer breakdown (see README.md)."""
