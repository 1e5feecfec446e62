"""The public Glue-Nail API: the system facade, query helpers, and CLI."""
