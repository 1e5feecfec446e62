"""The Glue-Nail relational back end (paper Section 10).

A single-user, main-memory storage manager tailored to deductive-database
workloads: many small, short-lived relations, no concurrency control, EDB
relations persisted to disk between runs, a ``uniondiff`` operator to
support compiled recursive queries, and adaptive run-time index creation
("an index could be created for a relation after the cumulative cost of
selection by scanning the relation reaches the cost of creating the
index").
"""
